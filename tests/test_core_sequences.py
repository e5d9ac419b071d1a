"""Unit tests for the Section 2.1 set-sequence construction."""

from __future__ import annotations

import pytest

from repro.core import build_sequences
from repro.graphs import (
    GraphError,
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_gnp_graph,
    star_graph,
)


class TestStageOne:
    def test_initialisation_matches_paper(self):
        g = star_graph(5)
        seq = build_sequences(g, 0)
        s1 = seq.stage(1)
        assert s1.informed == frozenset({0})
        assert s1.uninformed == frozenset({1, 2, 3, 4})
        assert s1.frontier == frozenset({1, 2, 3, 4})
        assert s1.dom == frozenset({0})
        assert s1.new == frozenset({1, 2, 3, 4})

    def test_single_node_graph(self):
        seq = build_sequences(Graph.empty(1), 0)
        assert seq.ell == 1
        assert seq.stage(1).informed == frozenset({0})
        seq.check_invariants()

    def test_two_node_graph(self):
        seq = build_sequences(path_graph(2), 0)
        assert seq.ell == 2
        assert seq.new(1) == frozenset({1})
        seq.check_invariants()


class TestConstructionProperties:
    @pytest.mark.parametrize("graph,source", [
        (path_graph(10), 0),
        (path_graph(10), 5),
        (cycle_graph(9), 0),
        (star_graph(12), 0),
        (star_graph(12), 4),
        (complete_graph(8), 3),
        (grid_graph(4, 5), 0),
        (grid_graph(5, 5), 12),
        (random_gnp_graph(30, 0.12, seed=2), 0),
        (random_gnp_graph(40, 0.07, seed=5), 17),
    ])
    def test_all_invariants(self, graph, source):
        seq = build_sequences(graph, source)
        seq.check_invariants()

    def test_ell_at_most_n(self):
        for n in (2, 5, 9, 16):
            g = path_graph(n)
            assert build_sequences(g, 0).ell <= n

    def test_path_from_end_has_ell_n(self):
        # worst case: one new node per stage
        g = path_graph(8)
        assert build_sequences(g, 0).ell == 8

    def test_star_has_ell_two(self):
        assert build_sequences(star_graph(20), 0).ell == 2

    def test_complete_graph_ell_two(self):
        assert build_sequences(complete_graph(10), 4).ell == 2

    def test_new_sets_partition(self):
        g = random_gnp_graph(25, 0.15, seed=7)
        seq = build_sequences(g, 3)
        union = set()
        for stage in seq.stages:
            assert not (union & stage.new)
            union |= stage.new
        assert union == set(range(g.n)) - {3}

    def test_final_stage_empty_sets(self):
        seq = build_sequences(grid_graph(3, 3), 0)
        last = seq.stage(seq.ell)
        assert not last.frontier and not last.dom and not last.new
        assert last.informed == frozenset(range(9))

    def test_dom_subset_of_candidates(self):
        g = random_gnp_graph(20, 0.2, seed=9)
        seq = build_sequences(g, 0)
        for i in range(2, seq.ell + 1):
            assert seq.dom(i) <= seq.dom(i - 1) | seq.new(i - 1)


class TestDerivedViews:
    def test_dom_membership(self):
        g = path_graph(6)
        seq = build_sequences(g, 0)
        member = seq.dom_membership()
        assert member[0] == [1]
        # interior path nodes each transmit in exactly one stage
        for v in range(1, 5):
            assert len(member[v]) == 1

    def test_new_stage_and_informed_round(self):
        g = path_graph(6)
        seq = build_sequences(g, 0)
        for v in range(1, 6):
            assert seq.new_stage[v] == v
            assert seq.informed_round(v) == 2 * v - 1
        assert seq.informed_round(0) == 0

    def test_informed_round_unknown_node(self):
        seq = build_sequences(path_graph(3), 0)
        with pytest.raises(GraphError):
            seq.informed_round(99)

    def test_last_informed_and_broadcast_rounds(self):
        g = path_graph(7)
        seq = build_sequences(g, 0)
        assert seq.last_informed_nodes() == frozenset({6})
        assert seq.broadcast_rounds() == 2 * seq.ell - 3

    def test_accessors_beyond_ell(self):
        seq = build_sequences(star_graph(5), 0)
        assert seq.dom(seq.ell + 3) == frozenset()
        assert seq.new(seq.ell + 3) == frozenset()
        assert seq.informed(seq.ell + 3) == frozenset(range(5))
        with pytest.raises(IndexError):
            seq.stage(0)

    def test_stage_repr(self):
        seq = build_sequences(path_graph(4), 0)
        assert "Stage(i=1" in repr(seq.stage(1))


class TestErrorsAndStrategies:
    def test_disconnected_rejected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            build_sequences(g, 0)

    def test_bad_source_rejected(self):
        with pytest.raises(GraphError):
            build_sequences(path_graph(3), 7)

    def test_greedy_strategy_also_valid(self):
        g = random_gnp_graph(25, 0.15, seed=11)
        seq = build_sequences(g, 0, strategy="greedy")
        seq.check_invariants()

    def test_strategies_may_differ_but_both_complete(self):
        g = grid_graph(4, 4)
        a = build_sequences(g, 0, strategy="prune")
        b = build_sequences(g, 0, strategy="greedy")
        a.check_invariants()
        b.check_invariants()
        assert a.informed(a.ell) == b.informed(b.ell)
