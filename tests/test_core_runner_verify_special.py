"""Tests for the high-level runners, the verification module, and special schemes."""

from __future__ import annotations

import pytest

from repro.api import get_scheme
from repro.core import (
    broadcast_succeeds_with_labels,
    check_corollary_2_7,
    check_fact_3_1,
    check_universality_constraints,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
    run_tree_flood,
    search_minimum_labels,
    verify_broadcast_outcome,
)
from repro.core.labeling import Labeling
from repro.graphs import (
    GraphError,
    cycle_graph,
    grid_graph,
    path_graph,
    random_tree,
    spider_graph,
    star_graph,
)
from repro.radio import OffsetClocks, TransmissionDropFaults


class TestRunnerApi:
    def test_run_broadcast_rejects_wrong_labeling(self):
        g = path_graph(4)
        ack = lambda_ack_scheme(g, 0)
        with pytest.raises(GraphError):
            get_scheme("lambda").run(g, 0, labeling=ack)

    def test_run_ack_rejects_wrong_labeling(self):
        g = path_graph(4)
        plain = lambda_scheme(g, 0)
        with pytest.raises(GraphError):
            get_scheme("lambda_ack").run(g, 0, labeling=plain)

    def test_payload_is_delivered_verbatim(self):
        g = grid_graph(3, 3)
        outcome = get_scheme("lambda").run(g, 0, payload={"k": 1})
        for node in outcome.simulation.nodes:
            if not node.is_source:
                assert node.sourcemsg == {"k": 1}

    def test_outcome_properties(self):
        g = star_graph(6)
        outcome = get_scheme("lambda").run(g, 0)
        assert outcome.completed
        assert outcome.total_transmissions >= 1
        assert outcome.total_collisions == 0
        assert outcome.trace is outcome.simulation.trace

    def test_custom_round_budget_can_truncate(self):
        g = path_graph(12)
        outcome = get_scheme("lambda").run(g, 0, max_rounds=3)
        assert not outcome.completed

    def test_broadcast_resilient_to_clock_offsets(self):
        g = grid_graph(4, 4)
        clock = OffsetClocks({v: 7 * v for v in g.nodes()})
        outcome = get_scheme("lambda").run(g, 0, clock_model=clock)
        assert outcome.completed
        assert verify_broadcast_outcome(g, outcome) == []

    def test_faulty_channel_can_break_broadcast(self):
        # The paper assumes a reliable channel; with heavy losses the bound fails,
        # which is exactly what the fault-injection ablation demonstrates.
        g = path_graph(10)
        outcome = get_scheme("lambda").run(g, 0, fault_model=TransmissionDropFaults(0.9, seed=1))
        assert outcome.completion_round is None


class TestVerifyModule:
    def test_universality_constraints_pass_for_schemes(self):
        g = grid_graph(3, 4)
        assert check_universality_constraints(lambda_scheme(g, 0)) == []
        assert check_universality_constraints(lambda_ack_scheme(g, 0)) == []
        assert check_universality_constraints(lambda_arb_scheme(g)) == []

    def test_universality_constraints_flag_bad_scheme(self):
        bad = Labeling(scheme="lambda", labels={0: "101", 1: "0"}, source=0)
        assert check_universality_constraints(bad)

    def test_unknown_scheme_flagged(self):
        weird = Labeling(scheme="mystery", labels={0: "0"}, source=0)
        assert check_universality_constraints(weird)

    def test_fact_3_1_checker_flags_violation(self):
        bad = Labeling(scheme="lambda_ack", labels={0: "101", 1: "000"}, source=0)
        assert check_fact_3_1(bad)

    def test_fact_3_1_allows_coordinator_111(self):
        g = path_graph(5)
        arb = lambda_arb_scheme(g)
        assert check_fact_3_1(arb) == []

    def test_corollary_2_7_checker(self):
        g = grid_graph(3, 3)
        seq = lambda_scheme(g, 0).construction
        assert check_corollary_2_7(seq) == []

    def test_verify_detects_incomplete_broadcast(self):
        g = path_graph(12)
        outcome = get_scheme("lambda").run(g, 0, max_rounds=3)
        assert verify_broadcast_outcome(g, outcome)


class TestTreeFlood:
    def test_trees_complete_without_labels(self):
        for tree, src in [(random_tree(20, seed=1), 0), (path_graph(9), 4),
                          (star_graph(8), 0), (spider_graph(3, 4), 0)]:
            sim = run_tree_flood(tree, src)
            assert sim.trace.broadcast_completion_round() is not None

    def test_tree_flood_completion_is_twice_depth(self):
        # On a path from an endpoint, depth d is reached in round 2d-1.
        n = 8
        sim = run_tree_flood(path_graph(n), 0)
        assert sim.trace.broadcast_completion_round() == 2 * (n - 1) - 1

    def test_rejects_non_trees(self):
        with pytest.raises(GraphError):
            run_tree_flood(cycle_graph(5), 0)


class TestLabelSearch:
    def test_four_cycle_needs_more_than_one_label(self):
        # The paper's impossibility example: with all labels equal, the two
        # neighbours of the source behave identically and the antipodal node
        # only ever hears collisions.
        g = cycle_graph(4)
        result = search_minimum_labels(g, 0, max_bits=0)
        assert result.width is None

    def test_four_cycle_solved_with_one_bit(self):
        g = cycle_graph(4)
        result = search_minimum_labels(g, 0, max_bits=1)
        assert result.width == 1
        assert result.labels is not None
        assert broadcast_succeeds_with_labels(g, 0, result.labels) is not None

    def test_two_bits_always_enough_matches_theorem(self):
        for g in (cycle_graph(5), grid_graph(2, 3), star_graph(5)):
            result = search_minimum_labels(g, 0, max_bits=2)
            assert result.width is not None and result.width <= 2

    def test_small_grid_one_bit_suffices(self):
        # Supports the conclusion's claim that grids admit 1-bit schemes.
        result = search_minimum_labels(grid_graph(2, 3), 0, max_bits=1)
        assert result.width in (0, 1)

    def test_attempt_budget_respected(self):
        g = cycle_graph(8)
        result = search_minimum_labels(g, 0, max_bits=2, attempt_budget=5)
        assert result.attempts <= 5

    def test_invalid_source(self):
        with pytest.raises(GraphError):
            search_minimum_labels(path_graph(3), 9)

    def test_witness_labels_reported(self):
        g = path_graph(4)
        result = search_minimum_labels(g, 0, max_bits=1)
        assert result.width is not None
        assert set(result.labels) == set(g.nodes())
