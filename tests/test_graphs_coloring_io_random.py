"""Unit tests for colouring, serialization and the RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    Graph,
    color_classes,
    complete_graph,
    cycle_graph,
    degeneracy,
    derive_seed,
    from_adjacency_json,
    from_dimacs,
    from_edge_list,
    greedy_coloring,
    grid_graph,
    is_proper_coloring,
    make_rng,
    path_graph,
    random_gnp_graph,
    spawn_rngs,
    square_coloring,
    to_adjacency_json,
    to_dimacs,
    to_edge_list,
)
from repro.graphs.graph import GraphError


class TestColoring:
    def test_greedy_coloring_is_proper(self):
        for g in (path_graph(8), cycle_graph(7), grid_graph(4, 4), complete_graph(5),
                  random_gnp_graph(20, 0.25, seed=3)):
            colours = greedy_coloring(g)
            assert is_proper_coloring(g, colours)

    def test_greedy_respects_degeneracy_bound(self):
        g = random_gnp_graph(25, 0.2, seed=1)
        colours = greedy_coloring(g)
        assert max(colours.values()) + 1 <= degeneracy(g) + 1

    def test_custom_order(self):
        g = path_graph(4)
        colours = greedy_coloring(g, order=[0, 1, 2, 3])
        assert is_proper_coloring(g, colours)

    def test_invalid_order_rejected(self):
        with pytest.raises(GraphError):
            greedy_coloring(path_graph(3), order=[0, 0, 1])

    def test_square_coloring_distance_two_property(self):
        g = grid_graph(4, 4)
        colours = square_coloring(g)
        # any two nodes at distance <= 2 must differ
        for u in g.nodes():
            for v in g.nodes():
                if u < v and (g.has_edge(u, v) or (g.neighbors(u) & g.neighbors(v))):
                    assert colours[u] != colours[v]

    def test_color_classes(self):
        colours = {0: 0, 1: 1, 2: 0, 3: 2}
        classes = color_classes(colours)
        assert classes == [[0, 2], [1], [3]]
        assert color_classes({}) == []

    def test_is_proper_requires_total_assignment(self):
        g = path_graph(3)
        assert not is_proper_coloring(g, {0: 0, 1: 1})


class TestSerialization:
    def test_edge_list_roundtrip(self):
        g = grid_graph(3, 4)
        assert from_edge_list(to_edge_list(g)) == g

    def test_edge_list_header_validation(self):
        with pytest.raises(GraphError):
            from_edge_list("3\n0 1\n")
        with pytest.raises(GraphError):
            from_edge_list("3 2\n0 1\n")  # promises 2 edges, has 1
        with pytest.raises(GraphError):
            from_edge_list("")

    def test_edge_list_files(self, tmp_path):
        from repro.graphs import load_edge_list, save_edge_list

        g = cycle_graph(6)
        path = tmp_path / "cycle.edges"
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_adjacency_json_roundtrip(self):
        g = Graph.from_edges(4, [(0, 1), (1, 3)], names=["a", "b", "c", "d"])
        back = from_adjacency_json(to_adjacency_json(g))
        assert back == g
        assert back.names == ("a", "b", "c", "d")

    def test_dimacs_roundtrip(self):
        g = random_gnp_graph(12, 0.3, seed=5)
        assert from_dimacs(to_dimacs(g)) == g

    def test_dimacs_requires_problem_line(self):
        with pytest.raises(GraphError):
            from_dimacs("e 1 2\n")

    def test_edge_list_accepts_indented_comments(self):
        text = "  # a note\n3 2\n\t# another\n0 1\n  1 2  \n"
        assert from_edge_list(text) == path_graph(3)

    @pytest.mark.parametrize("text, line", [
        ("3 1\n3 x\n", "3 x"),
        ("3 1\n0 one\n", "0 one"),
        ("three 1\n0 1\n", "three 1"),
        ("3 1\n0 1 2\n", "0 1 2"),
        ("3 1\n0\n", "0"),
    ])
    def test_edge_list_malformed_line_names_it(self, text, line):
        with pytest.raises(GraphError, match=repr(line)):
            from_edge_list(text)

    def test_edge_list_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            from_edge_list("3 1\n0 3\n")
        with pytest.raises(GraphError):
            from_edge_list("3 1\n0 99999999999999999999\n")
        with pytest.raises(GraphError):
            from_edge_list("99999999999999999999 0\n")

    @pytest.mark.parametrize("text, line", [
        ("p edge 3 1\ne 1\n", "e 1"),
        ("p edge three 1\ne 1 2\n", "p edge three 1"),
        ("p edge 3\n", "p edge 3"),
        ("p edge 3 1\ne 1 x\n", "e 1 x"),
    ])
    def test_dimacs_malformed_line_names_it(self, text, line):
        with pytest.raises(GraphError, match=repr(line)):
            from_dimacs(text)

    def test_dimacs_skips_comments_and_blank_lines(self):
        text = "c made by hand\n\n  p edge 3 2\n  c note\ne 1 2\ne 2 3\n"
        assert from_dimacs(text) == path_graph(3)

    def test_networkx_roundtrip(self):
        networkx = pytest.importorskip("networkx")
        from repro.graphs import from_networkx, to_networkx

        g = grid_graph(3, 3)
        nxg = to_networkx(g)
        assert nxg.number_of_edges() == g.num_edges
        assert from_networkx(nxg) == g


class TestRngPlumbing:
    def test_make_rng_from_int_deterministic(self):
        assert make_rng(42).integers(0, 100) == make_rng(42).integers(0, 100)

    def test_make_rng_passthrough(self):
        rng = make_rng(1)
        assert make_rng(rng) is rng

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(7, 1, 2)
        assert a == derive_seed(7, 1, 2)
        assert a != derive_seed(7, 1, 3)
        assert a != derive_seed(8, 1, 2)

    def test_spawn_rngs_independent(self):
        r1, r2 = spawn_rngs(3, 2)
        assert r1.integers(0, 10**9) != r2.integers(0, 10**9)

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            list(spawn_rngs(3, -1))
