"""Unit tests for structural graph properties (diameter, square, degeneracy, ...)."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.baselines.coloring_tdma import coloring_tdma_labels
from repro.graphs import (
    Graph,
    bfs_distances,
    generate_family,
    average_degree,
    center,
    complete_graph,
    cycle_graph,
    degeneracy,
    degeneracy_ordering,
    density,
    diameter,
    graph_power,
    graph_square,
    greedy_coloring,
    grid_graph,
    is_bipartite,
    is_series_parallel,
    is_tree,
    path_graph,
    radius,
    random_tree,
    source_radius,
    star_graph,
    triangle_count,
    wheel_graph,
)
from repro.graphs.graph import GraphError


class TestDiameterRadiusCenter:
    def test_path(self):
        g = path_graph(7)
        assert diameter(g) == 6
        assert radius(g) == 3
        assert center(g) == [3]

    def test_cycle(self):
        g = cycle_graph(8)
        assert diameter(g) == 4
        assert radius(g) == 4

    def test_star(self):
        g = star_graph(10)
        assert diameter(g) == 2
        assert radius(g) == 1
        assert center(g) == [0]

    def test_complete(self):
        assert diameter(complete_graph(5)) == 1

    def test_source_radius(self):
        g = path_graph(6)
        assert source_radius(g, 0) == 5
        assert source_radius(g, 3) == 3

    def test_source_radius_disconnected_raises(self):
        with pytest.raises(GraphError):
            source_radius(Graph.from_edges(3, [(0, 1)]), 0)


class TestGraphPowers:
    def test_square_of_path(self):
        g2 = graph_square(path_graph(5))
        assert g2.has_edge(0, 2)
        assert not g2.has_edge(0, 3)
        assert g2.num_edges == 4 + 3

    def test_square_of_star_is_complete(self):
        g2 = graph_square(star_graph(6))
        assert g2.num_edges == 15

    def test_cube_of_path(self):
        g3 = graph_power(path_graph(6), 3)
        assert g3.has_edge(0, 3)
        assert not g3.has_edge(0, 4)

    def test_power_requires_positive_k(self):
        with pytest.raises(GraphError):
            graph_power(path_graph(3), 0)


def _graph_power_oracle(graph: Graph, k: int) -> Graph:
    """A full BFS from every node, then a scan of every node pair."""
    edges: List[Tuple[int, int]] = []
    for u in range(graph.n):
        dist = bfs_distances(graph, u)
        for v in range(u + 1, graph.n):
            if 0 < dist[v] <= k:
                edges.append((u, v))
    return Graph.from_edges(graph.n, edges)


def _degeneracy_ordering_oracle(graph: Graph) -> List[int]:
    """A ``min`` over the remaining nodes at every removal step."""
    degrees = {u: graph.degree(u) for u in range(graph.n)}
    remaining = set(range(graph.n))
    removal: List[int] = []
    adj = {u: set(graph.neighbors(u)) for u in range(graph.n)}
    while remaining:
        u = min(remaining, key=lambda x: (degrees[x], x))
        removal.append(u)
        remaining.discard(u)
        for v in adj[u]:
            if v in remaining:
                degrees[v] -= 1
            adj[v].discard(u)
    removal.reverse()
    return removal


ORACLE_FAMILIES = ["path", "cycle", "star", "grid", "gnp_sparse", "geometric"]


class TestAgainstQuadraticOracles:
    """The ball-expansion power and the heap ordering against the quadratic
    implementations they replaced, kept here as the reference."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_graph_power_matches_oracle(self, family, k):
        for seed in range(3):
            graph = generate_family(family, 40, seed)
            assert graph_power(graph, k).edge_set == \
                _graph_power_oracle(graph, k).edge_set

    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_degeneracy_ordering_matches_oracle(self, family):
        for seed in range(3):
            graph = generate_family(family, 60, seed)
            assert degeneracy_ordering(graph) == _degeneracy_ordering_oracle(graph)
            square = graph_square(graph)
            assert degeneracy_ordering(square) == _degeneracy_ordering_oracle(square)

    def test_ordering_handles_isolated_nodes(self):
        graph = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (4, 5)])
        assert degeneracy_ordering(graph) == _degeneracy_ordering_oracle(graph)

    def test_tdma_labels_match_the_oracle_colouring(self):
        graph = generate_family("geometric", 120, 4)
        square = _graph_power_oracle(graph, 2)
        colours = greedy_coloring(square, _degeneracy_ordering_oracle(square))
        labels, num_colours = coloring_tdma_labels(graph)
        assert num_colours == max(colours.values()) + 1
        width = len(labels[0]) // 2
        assert {v: int(lab[:width], 2) for v, lab in labels.items()} == colours


class TestDegeneracy:
    def test_tree_degeneracy_is_one(self):
        assert degeneracy(random_tree(20, seed=1)) == 1

    def test_cycle_degeneracy_is_two(self):
        assert degeneracy(cycle_graph(9)) == 2

    def test_complete_degeneracy(self):
        assert degeneracy(complete_graph(6)) == 5

    def test_ordering_is_permutation(self):
        g = grid_graph(3, 4)
        order = degeneracy_ordering(g)
        assert sorted(order) == list(range(12))


class TestRecognisers:
    def test_is_tree(self):
        assert is_tree(path_graph(5))
        assert is_tree(star_graph(8))
        assert not is_tree(cycle_graph(5))
        assert not is_tree(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_is_bipartite(self):
        assert is_bipartite(path_graph(6))
        assert is_bipartite(cycle_graph(8))
        assert not is_bipartite(cycle_graph(7))
        assert is_bipartite(grid_graph(3, 5))
        assert not is_bipartite(complete_graph(3))

    def test_series_parallel_positive(self):
        assert is_series_parallel(path_graph(6))
        assert is_series_parallel(cycle_graph(5))
        assert is_series_parallel(random_tree(12, seed=0))

    def test_series_parallel_negative(self):
        # K4 is the canonical forbidden minor; the wheel contains it.
        assert not is_series_parallel(complete_graph(4))
        assert not is_series_parallel(wheel_graph(6))
        assert not is_series_parallel(grid_graph(3, 3))

    def test_series_parallel_disconnected(self):
        assert not is_series_parallel(Graph.from_edges(4, [(0, 1), (2, 3)]))


class TestCountsAndDensities:
    def test_triangle_count(self):
        assert triangle_count(complete_graph(4)) == 4
        assert triangle_count(path_graph(5)) == 0
        assert triangle_count(wheel_graph(6)) == 5

    def test_density(self):
        assert density(complete_graph(5)) == pytest.approx(1.0)
        assert density(path_graph(2)) == pytest.approx(1.0)
        assert density(Graph.empty(4)) == pytest.approx(0.0)
        assert density(Graph.empty(1)) == 0.0

    def test_average_degree(self):
        assert average_degree(cycle_graph(6)) == pytest.approx(2.0)
        assert average_degree(Graph.empty(0)) == 0.0
