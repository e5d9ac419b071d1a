"""The array-native graph substrate against set-based and list-building oracles.

``Graph`` stores a canonical CSR pair built from edge arrays, and the family
generators emit edge arrays (row-blocked G(n, p) draws, a cell grid for
geometric graphs, arithmetic for the structured families).  The oracles
below are straightforward reference implementations: a constructor that
fills one Python set per node and sorts each row into CSR, and generators
that build Python edge lists (G(n, p) and geometric graphs from one dense
(n, n) draw or comparison).  Every generated graph must equal its oracle in
``(indptr, indices)``, ``edge_set``, ``==`` and ``hash``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import pickle
from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    FAMILIES,
    Graph,
    GraphError,
    generate_family,
    is_connected,
    random_geometric_graph,
    random_gnp_graph,
    random_series_parallel_graph,
)
from repro.graphs import generators
from repro.graphs.random import make_rng


# --------------------------------------------------------------------------- #
# oracle: the set-based constructor
# --------------------------------------------------------------------------- #
class SetGraph:
    """One Python set per node, then each row sorted into CSR."""

    def __init__(self, n: int, edges) -> None:
        normalised = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop {u!r} is not allowed in a simple graph")
            normalised.add((u, v) if u < v else (v, u))
        self.n = n
        self.edge_set = frozenset(normalised)
        adj: List[set] = [set() for _ in range(n)]
        for u, v in self.edge_set:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = adj
        indptr = np.zeros(n + 1, dtype=np.int64)
        for u in range(n):
            indptr[u + 1] = indptr[u] + len(adj[u])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u in range(n):
            indices[indptr[u] : indptr[u + 1]] = sorted(adj[u])
        self.indptr, self.indices = indptr, indices

    def components(self) -> List[List[int]]:
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for u in comp:
                for v in self.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
            out.append(sorted(comp))
        return out


def oracle_connect(g: SetGraph, rng: np.random.Generator) -> SetGraph:
    comps = g.components()
    if len(comps) <= 1:
        return g
    base = list(comps[0])
    extra: List[Tuple[int, int]] = []
    for comp in comps[1:]:
        a = int(rng.choice(base))
        b = int(rng.choice(comp))
        extra.append((a, b))
        base.extend(comp)
    return SetGraph(g.n, list(g.edge_set) + extra)


# --------------------------------------------------------------------------- #
# oracle: the list-building generators
# --------------------------------------------------------------------------- #
def oracle_path(n):
    return SetGraph(n, [(i, i + 1) for i in range(n - 1)])


def oracle_cycle(n):
    return SetGraph(n, [(i, (i + 1) % n) for i in range(n)])


def oracle_star(n):
    return SetGraph(n, [(0, i) for i in range(1, n)])


def oracle_complete(n):
    return SetGraph(n, itertools.combinations(range(n), 2))


def oracle_grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return SetGraph(rows * cols, edges)


def oracle_torus(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            edges.append((u, r * cols + (c + 1) % cols))
            edges.append((u, ((r + 1) % rows) * cols + c))
    return SetGraph(rows * cols, edges)


def oracle_hypercube(dim):
    n = 1 << dim
    return SetGraph(n, [(u, u ^ (1 << b)) for u in range(n) for b in range(dim)
                        if u < (u ^ (1 << b))])


def oracle_binary_tree(n):
    return SetGraph(n, [(i, (i - 1) // 2) for i in range(1, n)])


def oracle_caterpillar(spine, legs_per_node):
    edges = [(i, i + 1) for i in range(spine - 1)]
    next_index = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            edges.append((s, next_index))
            next_index += 1
    return SetGraph(next_index, edges)


def oracle_wheel(n):
    rim = n - 1
    edges = [(0, i) for i in range(1, n)]
    edges += [(1 + i, 1 + (i + 1) % rim) for i in range(rim)]
    return SetGraph(n, edges)


def oracle_ladder(rungs):
    edges = []
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < rungs:
            edges.append((2 * i, 2 * i + 2))
            edges.append((2 * i + 1, 2 * i + 3))
    return SetGraph(2 * rungs, edges)


def oracle_complete_bipartite(a, b):
    return SetGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def oracle_random_tree(n, seed):
    if n <= 2:
        return oracle_path(n)
    rng = make_rng(seed)
    prufer = [int(x) for x in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return SetGraph(n, edges)


def oracle_gnp(n, p, seed, connect=True):
    rng = make_rng(seed)
    mask = rng.random((n, n)) < p
    iu, ju = np.triu_indices(n, k=1)
    sel = mask[iu, ju]
    g = SetGraph(n, list(zip(iu[sel].tolist(), ju[sel].tolist())))
    return oracle_connect(g, rng) if connect else g


def oracle_geometric(n, radius, seed, connect=True):
    rng = make_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    mask = dist2 <= radius * radius
    iu, ju = np.triu_indices(n, k=1)
    sel = mask[iu, ju]
    g = SetGraph(n, list(zip(iu[sel].tolist(), ju[sel].tolist())))
    return oracle_connect(g, rng) if connect else g


def oracle_series_parallel_edges(n, seed):
    """The quadratic generator: node count recomputed from the edge list."""
    rng = make_rng(seed)
    edges = [(0, 1)]
    while len({v for e in edges for v in e}) < n:
        next_index = len({v for e in edges for v in e})
        u, v = edges[int(rng.integers(0, len(edges)))]
        if rng.random() < 0.5:
            edges.remove((u, v))
            edges.append((min(u, next_index), max(u, next_index)))
            edges.append((min(v, next_index), max(v, next_index)))
        else:
            edges.append((min(u, next_index), max(u, next_index)))
            edges.append((min(v, next_index), max(v, next_index)))
    return edges


ORACLE_FAMILIES = {
    "path": lambda n, seed: oracle_path(n),
    "cycle": lambda n, seed: oracle_cycle(max(n, 3)),
    "star": lambda n, seed: oracle_star(n),
    "complete": lambda n, seed: oracle_complete(n),
    "grid": lambda n, seed: oracle_grid(max(2, math.isqrt(n)),
                                        max(2, n // max(2, math.isqrt(n)))),
    "binary_tree": lambda n, seed: oracle_binary_tree(n),
    "random_tree": oracle_random_tree,
    "gnp_sparse": lambda n, seed: oracle_gnp(
        n, min(1.0, 2.0 * math.log(max(n, 2)) / max(n, 2)), seed),
    "gnp_dense": lambda n, seed: oracle_gnp(n, 0.3, seed),
    "geometric": lambda n, seed: oracle_geometric(
        n, min(1.0, 1.6 * math.sqrt(math.log(max(n, 2)) / max(n, 2))), seed),
    "series_parallel": lambda n, seed: SetGraph(
        max(n, 2), oracle_series_parallel_edges(max(n, 2), seed)),
    "caterpillar": lambda n, seed: oracle_caterpillar(
        max(1, n // 3), max(0, (n - max(1, n // 3)) // max(1, n // 3))),
    "hypercube": lambda n, seed: oracle_hypercube(max(1, int(round(math.log2(max(n, 2)))))),
}


def assert_matches(graph: Graph, oracle: SetGraph) -> None:
    indptr, indices = graph.csr()
    assert graph.n == oracle.n
    assert indptr.dtype == indices.dtype == np.int64
    assert np.array_equal(indptr, oracle.indptr)
    assert np.array_equal(indices, oracle.indices)
    assert graph.edge_set == oracle.edge_set
    from_set = Graph(oracle.n, oracle.edge_set)
    assert graph == from_set and hash(graph) == hash(from_set)
    assert graph.neighbor_sets() == tuple(frozenset(s) for s in oracle.adj)


# --------------------------------------------------------------------------- #
# generated graphs equal their oracles
# --------------------------------------------------------------------------- #
def test_oracle_covers_every_family():
    assert set(ORACLE_FAMILIES) == set(FAMILIES)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_matches_oracle(family):
    for n in (1, 2, 3, 5, 16, 64, 257):
        for seed in range(4):
            assert_matches(generate_family(family, n, seed),
                           ORACLE_FAMILIES[family](n, seed))


@pytest.mark.parametrize("name, build, oracle", [
    ("torus", lambda: generators.torus_graph(4, 7), lambda: oracle_torus(4, 7)),
    ("wheel", lambda: generators.wheel_graph(9), lambda: oracle_wheel(9)),
    ("ladder", lambda: generators.ladder_graph(6), lambda: oracle_ladder(6)),
    ("ladder_1", lambda: generators.ladder_graph(1), lambda: oracle_ladder(1)),
    ("bipartite", lambda: generators.complete_bipartite_graph(3, 5),
     lambda: oracle_complete_bipartite(3, 5)),
    ("caterpillar_0", lambda: generators.caterpillar_graph(4, 0),
     lambda: oracle_caterpillar(4, 0)),
    ("hypercube_0", lambda: generators.hypercube_graph(0), lambda: oracle_hypercube(0)),
    ("hypercube_4", lambda: generators.hypercube_graph(4), lambda: oracle_hypercube(4)),
    ("grid_1xk", lambda: generators.grid_graph(1, 6), lambda: oracle_grid(1, 6)),
])
def test_arithmetic_generators_match_oracle(name, build, oracle):
    assert_matches(build(), oracle())


@pytest.mark.parametrize("n", [2, 3, 10, 100, 500])
def test_series_parallel_matches_quadratic_oracle(n):
    for seed in range(5):
        assert_matches(random_series_parallel_graph(n, seed),
                       SetGraph(n, oracle_series_parallel_edges(n, seed)))


class TestConnectivityFixups:
    """Below the connectivity threshold the fix-up must run in the same RNG order."""

    def _run_counting(self, build):
        with mock.patch.object(generators, "_connect_components",
                               wraps=generators._connect_components) as fixup:
            graph = build()
        return graph, fixup.call_count

    def test_gnp_fixup_runs_and_matches_oracle(self):
        for seed in range(4):
            graph, calls = self._run_counting(lambda: random_gnp_graph(60, 0.01, seed))
            assert calls == 1 and is_connected(graph)
            assert not is_connected(random_gnp_graph(60, 0.01, seed, connect=False))
            assert_matches(graph, oracle_gnp(60, 0.01, seed))

    @pytest.mark.parametrize("n, radius", [(80, 0.05), (12, 0.4)])
    def test_geometric_fixup_runs_and_matches_oracle(self, n, radius):
        # radius 0.05 takes the cell grid (19 cells a side), 0.4 the dense
        # comparison (2 cells a side).
        ran = 0
        for seed in range(6):
            graph, calls = self._run_counting(
                lambda: random_geometric_graph(n, radius, seed))
            ran += calls
            assert is_connected(graph)
            assert_matches(graph, oracle_geometric(n, radius, seed))
            assert_matches(random_geometric_graph(n, radius, seed, connect=False),
                           oracle_geometric(n, radius, seed, connect=False))
        assert ran > 0


@pytest.mark.parametrize("n, radius", [(300, 0.1), (500, 0.0721), (64, 0.3333),
                                       (200, 0.25), (100, 1 / 3)])
def test_geometric_cell_grid_matches_dense_comparison(n, radius):
    for seed in range(3):
        assert_matches(random_geometric_graph(n, radius, seed, connect=False),
                       oracle_geometric(n, radius, seed, connect=False))


@pytest.mark.parametrize("n, block_cells", [(50, 150), (50, 1), (37, 100), (64, 4096)])
def test_gnp_row_blocks_reproduce_the_full_draw(n, block_cells):
    # block_cells // n rows per block: 3, 1 (minimum), 2, and all 64 rows.
    with mock.patch.object(generators, "_GNP_BLOCK_CELLS", block_cells):
        for seed in range(3):
            graph = random_gnp_graph(n, 0.1, seed, connect=False)
            assert_matches(graph, oracle_gnp(n, 0.1, seed, connect=False))


# --------------------------------------------------------------------------- #
# the constructor itself
# --------------------------------------------------------------------------- #
EDGE_LISTS = st.integers(min_value=-2, max_value=12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)), max_size=40),
    )
)


@settings(max_examples=150, deadline=None)
@given(case=EDGE_LISTS, names_delta=st.sampled_from([None, 0, 0, 1]))
def test_from_edge_arrays_equals_from_edges(case, names_delta):
    n, edges = case
    names = None if names_delta is None else [f"v{i}" for i in range(n + names_delta)]
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    try:
        expected = Graph.from_edges(n, edges, names=names)
    except GraphError as exc:
        with pytest.raises(GraphError) as info:
            Graph.from_edge_arrays(n, u, v, names=names)
        assert str(info.value) == str(exc)
        return
    graph = Graph.from_edge_arrays(n, u, v, names=names)
    assert graph == expected and hash(graph) == hash(expected)
    assert graph.names == expected.names
    assert_matches(graph, SetGraph(n, edges))


@pytest.mark.parametrize("n, u, v, names", [
    (-1, [], [], None),
    (3, [1], [1], None),
    (3, [0], [3], None),
    (3, [-1], [0], None),
    (3, [0], [1], ["a", "b"]),
])
def test_from_edge_arrays_and_from_edges_raise_the_same_error(n, u, v, names):
    with pytest.raises(GraphError) as arrays:
        Graph.from_edge_arrays(n, u, v, names=names)
    with pytest.raises(GraphError) as pairs:
        Graph.from_edges(n, list(zip(u, v)), names=names)
    assert str(arrays.value) == str(pairs.value)


def test_node_count_beyond_the_int64_edge_keys_rejected():
    # row * n + column must fit in int64; the check fires before any allocation.
    with pytest.raises(GraphError, match="exceeds"):
        Graph.from_edge_arrays(3_037_000_500, [], [])
    assert Graph.from_edge_arrays(3, [0], [2]).csr()[1].tolist() == [2, 0]


def test_non_integer_edges_rejected():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1.5)])
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 1, 2)])
    with pytest.raises(GraphError):
        Graph.from_edge_arrays(3, np.array([0.0]), np.array([1.0]))
    assert Graph.from_edges(3, []) == Graph.empty(3)


def test_pickle_round_trip_keeps_graph_and_names():
    graph = generate_family("geometric", 200, 3)
    graph.neighbor_sets()  # cached views must not leak into the pickle
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph and hash(clone) == hash(graph)
    assert_matches(clone, SetGraph(graph.n, graph.edge_set))
    named = Graph.from_edges(3, [(0, 1)], names=["a", "b", "c"])
    assert pickle.loads(pickle.dumps(named)).names == ("a", "b", "c")


def test_graph_is_immutable_and_csr_read_only():
    graph = generate_family("grid", 16, 0)
    with pytest.raises(AttributeError):
        graph.n = 5
    indptr, indices = graph.csr()
    with pytest.raises(ValueError):
        indices[0] = 3
    with pytest.raises(ValueError):
        indptr[0] = 1


def test_names_stay_out_of_equality():
    a = Graph.from_edges(2, [(0, 1)], names=["x", "y"])
    b = Graph.from_edges(2, [(1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph.from_edges(3, [(0, 1)])
