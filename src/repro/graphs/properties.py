"""Structural graph properties used by the labeling schemes and the analysis.

Includes the radius/diameter/degeneracy computations the paper's related-work
discussion refers to, the *square of a graph* (used by the ``O(log Δ)``-bit
baseline labeling), and a handful of recognisers (trees, grids, series-parallel
graphs) needed by the Section 5 one-bit schemes.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph, GraphError
from .traversal import bfs_distances, eccentricities, is_connected

__all__ = [
    "diameter",
    "radius",
    "center",
    "graph_square",
    "graph_power",
    "degeneracy_ordering",
    "degeneracy",
    "is_tree",
    "is_bipartite",
    "source_radius",
    "is_series_parallel",
    "triangle_count",
    "density",
    "average_degree",
]


def diameter(graph: Graph) -> int:
    """Largest hop distance between any two nodes (graph must be connected)."""
    ecc = eccentricities(graph)
    return max(ecc.values(), default=0)


def radius(graph: Graph) -> int:
    """Smallest eccentricity over all nodes (graph must be connected)."""
    ecc = eccentricities(graph)
    return min(ecc.values(), default=0)


def center(graph: Graph) -> List[int]:
    """Nodes whose eccentricity equals the radius (the graph centre)."""
    ecc = eccentricities(graph)
    if not ecc:
        return []
    r = min(ecc.values())
    return sorted(v for v, e in ecc.items() if e == r)


def source_radius(graph: Graph, source: int) -> int:
    """Eccentricity of the source — the paper's ``D`` in ``O(D + log² n)`` bounds."""
    dist = bfs_distances(graph, source)
    if (dist < 0).any():
        raise GraphError("source radius is undefined on a disconnected graph")
    return int(dist.max(initial=0))


def graph_square(graph: Graph) -> Graph:
    """The square ``G²``: nodes adjacent iff their distance in ``G`` is 1 or 2.

    A proper colouring of ``G²`` is the classical way to build collision-free
    TDMA schedules in radio networks, which is exactly the ``O(log Δ)``-bit
    baseline the paper's introduction mentions.
    """
    return graph_power(graph, 2)


def graph_power(graph: Graph, k: int) -> Graph:
    """The k-th power ``G^k``: nodes adjacent iff their distance in ``G`` is in 1..k.

    Each node's k-ball is expanded over the CSR adjacency, so the cost is
    the sum of the balls' sizes rather than n BFS runs over the whole graph.
    """
    if k < 1:
        raise GraphError(f"graph power requires k >= 1, got {k}")
    indptr, indices = (a.tolist() for a in graph.csr())
    edges: List[Tuple[int, int]] = []
    for u in range(graph.n):
        ball = {u}
        frontier = [u]
        for _ in range(k):
            reached = []
            for w in frontier:
                for v in indices[indptr[w] : indptr[w + 1]]:
                    if v not in ball:
                        ball.add(v)
                        reached.append(v)
            frontier = reached
        edges.extend((u, v) for v in ball if v > u)
    return Graph.from_edges(graph.n, edges)


def degeneracy_ordering(graph: Graph) -> List[int]:
    """Smallest-last (degeneracy) ordering of the nodes.

    Repeatedly removes a remaining node of minimum remaining degree, ties
    broken by the smaller id; the reverse of the removal order is returned,
    which is the order greedy colouring should use to achieve a
    ``degeneracy+1`` colouring.  A heap holds ``(degree, id)`` entries; an
    entry whose node was removed or whose degree has since dropped is stale
    and skipped, since every drop pushes the node's current entry.
    """
    indptr, indices = (a.tolist() for a in graph.csr())
    degrees = graph.degrees().tolist()
    heap = [(d, u) for u, d in enumerate(degrees)]
    heapq.heapify(heap)
    removed = [False] * graph.n
    removal: List[int] = []
    while heap:
        d, u = heapq.heappop(heap)
        if removed[u] or d != degrees[u]:
            continue
        removed[u] = True
        removal.append(u)
        for v in indices[indptr[u] : indptr[u + 1]]:
            if not removed[v]:
                degrees[v] -= 1
                heapq.heappush(heap, (degrees[v], v))
    removal.reverse()
    return removal


def degeneracy(graph: Graph) -> int:
    """The degeneracy (smallest d such that every subgraph has a node of degree ≤ d)."""
    degrees = {u: graph.degree(u) for u in range(graph.n)}
    remaining = set(range(graph.n))
    adj = {u: set(graph.neighbors(u)) for u in range(graph.n)}
    best = 0
    while remaining:
        u = min(remaining, key=lambda x: (degrees[x], x))
        best = max(best, degrees[u])
        remaining.discard(u)
        for v in adj[u]:
            if v in remaining:
                degrees[v] -= 1
            adj[v].discard(u)
    return best


def is_tree(graph: Graph) -> bool:
    """A connected graph with exactly n-1 edges."""
    return graph.n > 0 and graph.num_edges == graph.n - 1 and is_connected(graph)


def is_bipartite(graph: Graph) -> bool:
    """Two-colourability check via BFS."""
    colour = np.full(graph.n, -1, dtype=np.int8)
    for start in range(graph.n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in graph.neighbors_array(u):
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    stack.append(int(v))
                elif colour[v] == colour[u]:
                    return False
    return True


def is_series_parallel(graph: Graph) -> bool:
    """Recogniser for (connected) series-parallel graphs.

    Uses the classical reduction characterisation: a connected graph is
    series-parallel iff it can be reduced to a single edge by repeatedly

    * removing parallel edges (never present here — the graph is simple, but
      reductions can create them, so we track multiplicities), and
    * contracting degree-2 vertices (series reduction).

    Equivalent characterisation: no K4 minor.  Trees and cycles are accepted
    (a tree reduces edge-by-edge via leaves, handled below).
    """
    if graph.n == 0:
        return True
    if not is_connected(graph):
        return False
    # Multigraph adjacency with edge multiplicities.
    mult: Dict[Tuple[int, int], int] = {}
    adj: Dict[int, set] = {u: set() for u in range(graph.n)}
    for u, v in graph.edge_set:
        mult[(u, v)] = 1
        adj[u].add(v)
        adj[v].add(u)

    def _key(a: int, b: int) -> Tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def _remove_edge(a: int, b: int) -> None:
        k = _key(a, b)
        mult[k] -= 1
        if mult[k] == 0:
            del mult[k]
            adj[a].discard(b)
            adj[b].discard(a)

    def _add_edge(a: int, b: int) -> None:
        k = _key(a, b)
        mult[k] = mult.get(k, 0) + 1
        adj[a].add(b)
        adj[b].add(a)

    alive = set(range(graph.n))
    changed = True
    while changed:
        changed = False
        # Parallel reduction: collapse multiplicities to 1.
        for k in list(mult):
            if mult[k] > 1:
                mult[k] = 1
                changed = True
        # Degree-1 removal (handles tree parts) and series reduction of degree-2 nodes.
        for u in list(alive):
            deg = sum(mult[_key(u, v)] for v in adj[u])
            if deg == 0 and len(alive) > 1:
                alive.discard(u)
                changed = True
            elif deg == 1:
                (v,) = tuple(adj[u])
                _remove_edge(u, v)
                alive.discard(u)
                changed = True
            elif deg == 2 and len(adj[u]) == 2:
                v, w = tuple(adj[u])
                _remove_edge(u, v)
                _remove_edge(u, w)
                _add_edge(v, w)
                alive.discard(u)
                changed = True
    # Series-parallel iff what remains is at most one edge between two nodes.
    return len(alive) <= 2 and len(mult) <= 1


def triangle_count(graph: Graph) -> int:
    """Number of triangles in the graph."""
    count = 0
    for u, v in graph.edge_set:
        count += len(graph.neighbors(u) & graph.neighbors(v))
    return count // 3


def density(graph: Graph) -> float:
    """Edge density ``2m / (n(n-1))`` (0 for graphs with < 2 nodes)."""
    if graph.n < 2:
        return 0.0
    return 2.0 * graph.num_edges / (graph.n * (graph.n - 1))


def average_degree(graph: Graph) -> float:
    """Mean node degree (0 for the empty graph)."""
    if graph.n == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.n
