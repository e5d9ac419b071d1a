"""Graph traversal primitives: BFS layers, shortest paths, connectivity.

These are the building blocks for both the labeling schemes (which reason
about the distance structure from the source) and the analysis code (diameter,
radius, eccentricities).  Everything is deterministic: ties are always broken
by node index so repeated runs produce identical results.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .graph import Graph, GraphError

__all__ = [
    "bfs_distances",
    "bfs_layers",
    "bfs_tree",
    "connected_components",
    "is_connected",
    "shortest_path",
    "all_pairs_distances",
    "eccentricities",
]


def bfs_distances(graph: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every node.

    Unreachable nodes get distance ``-1``.

    Parameters
    ----------
    graph:
        The graph to traverse.
    source:
        Start node.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(n,)``.
    """
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    # Walk the CSR as Python ints: indexing NumPy scalars per edge costs
    # several times more than the traversal itself.
    indptr, indices = (a.tolist() for a in graph.csr())
    source = int(source)
    dist = [-1] * graph.n
    dist[source] = 0
    queue = [source]
    for u in queue:  # the list grows behind the cursor: a FIFO queue
        du = dist[u] + 1
        for v in indices[indptr[u] : indptr[u + 1]]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    return np.array(dist, dtype=np.int64)


def bfs_layers(graph: Graph, source: int) -> List[List[int]]:
    """Partition reachable nodes into BFS layers ``L0={source}, L1, ...``.

    Each layer is sorted by node index.  Unreachable nodes are omitted.
    """
    dist = bfs_distances(graph, source)
    if graph.n == 0:
        return []
    max_d = int(dist.max(initial=0))
    layers: List[List[int]] = [[] for _ in range(max_d + 1)]
    for v in range(graph.n):
        d = int(dist[v])
        if d >= 0:
            layers[d].append(v)
    return layers


def bfs_tree(graph: Graph, source: int) -> Dict[int, Optional[int]]:
    """BFS parent pointers: ``parent[v]`` is v's parent, ``None`` for the source.

    Unreachable nodes are absent from the mapping.  Parents are chosen as the
    smallest-index neighbour in the previous layer, so the tree is canonical.
    """
    dist = bfs_distances(graph, source)
    parent: Dict[int, Optional[int]] = {source: None}
    for v in range(graph.n):
        d = int(dist[v])
        if d <= 0:
            continue
        candidates = [int(u) for u in graph.neighbors_array(v) if dist[u] == d - 1]
        parent[v] = min(candidates)
    return parent


def shortest_path(graph: Graph, source: int, target: int) -> Optional[List[int]]:
    """A shortest path from ``source`` to ``target``, or ``None`` if disconnected.

    The path is the canonical one induced by :func:`bfs_tree` parent pointers.
    """
    if target not in graph:
        raise GraphError(f"target {target} is not a node of {graph!r}")
    dist = bfs_distances(graph, source)
    if dist[target] < 0:
        return None
    parent = bfs_tree(graph, source)
    path = [target]
    while path[-1] != source:
        nxt = parent[path[-1]]
        assert nxt is not None
        path.append(nxt)
    path.reverse()
    return path


def connected_components(graph: Graph) -> List[List[int]]:
    """List of connected components, each a sorted list of node indices.

    Components are ordered by their smallest node.
    """
    indptr, indices = (a.tolist() for a in graph.csr())
    seen = [False] * graph.n
    components: List[List[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for u in comp:  # grows behind the cursor: a BFS queue
            for v in indices[indptr[u] : indptr[u + 1]]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        components.append(sorted(comp))
    return components


def is_connected(graph: Graph) -> bool:
    """Return ``True`` if the graph is connected (single-node graphs count)."""
    if graph.n == 0:
        return True
    return int((bfs_distances(graph, 0) >= 0).sum()) == graph.n


def all_pairs_distances(graph: Graph) -> np.ndarray:
    """All-pairs hop distance matrix (``-1`` for unreachable pairs).

    Runs one BFS per node — O(n·(n+m)) — which is fine for the graph sizes we
    benchmark (≤ a few thousand nodes).
    """
    out = np.full((graph.n, graph.n), -1, dtype=np.int64)
    for u in range(graph.n):
        out[u] = bfs_distances(graph, u)
    return out


def eccentricities(graph: Graph, sources: Optional[Sequence[int]] = None) -> Dict[int, int]:
    """Eccentricity of each requested node (max hop distance to any node).

    Raises :class:`GraphError` if the graph is disconnected, because
    eccentricity is then undefined for our purposes.
    """
    if not is_connected(graph):
        raise GraphError("eccentricities are only defined for connected graphs")
    nodes = list(sources) if sources is not None else list(range(graph.n))
    out: Dict[int, int] = {}
    for u in nodes:
        dist = bfs_distances(graph, u)
        out[u] = int(dist.max(initial=0))
    return out
