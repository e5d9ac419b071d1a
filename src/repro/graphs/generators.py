"""Graph family generators.

The benchmark harness sweeps the labeling schemes and baselines over a wide
range of topologies: the structured families that stress the paper's worst
cases (paths and cycles maximise the 2n−3 bound; stars and complete graphs
finish in O(1) stages), the radio-flavoured random families (unit-disk /
random geometric graphs model physical deployments such as the IoT scenario in
the paper's introduction), and the special classes for which Section 5 claims
one-bit schemes (grids, series-parallel graphs).

Every generator returns a connected :class:`~repro.graphs.graph.Graph` (random
families retry or augment until connected) and is deterministic given its seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .graph import Graph, GraphError
from .random import SeedLike, make_rng
from .traversal import connected_components, is_connected

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "complete_bipartite_graph",
    "grid_graph",
    "torus_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "full_kary_tree",
    "caterpillar_graph",
    "spider_graph",
    "wheel_graph",
    "ladder_graph",
    "barbell_graph",
    "lollipop_graph",
    "broom_graph",
    "random_tree",
    "random_gnp_graph",
    "random_regular_graph",
    "random_geometric_graph",
    "random_series_parallel_graph",
    "random_connected_graph",
    "two_level_star",
    "FAMILIES",
    "family_names",
    "generate_family",
]


# --------------------------------------------------------------------------- #
# deterministic structured families
# --------------------------------------------------------------------------- #
def path_graph(n: int) -> Graph:
    """Path P_n: nodes 0-1-2-…-(n-1)."""
    _require_positive(n)
    u = np.arange(n - 1)
    return Graph.from_edge_arrays(n, u, u + 1)


def cycle_graph(n: int) -> Graph:
    """Cycle C_n (requires n ≥ 3)."""
    if n < 3:
        raise GraphError(f"cycle graph needs at least 3 nodes, got {n}")
    u = np.arange(n)
    return Graph.from_edge_arrays(n, u, (u + 1) % n)


def star_graph(n: int) -> Graph:
    """Star with centre 0 and n-1 leaves."""
    _require_positive(n)
    return Graph.from_edge_arrays(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))


def complete_graph(n: int) -> Graph:
    """Complete graph K_n."""
    _require_positive(n)
    return Graph.from_edge_arrays(n, *np.triu_indices(n, k=1))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}; side A is 0..a-1, side B is a..a+b-1."""
    if a < 1 or b < 1:
        raise GraphError("both sides of a complete bipartite graph must be non-empty")
    return Graph.from_edge_arrays(a + b, np.repeat(np.arange(a), b), a + np.tile(np.arange(b), a))


def grid_graph(rows: int, cols: int) -> Graph:
    """rows × cols grid; node (r, c) has index ``r * cols + c``."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    ids = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate((ids[:, :-1].ravel(), ids[:-1, :].ravel()))
    v = np.concatenate((ids[:, 1:].ravel(), ids[1:, :].ravel()))
    return Graph.from_edge_arrays(rows * cols, u, v)


def torus_graph(rows: int, cols: int) -> Graph:
    """rows × cols torus (grid with wraparound); requires both dims ≥ 3."""
    if rows < 3 or cols < 3:
        raise GraphError("torus dimensions must be at least 3 to stay simple")
    ids = np.arange(rows * cols).reshape(rows, cols)
    right, down = np.roll(ids, -1, axis=1), np.roll(ids, -1, axis=0)
    u = np.concatenate((ids.ravel(), ids.ravel()))
    return Graph.from_edge_arrays(rows * cols, u, np.concatenate((right.ravel(), down.ravel())))


def hypercube_graph(dim: int) -> Graph:
    """dim-dimensional hypercube Q_dim on 2^dim nodes."""
    if dim < 0:
        raise GraphError("hypercube dimension must be non-negative")
    n = 1 << dim
    bits = 1 << np.arange(dim)
    # one edge per (node, bit) pair whose bit is clear in the node
    u, b = np.nonzero(np.arange(n)[:, None] & bits == 0)
    return Graph.from_edge_arrays(n, u, u | bits[b])


def binary_tree_graph(n: int) -> Graph:
    """Complete binary tree on n nodes in heap order (node i's children are 2i+1, 2i+2)."""
    _require_positive(n)
    v = np.arange(1, n)
    return Graph.from_edge_arrays(n, (v - 1) // 2, v)


def full_kary_tree(k: int, depth: int) -> Graph:
    """Full k-ary tree of the given depth (depth 0 is a single node)."""
    if k < 1 or depth < 0:
        raise GraphError("k must be ≥ 1 and depth ≥ 0")
    edges: List[Tuple[int, int]] = []
    # breadth-first numbering
    layer = [0]
    next_index = 1
    for _ in range(depth):
        new_layer: List[int] = []
        for parent in layer:
            for _ in range(k):
                edges.append((parent, next_index))
                new_layer.append(next_index)
                next_index += 1
        layer = new_layer
    return Graph.from_edges(next_index, edges)


def caterpillar_graph(spine: int, legs_per_node: int) -> Graph:
    """Caterpillar: a spine path with ``legs_per_node`` pendant leaves per spine node."""
    if spine < 1 or legs_per_node < 0:
        raise GraphError("spine must be ≥ 1, legs_per_node ≥ 0")
    n = spine * (1 + legs_per_node)
    body = np.arange(spine - 1)
    u = np.concatenate((body, np.repeat(np.arange(spine), legs_per_node)))
    v = np.concatenate((body + 1, np.arange(spine, n)))
    return Graph.from_edge_arrays(n, u, v)


def spider_graph(legs: int, leg_length: int) -> Graph:
    """Spider: ``legs`` paths of ``leg_length`` edges glued at a central node 0."""
    if legs < 1 or leg_length < 1:
        raise GraphError("legs and leg_length must be ≥ 1")
    edges: List[Tuple[int, int]] = []
    next_index = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, next_index))
            prev = next_index
            next_index += 1
    return Graph.from_edges(next_index, edges)


def wheel_graph(n: int) -> Graph:
    """Wheel W_n: a cycle on nodes 1..n-1 plus a hub 0 adjacent to all of them (n ≥ 4)."""
    if n < 4:
        raise GraphError(f"wheel graph needs at least 4 nodes, got {n}")
    rim = np.arange(n - 1)
    u = np.concatenate((np.zeros(n - 1, dtype=np.int64), 1 + rim))
    return Graph.from_edge_arrays(n, u, np.concatenate((1 + rim, 1 + (rim + 1) % (n - 1))))


def ladder_graph(rungs: int) -> Graph:
    """Ladder: two paths of length ``rungs`` joined by rungs (2·rungs nodes)."""
    if rungs < 1:
        raise GraphError("ladder needs at least one rung")
    rails = np.arange(2 * rungs - 2)
    u = np.concatenate((np.arange(0, 2 * rungs, 2), rails))
    return Graph.from_edge_arrays(2 * rungs, u, np.concatenate((u[:rungs] + 1, rails + 2)))


def barbell_graph(clique_size: int, path_length: int) -> Graph:
    """Two K_{clique_size} cliques joined by a path with ``path_length`` interior nodes."""
    if clique_size < 2:
        raise GraphError("clique_size must be ≥ 2")
    if path_length < 0:
        raise GraphError("path_length must be ≥ 0")
    k = clique_size
    edges = list(itertools.combinations(range(k), 2))
    offset = k + path_length
    edges += [(offset + a, offset + b) for a, b in itertools.combinations(range(k), 2)]
    chain = [k - 1] + [k + i for i in range(path_length)] + [offset]
    edges += [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
    return Graph.from_edges(2 * k + path_length, edges)


def lollipop_graph(clique_size: int, tail_length: int) -> Graph:
    """K_{clique_size} with a path of ``tail_length`` extra nodes hanging off node 0."""
    if clique_size < 2:
        raise GraphError("clique_size must be ≥ 2")
    if tail_length < 0:
        raise GraphError("tail_length must be ≥ 0")
    edges = list(itertools.combinations(range(clique_size), 2))
    prev = 0
    for i in range(tail_length):
        edges.append((prev, clique_size + i))
        prev = clique_size + i
    return Graph.from_edges(clique_size + tail_length, edges)


def broom_graph(handle_length: int, bristles: int) -> Graph:
    """A path of ``handle_length`` edges whose far end has ``bristles`` pendant leaves."""
    if handle_length < 1 or bristles < 0:
        raise GraphError("handle_length must be ≥ 1, bristles ≥ 0")
    edges = [(i, i + 1) for i in range(handle_length)]
    tip = handle_length
    next_index = handle_length + 1
    for _ in range(bristles):
        edges.append((tip, next_index))
        next_index += 1
    return Graph.from_edges(next_index, edges)


def two_level_star(branch: int, leaves_per_branch: int) -> Graph:
    """A root 0 with ``branch`` children, each with ``leaves_per_branch`` leaves.

    This is the shape that makes greedy dominating-set pruning interesting:
    many frontier nodes share dominators.
    """
    if branch < 1 or leaves_per_branch < 0:
        raise GraphError("branch must be ≥ 1, leaves_per_branch ≥ 0")
    edges: List[Tuple[int, int]] = []
    next_index = 1
    for _ in range(branch):
        b = next_index
        edges.append((0, b))
        next_index += 1
        for _ in range(leaves_per_branch):
            edges.append((b, next_index))
            next_index += 1
    return Graph.from_edges(next_index, edges)


# --------------------------------------------------------------------------- #
# random families
# --------------------------------------------------------------------------- #
def random_tree(n: int, seed: SeedLike = None) -> Graph:
    """Uniform random labelled tree via a random Prüfer sequence."""
    _require_positive(n)
    if n <= 2:
        return path_graph(n)
    rng = make_rng(seed)
    prufer = [int(x) for x in rng.integers(0, n, size=n - 2)]
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges: List[Tuple[int, int]] = []
    for x in prufer:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def random_gnp_graph(n: int, p: float, seed: SeedLike = None, *, connect: bool = True) -> Graph:
    """Erdős–Rényi G(n, p); if ``connect`` is true, extra edges join components.

    The connecting edges link each component (beyond the first) to a uniformly
    random node of the running giant, which perturbs the distribution only when
    p is below the connectivity threshold.
    """
    _require_positive(n)
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = make_rng(seed)
    # The coin of pair (i, j), i < j, is entry (i, j) of one (n, n) uniform
    # draw.  Drawing it in blocks of whole rows consumes the stream in the
    # same order, so the edges are the same in O(n · block) memory.
    block = max(1, _GNP_BLOCK_CELLS // n)
    us, vs = [], []
    for start in range(0, n, block):
        rows, cols = np.nonzero(rng.random((min(block, n - start), n)) < p)
        rows += start
        upper = cols > rows
        us.append(rows[upper])
        vs.append(cols[upper])
    g = Graph.from_edge_arrays(n, np.concatenate(us), np.concatenate(vs))
    if connect and not is_connected(g):
        g = _connect_components(g, rng)
    return g


def random_regular_graph(n: int, d: int, seed: SeedLike = None, *, max_tries: int = 200) -> Graph:
    """Random d-regular graph via the pairing model with rejection.

    Requires ``n*d`` even and ``d < n``.  Retries until the pairing yields a
    simple connected graph (practically instant for the sizes we use).
    """
    _require_positive(n)
    if d < 0 or d >= n:
        raise GraphError(f"degree d must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular graph to exist")
    if d == 0:
        if n == 1:
            return Graph.empty(1)
        raise GraphError("a 0-regular graph on more than one node is disconnected")
    rng = make_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_tries):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        edges = set()
        ok = True
        for a, b in pairs:
            a, b = int(a), int(b)
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if not ok:
            continue
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g
    raise GraphError(f"failed to sample a connected simple {d}-regular graph on {n} nodes")


def random_geometric_graph(
    n: int,
    radius: float,
    seed: SeedLike = None,
    *,
    connect: bool = True,
) -> Graph:
    """Random geometric (unit-disk) graph on the unit square.

    Nodes are uniform points; an edge joins two nodes iff their Euclidean
    distance is at most ``radius``.  This is the standard model of physical
    radio deployments (the paper's IoT motivation), so it features heavily in
    the benchmark sweeps.
    """
    _require_positive(n)
    if radius <= 0:
        raise GraphError(f"radius must be positive, got {radius}")
    rng = make_rng(seed)
    pts = rng.random((n, 2))
    # With cells of side 1 / cells >= radius, every edge joins points of the
    # same or of adjacent cells.  The slack keeps that so when 1 / radius is
    # (nearly) a whole number and x * cells rounds across a cell boundary.
    cells = max(1, int(1.0 / (radius * (1.0 + 1e-9))))
    if cells < _GEOMETRIC_MIN_CELLS:
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        u, v = np.nonzero(np.triu(dist2 <= radius * radius, k=1))
    else:
        u, v = _cell_pairs(pts, cells)
        diff = pts[u] - pts[v]
        near = np.einsum("ij,ij->i", diff, diff) <= radius * radius
        u, v = u[near], v[near]
    g = Graph.from_edge_arrays(n, u, v)
    if connect and not is_connected(g):
        g = _connect_components(g, rng)
    return g


def _cell_pairs(pts: np.ndarray, cells: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair of points in the same cell or in adjacent cells, once each.

    The unit square is cut into ``cells × cells`` cells.  Each point is
    paired with the later points of its own cell and with every point of
    four of its eight neighbouring cells (right, and the three above), so
    each pair of cells is visited from one side only.
    """
    cx, cy = (np.minimum((pts[:, k] * cells).astype(np.int64), cells - 1) for k in (0, 1))
    cell_of = cx * cells + cy
    order = np.argsort(cell_of, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(cell_of, minlength=cells * cells))))
    cx, cy = cx[order], cy[order]
    rank = np.arange(order.size) - starts[cell_of[order]]
    us, vs = [], []
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        nx, ny = cx + dx, cy + dy
        valid = (nx < cells) & (ny >= 0) & (ny < cells)
        cell = np.where(valid, nx * cells + ny, 0)
        # Within a cell only the points after this one; across cells all.
        first = starts[cell] + (rank + 1 if dx == dy == 0 else 0)
        take = np.where(valid, starts[cell + 1] - first, 0)
        left = np.repeat(np.arange(order.size), take)
        right = np.arange(left.size) - np.repeat(np.cumsum(take) - take, take)
        us.append(order[left])
        vs.append(order[np.repeat(first, take) + right])
    return np.concatenate(us), np.concatenate(vs)


def random_series_parallel_graph(n: int, seed: SeedLike = None) -> Graph:
    """Random two-terminal series-parallel graph on exactly ``n ≥ 2`` nodes.

    Built by repeatedly applying *series* (subdivide an edge with a new node)
    and *parallel-ish* (attach a new node adjacent to both endpoints of an
    existing edge) expansions starting from a single edge.  Both operations
    preserve series-parallelness (no K4 minor is ever created) and keep the
    graph simple and connected.
    """
    if n < 2:
        raise GraphError("a series-parallel graph needs at least 2 nodes")
    rng = make_rng(seed)
    edges: List[Tuple[int, int]] = [(0, 1)]
    # Each expansion adds exactly one node, and every edge it adds touches
    # that new node, so the edge list never holds a duplicate.
    for w in range(2, n):
        picked = int(rng.integers(0, len(edges)))
        u, v = edges[picked]
        if rng.random() < 0.5:
            # series expansion: replace edge (u,v) by (u,w),(w,v)
            del edges[picked]
        # either way w joins both endpoints (attached across the edge when
        # the edge stays)
        edges.append((u, w))
        edges.append((v, w))
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, extra_edge_prob: float = 0.1, seed: SeedLike = None) -> Graph:
    """A random tree plus each non-tree edge independently with the given probability.

    A cheap way to get connected graphs of controllable density for
    property-based tests.
    """
    _require_positive(n)
    rng = make_rng(seed)
    tree = random_tree(n, rng)
    if n < 3 or extra_edge_prob <= 0:
        return tree
    extra: List[Tuple[int, int]] = []
    for u in range(n):
        for v in range(u + 1, n):
            if not tree.has_edge(u, v) and rng.random() < extra_edge_prob:
                extra.append((u, v))
    return tree.add_edges(extra)


def _connect_components(g: Graph, rng: np.random.Generator) -> Graph:
    """Join all components of ``g`` by adding one random edge per extra component."""
    comps = connected_components(g)
    if len(comps) <= 1:
        return g
    base = list(comps[0])
    extra: List[Tuple[int, int]] = []
    for comp in comps[1:]:
        a = int(rng.choice(base))
        b = int(rng.choice(comp))
        extra.append((a, b))
        base.extend(comp)
    return g.add_edges(extra)


#: Uniform draws per row block of :func:`random_gnp_graph`.
_GNP_BLOCK_CELLS = 1 << 20

#: Below this many cells per side :func:`random_geometric_graph` compares all
#: (n, n) pairs densely: with one or two cells per side the cell grid visits
#: most pairs anyway and pays more for its index arithmetic.
_GEOMETRIC_MIN_CELLS = 3


def _require_positive(n: int) -> None:
    if n < 1:
        raise GraphError(f"graph must have at least one node, got n={n}")


# --------------------------------------------------------------------------- #
# family registry (drives the benchmark sweeps)
# --------------------------------------------------------------------------- #
def _family_path(n: int, seed: int) -> Graph:
    return path_graph(n)


def _family_cycle(n: int, seed: int) -> Graph:
    return cycle_graph(max(n, 3))


def _family_star(n: int, seed: int) -> Graph:
    return star_graph(n)


def _family_complete(n: int, seed: int) -> Graph:
    return complete_graph(n)


def _family_grid(n: int, seed: int) -> Graph:
    side = max(2, int(math.isqrt(n)))
    return grid_graph(side, max(2, n // side))


def _family_binary_tree(n: int, seed: int) -> Graph:
    return binary_tree_graph(n)


def _family_random_tree(n: int, seed: int) -> Graph:
    return random_tree(n, seed)


def _family_gnp_sparse(n: int, seed: int) -> Graph:
    p = min(1.0, 2.0 * math.log(max(n, 2)) / max(n, 2))
    return random_gnp_graph(n, p, seed)


def _family_gnp_dense(n: int, seed: int) -> Graph:
    return random_gnp_graph(n, 0.3, seed)


def _family_geometric(n: int, seed: int) -> Graph:
    r = min(1.0, 1.6 * math.sqrt(math.log(max(n, 2)) / max(n, 2)))
    return random_geometric_graph(n, r, seed)


def _family_series_parallel(n: int, seed: int) -> Graph:
    return random_series_parallel_graph(max(n, 2), seed)


def _family_caterpillar(n: int, seed: int) -> Graph:
    spine = max(1, n // 3)
    legs = max(0, (n - spine) // spine)
    return caterpillar_graph(spine, legs)


def _family_hypercube(n: int, seed: int) -> Graph:
    dim = max(1, int(round(math.log2(max(n, 2)))))
    return hypercube_graph(dim)


#: Registry of named graph families.  Each entry maps a family name to a
#: callable ``(n, seed) -> Graph`` producing a connected graph of roughly n
#: nodes (some families round n to the nearest feasible size).
FAMILIES: Dict[str, Callable[[int, int], Graph]] = {
    "path": _family_path,
    "cycle": _family_cycle,
    "star": _family_star,
    "complete": _family_complete,
    "grid": _family_grid,
    "binary_tree": _family_binary_tree,
    "random_tree": _family_random_tree,
    "gnp_sparse": _family_gnp_sparse,
    "gnp_dense": _family_gnp_dense,
    "geometric": _family_geometric,
    "series_parallel": _family_series_parallel,
    "caterpillar": _family_caterpillar,
    "hypercube": _family_hypercube,
}


def family_names() -> List[str]:
    """Sorted list of registered family names."""
    return sorted(FAMILIES)


def generate_family(name: str, n: int, seed: int = 0) -> Graph:
    """Generate a member of the named family with roughly ``n`` nodes."""
    try:
        factory = FAMILIES[name]
    except KeyError:
        raise GraphError(f"unknown graph family {name!r}; known: {family_names()}") from None
    return factory(n, seed)
