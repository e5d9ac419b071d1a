"""Immutable simple undirected graph used throughout the reproduction.

The paper models a radio network as a simple undirected connected graph.  The
:class:`Graph` class below is the single substrate every other subsystem
(labeling schemes, round simulator, baselines, benchmarks) builds on.  It is
deliberately small, immutable after construction, and cheap to query:

* nodes are integers ``0..n-1`` (a separate :attr:`Graph.names` mapping keeps
  arbitrary user-facing identifiers when graphs are read from files);
* adjacency is stored once, as a canonical CSR pair of NumPy arrays (each
  node's neighbours sorted ascending), which the simulator hot loop and the
  traversals read directly; every constructor builds it from edge arrays
  through :meth:`Graph.from_edge_arrays`;
* the set views — :attr:`Graph.edge_set` and the neighbour frozensets the
  sequence construction of Section 2.1 queries — are derived from the CSR on
  first use and cached;
* hashing/equality are structural so graphs can be deduplicated in sweeps.

The class intentionally does not support mutation: the labeling schemes of the
paper are functions of a *fixed* topology, and an immutable graph keeps every
experiment deterministic and side-effect free.  Use :class:`GraphBuilder` to
assemble a graph incrementally.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Edge", "Graph", "GraphBuilder", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid graph constructions or queries."""


Edge = Tuple[int, int]

#: Largest node count whose edge keys ``row * n + column`` fit in int64.
_MAX_NODES = 3_037_000_499


def _normalise_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) representation of an undirected edge."""
    if u == v:
        raise GraphError(f"self-loop {u!r} is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


def _edge_columns(edges: Iterable[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Split an iterable of ``(u, v)`` pairs into two endpoint arrays."""
    pairs = np.array(list(edges))
    if pairs.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    return pairs[:, 0], pairs[:, 1]


def _endpoints(values: Sequence[int]) -> np.ndarray:
    """One endpoint array as flat int64, refusing non-integer node indices."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise GraphError(f"edge endpoints must be integer node indices, got {arr.dtype}")
    return arr.astype(np.int64, copy=False).ravel()


def _canonical_csr(n: int, u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Validate int64 edge endpoint arrays and build the canonical CSR pair.

    Both orientations of every edge become one key ``row * n + column``; one
    sort orders the keys by row, then by neighbour, and a compare of
    neighbouring keys drops duplicate edges (deliberately not ``np.unique``,
    whose first call imports ``numpy.ma``).
    """
    if u.shape != v.shape:
        raise GraphError(f"edge arrays differ in length: {u.size} and {v.size}")
    if u.size:
        outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if outside.any():
            i = int(np.flatnonzero(outside)[0])
            raise GraphError(
                f"edge ({u[i]}, {v[i]}) references a node outside 0..{n - 1}")
        loops = u == v
        if loops.any():
            raise GraphError(
                f"self-loop at node {u[np.flatnonzero(loops)[0]]} is not allowed")
    keys = np.concatenate((u * n + v, v * n + u))
    keys.sort()
    if keys.size > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr.astype(np.int64, copy=False), keys % max(n, 1)


class Graph:
    """A simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Must be non-negative.
    edge_set:
        Iterable of ``(u, v)`` pairs with ``0 <= u, v < n`` and ``u != v``.
        Duplicate edges (in either orientation) are collapsed.
    names:
        Optional mapping from node index to an external name (used by the
        I/O helpers); purely cosmetic.

    Examples
    --------
    >>> g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    >>> g.degree(0)
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("n", "names", "_indptr", "_indices", "_edge_set", "_adj", "_hash")

    n: int
    names: Optional[Tuple[str, ...]]

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __init__(
        self,
        n: int,
        edge_set: Iterable[Tuple[int, int]],
        names: Optional[Sequence[str]] = None,
    ) -> None:
        self._assign(n, *_edge_columns(edge_set), names)

    def _assign(self, n: int, u, v, names: Optional[Sequence[str]]) -> None:
        """Validate and store the canonical CSR of ``n`` nodes and edges ``(u, v)``."""
        if n < 0:
            raise GraphError(f"node count must be non-negative, got {n}")
        if n > _MAX_NODES:
            raise GraphError(f"node count {n} exceeds the supported {_MAX_NODES}")
        if names is not None and len(names) != n:
            raise GraphError(
                f"names has {len(names)} entries but the graph has {n} nodes"
            )
        indptr, indices = _canonical_csr(n, _endpoints(u), _endpoints(v))
        indptr.flags.writeable = False
        indices.flags.writeable = False
        set_ = object.__setattr__
        set_(self, "n", int(n))
        set_(self, "names", tuple(names) if names is not None else None)
        set_(self, "_indptr", indptr)
        set_(self, "_indices", indices)
        set_(self, "_edge_set", None)
        set_(self, "_adj", None)
        set_(self, "_hash", None)

    @classmethod
    def from_edge_arrays(
        cls,
        n: int,
        u: Sequence[int],
        v: Sequence[int],
        names: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph from two endpoint arrays: edge ``i`` joins ``u[i]`` and ``v[i]``.

        Every constructor routes through this one.  Edges may come in either
        orientation and repeat; they are canonicalised and deduplicated.
        Raises :class:`GraphError` for a negative ``n``, a ``names`` of the
        wrong length, a non-integer endpoint, an endpoint outside
        ``0..n-1`` or a self-loop.
        """
        graph = cls.__new__(cls)
        graph._assign(n, u, v, names)
        return graph

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        names: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph from a node count and an edge iterable."""
        return cls(n, edges, names)

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[int, Iterable[int]]) -> "Graph":
        """Build a graph from an adjacency mapping ``{node: neighbours}``.

        The node set is ``0..max_node`` where ``max_node`` is the largest index
        mentioned either as a key or as a neighbour.
        """
        max_node = -1
        edges: List[Edge] = []
        for u, nbrs in adjacency.items():
            max_node = max(max_node, u)
            for v in nbrs:
                max_node = max(max_node, v)
                edges.append((u, v))
        return cls.from_edges(max_node + 1, edges)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Graph on ``n`` nodes with no edges."""
        return cls.from_edge_arrays(n, (), ())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Graph is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Graph.from_edge_arrays, (self.n, *self._edge_arrays(), self.names))

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes (alias of :attr:`n`)."""
        return self.n

    @property
    def num_edges(self) -> int:
        """Number of (undirected) edges."""
        return self._indices.size // 2

    @property
    def edge_set(self) -> FrozenSet[Edge]:
        """Canonical ``(u, v)`` edges with ``u < v``, as a frozenset (cached view)."""
        if self._edge_set is None:
            u, v = self._edge_arrays()
            object.__setattr__(self, "_edge_set", frozenset(zip(u.tolist(), v.tolist())))
        return self._edge_set

    def nodes(self) -> range:
        """Iterate over node indices ``0..n-1``."""
        return range(self.n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical ``(u, v)`` edges with ``u < v`` in sorted order."""
        u, v = self._edge_arrays()
        return zip(u.tolist(), v.tolist())

    def _edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays ``(u, v)`` of the canonical edges, ``u < v``, sorted."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._indptr))
        upper = rows < self._indices
        return rows[upper], self._indices[upper]

    def has_node(self, u: int) -> bool:
        """Return ``True`` if ``u`` is a valid node index."""
        return 0 <= u < self.n

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``{u, v}`` exists."""
        if u == v:
            return False
        return _normalise_edge(u, v) in self.edge_set

    def neighbors(self, u: int) -> FrozenSet[int]:
        """Return the neighbour set of ``u`` as a frozenset."""
        self._check_node(u)
        return (self._adj or self.neighbor_sets())[u]

    def neighbor_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Every node's neighbour set, indexed by node (cached view, no per-call node check)."""
        if self._adj is None:
            indptr, indices = self._indptr.tolist(), self._indices.tolist()
            object.__setattr__(self, "_adj", tuple([
                frozenset(indices[start:end]) for start, end in zip(indptr, indptr[1:])]))
        return self._adj

    def neighbors_array(self, u: int) -> np.ndarray:
        """Return the sorted neighbour indices of ``u`` as a NumPy view."""
        self._check_node(u)
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return int(self._indptr[u + 1] - self._indptr[u])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees (``shape (n,)``)."""
        return np.diff(self._indptr)

    def max_degree(self) -> int:
        """Maximum degree Δ (0 for an empty graph)."""
        if self.n == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def min_degree(self) -> int:
        """Minimum degree (0 for an empty graph)."""
        if self.n == 0:
            return 0
        return int(self.degrees().min(initial=0))

    def adjacency_matrix(self) -> np.ndarray:
        """Dense boolean adjacency matrix (``shape (n, n)``)."""
        mat = np.zeros((self.n, self.n), dtype=bool)
        u, v = self._edge_arrays()
        mat[u, v] = True
        mat[v, u] = True
        return mat

    def adjacency_lists(self) -> Dict[int, List[int]]:
        """Plain-dict adjacency representation with sorted neighbour lists."""
        indptr, indices = self._indptr.tolist(), self._indices.tolist()
        return {u: indices[indptr[u] : indptr[u + 1]] for u in range(self.n)}

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``(indptr, indices)`` CSR arrays (read-only)."""
        return self._indptr, self._indices

    # ------------------------------------------------------------------ #
    # set-level neighbourhood queries (used by the Section 2.1 construction)
    # ------------------------------------------------------------------ #
    def neighborhood(self, nodes: Iterable[int]) -> FrozenSet[int]:
        """Return Γ(X): the set of nodes adjacent to at least one node of ``X``.

        Matches the paper's definition — note that Γ(X) may intersect X and
        does *not* automatically include X.
        """
        adj = self.neighbor_sets()
        out: set = set()
        for u in nodes:
            out.update(adj[u])
        return frozenset(out)

    def closed_neighborhood(self, nodes: Iterable[int]) -> FrozenSet[int]:
        """Return Γ(X) ∪ X."""
        nodes = set(nodes)
        return frozenset(nodes | set(self.neighborhood(nodes)))

    def dominates(self, dominators: Iterable[int], targets: Iterable[int]) -> bool:
        """Return ``True`` if every node of ``targets`` has a neighbour in ``dominators``.

        This is the paper's domination relation (a node does not dominate
        itself unless it has a neighbour in the dominating set).
        """
        adj = self.neighbor_sets()
        dom = set(dominators)
        return all(bool(adj[t] & dom) for t in targets)

    def count_neighbors_in(self, u: int, subset: Iterable[int]) -> int:
        """Number of neighbours of ``u`` that lie inside ``subset``."""
        return len(self.neighbors(u) & set(subset))

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """Induced subgraph on ``nodes``.

        Returns the new graph (with nodes relabelled ``0..len(nodes)-1`` in the
        order given) and the mapping from original index to new index.
        """
        nodes = list(dict.fromkeys(nodes))  # preserve order, dedupe
        for u in nodes:
            self._check_node(u)
        new_index = np.full(self.n, -1, dtype=np.int64)
        new_index[np.asarray(nodes, dtype=np.int64)] = np.arange(len(nodes))
        u, v = (new_index[end] for end in self._edge_arrays())
        inside = (u >= 0) & (v >= 0)
        remap = {u: i for i, u in enumerate(nodes)}
        return Graph.from_edge_arrays(len(nodes), u[inside], v[inside]), remap

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Return an isomorphic graph where old node ``u`` becomes ``permutation[u]``."""
        if sorted(permutation) != list(range(self.n)):
            raise GraphError("permutation must be a bijection on 0..n-1")
        perm = np.asarray(permutation, dtype=np.int64)
        u, v = self._edge_arrays()
        return Graph.from_edge_arrays(self.n, perm[u], perm[v])

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union: ``other``'s nodes are shifted by ``self.n``."""
        (u1, v1), (u2, v2) = self._edge_arrays(), other._edge_arrays()
        return Graph.from_edge_arrays(
            self.n + other.n,
            np.concatenate((u1, u2 + self.n)), np.concatenate((v1, v2 + self.n)))

    def add_edges(self, extra: Iterable[Tuple[int, int]]) -> "Graph":
        """Return a new graph with additional edges (the original is unchanged)."""
        eu, ev = _edge_columns(extra)
        u, v = self._edge_arrays()
        return Graph.from_edge_arrays(
            self.n, np.concatenate((u, eu)), np.concatenate((v, ev)), names=self.names)

    def remove_edges(self, gone: Iterable[Tuple[int, int]]) -> "Graph":
        """Return a new graph with the listed edges removed."""
        removed = {_normalise_edge(u, v) for u, v in gone}
        return Graph(self.n, self.edge_set - removed, names=self.names)

    def complement(self) -> "Graph":
        """Complement graph (no self loops)."""
        u, v = np.nonzero(np.triu(~self.adjacency_matrix(), k=1))
        return Graph.from_edge_arrays(self.n, u, v)

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def _check_node(self, u: int) -> None:
        if not (isinstance(u, (int, np.integer)) and 0 <= u < self.n):
            raise GraphError(f"node {u!r} is not in 0..{self.n - 1}")

    def __contains__(self, u: object) -> bool:
        return isinstance(u, (int, np.integer)) and 0 <= int(u) < self.n

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.n, self._indptr.tobytes(), self._indices.tobytes())))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self is other or (
            self.n == other.n
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"Graph with {self.n} nodes, {self.num_edges} edges, "
            f"max degree {self.max_degree()}"
        )


class GraphBuilder:
    """Mutable helper for assembling a :class:`Graph` incrementally.

    Nodes may be added by arbitrary hashable keys; they are assigned dense
    integer indices in insertion order.  ``build()`` freezes the result.

    Examples
    --------
    >>> b = GraphBuilder()
    >>> b.add_edge("a", "b")
    >>> b.add_edge("b", "c")
    >>> g = b.build()
    >>> g.num_nodes, g.num_edges
    (3, 2)
    """

    def __init__(self) -> None:
        self._index: Dict[object, int] = {}
        self._names: List[str] = []
        self._edges: List[Edge] = []

    def add_node(self, key: object) -> int:
        """Ensure ``key`` exists as a node; return its integer index."""
        if key not in self._index:
            self._index[key] = len(self._index)
            self._names.append(str(key))
        return self._index[key]

    def add_edge(self, a: object, b: object) -> None:
        """Add an undirected edge between the nodes keyed by ``a`` and ``b``."""
        u = self.add_node(a)
        v = self.add_node(b)
        self._edges.append(_normalise_edge(u, v))

    def add_edges(self, pairs: Iterable[Tuple[object, object]]) -> None:
        """Add several edges at once."""
        for a, b in pairs:
            self.add_edge(a, b)

    @property
    def num_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._index)

    def index_of(self, key: object) -> int:
        """Return the integer index previously assigned to ``key``."""
        return self._index[key]

    def build(self) -> Graph:
        """Freeze the accumulated nodes/edges into an immutable :class:`Graph`."""
        return Graph.from_edges(len(self._index), self._edges, names=self._names)
