"""Immutable simple undirected graph used throughout the reproduction.

The paper models a radio network as a simple undirected connected graph.  The
:class:`Graph` class below is the single substrate every other subsystem
(labeling schemes, round simulator, baselines, benchmarks) builds on.  It is
deliberately small, immutable after construction, and cheap to query:

* nodes are integers ``0..n-1`` (a separate :attr:`Graph.names` mapping keeps
  arbitrary user-facing identifiers when graphs are read from files);
* adjacency is stored both as frozensets (exact set queries, used heavily by
  the sequence construction of Section 2.1) and as a CSR-like pair of NumPy
  arrays (vectorised neighbourhood sweeps in the simulator hot loop);
* hashing/equality are structural so graphs can be deduplicated in sweeps.

The class intentionally does not support mutation: the labeling schemes of the
paper are functions of a *fixed* topology, and an immutable graph keeps every
experiment deterministic and side-effect free.  Use :class:`GraphBuilder` to
assemble a graph incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Edge", "Graph", "GraphBuilder", "GraphError"]


class GraphError(ValueError):
    """Raised for structurally invalid graph constructions or queries."""


Edge = Tuple[int, int]


def _normalise_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) representation of an undirected edge."""
    if u == v:
        raise GraphError(f"self-loop {u!r} is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on nodes ``0..n-1``.

    Parameters
    ----------
    n:
        Number of nodes.  Must be non-negative.
    edges:
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

    n: int
    edge_set: FrozenSet[Edge]
    names: Optional[Tuple[str, ...]] = None
    _adj: Tuple[FrozenSet[int], ...] = field(init=False, repr=False, compare=False)
    _csr_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    _csr_indices: np.ndarray = field(init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"node count must be non-negative, got {self.n}")
        if self.names is not None and len(self.names) != self.n:
            raise GraphError(
                f"names has {len(self.names)} entries but the graph has {self.n} nodes"
            )
        adj: List[set] = [set() for _ in range(self.n)]
        for u, v in self.edge_set:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) references a node outside 0..{self.n - 1}")
            if u == v:
                raise GraphError(f"self-loop at node {u} is not allowed")
            adj[u].add(v)
            adj[v].add(u)
        frozen = tuple(frozenset(s) for s in adj)
        object.__setattr__(self, "_adj", frozen)
        # CSR arrays: indptr[u]..indptr[u+1] slices indices to u's sorted neighbours.
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        for u in range(self.n):
            indptr[u + 1] = indptr[u] + len(frozen[u])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for u in range(self.n):
            nbrs = sorted(frozen[u])
            indices[indptr[u] : indptr[u + 1]] = nbrs
        object.__setattr__(self, "_csr_indptr", indptr)
        object.__setattr__(self, "_csr_indices", indices)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Tuple[int, int]],
        names: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph from a node count and an edge iterable."""
        edge_set = frozenset(_normalise_edge(u, v) for u, v in edges)
        return cls(n=n, edge_set=edge_set, names=tuple(names) if names is not None else None)

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
        return cls(n=n, edge_set=frozenset())

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
        return len(self.edge_set)

    def nodes(self) -> range:
        """Iterate over node indices ``0..n-1``."""
        return range(self.n)

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical ``(u, v)`` edges with ``u < v`` in sorted order."""
        return iter(sorted(self.edge_set))

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
        return self._adj[u]

    def neighbor_sets(self) -> Tuple[FrozenSet[int], ...]:
        """Every node's neighbour set, indexed by node (no per-call node check)."""
        return self._adj

    def neighbors_array(self, u: int) -> np.ndarray:
        """Return the sorted neighbour indices of ``u`` as a NumPy view."""
        self._check_node(u)
        return self._csr_indices[self._csr_indptr[u] : self._csr_indptr[u + 1]]

    def degree(self, u: int) -> int:
        """Degree of node ``u``."""
        self._check_node(u)
        return len(self._adj[u])

    def degrees(self) -> np.ndarray:
        """Vector of all node degrees (``shape (n,)``)."""
        return np.diff(self._csr_indptr)

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
        for u, v in self.edge_set:
            mat[u, v] = True
            mat[v, u] = True
        return mat

    def adjacency_lists(self) -> Dict[int, List[int]]:
        """Plain-dict adjacency representation with sorted neighbour lists."""
        return {u: sorted(self._adj[u]) for u in range(self.n)}

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``(indptr, indices)`` CSR arrays (read-only views)."""
        return self._csr_indptr, self._csr_indices

    # ------------------------------------------------------------------ #
    # set-level neighbourhood queries (used by the Section 2.1 construction)
    # ------------------------------------------------------------------ #
    def neighborhood(self, nodes: Iterable[int]) -> FrozenSet[int]:
        """Return Γ(X): the set of nodes adjacent to at least one node of ``X``.

        Matches the paper's definition — note that Γ(X) may intersect X and
        does *not* automatically include X.
        """
        out: set = set()
        for u in nodes:
            out.update(self._adj[u])
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
        dom = set(dominators)
        return all(bool(self._adj[t] & dom) for t in targets)

    def count_neighbors_in(self, u: int, subset: Iterable[int]) -> int:
        """Number of neighbours of ``u`` that lie inside ``subset``."""
        self._check_node(u)
        return len(self._adj[u] & set(subset))

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
        remap = {u: i for i, u in enumerate(nodes)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edge_set
            if u in remap and v in remap
        ]
        return Graph.from_edges(len(nodes), edges), remap

    def relabel(self, permutation: Sequence[int]) -> "Graph":
        """Return an isomorphic graph where old node ``u`` becomes ``permutation[u]``."""
        if sorted(permutation) != list(range(self.n)):
            raise GraphError("permutation must be a bijection on 0..n-1")
        edges = [(permutation[u], permutation[v]) for u, v in self.edge_set]
        return Graph.from_edges(self.n, edges)

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union: ``other``'s nodes are shifted by ``self.n``."""
        edges = list(self.edge_set) + [(u + self.n, v + self.n) for u, v in other.edge_set]
        return Graph.from_edges(self.n + other.n, edges)

    def add_edges(self, extra: Iterable[Tuple[int, int]]) -> "Graph":
        """Return a new graph with additional edges (the original is unchanged)."""
        edges = set(self.edge_set)
        for u, v in extra:
            self._check_node(u)
            self._check_node(v)
            edges.add(_normalise_edge(u, v))
        return Graph(n=self.n, edge_set=frozenset(edges), names=self.names)

    def remove_edges(self, gone: Iterable[Tuple[int, int]]) -> "Graph":
        """Return a new graph with the listed edges removed."""
        removed = {_normalise_edge(u, v) for u, v in gone}
        return Graph(n=self.n, edge_set=frozenset(self.edge_set - removed), names=self.names)

    def complement(self) -> "Graph":
        """Complement graph (no self loops)."""
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if (u, v) not in self.edge_set
        ]
        return Graph.from_edges(self.n, edges)

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
        return hash((self.n, self.edge_set))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edge_set == other.edge_set

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
