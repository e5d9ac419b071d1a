"""The five set sequences of Section 2.1.

Given a connected graph ``G`` and a source ``s``, the labeling scheme is built
from five sequences of node sets, indexed by stage ``i ≥ 1``:

* ``INF_i``      — nodes informed before round ``2i − 1``;
* ``UNINF_i``    — nodes not yet informed before round ``2i − 1``;
* ``FRONTIER_i`` — uninformed nodes adjacent to at least one informed node;
* ``DOM_i``      — a *minimal* subset of ``DOM_{i-1} ∪ NEW_{i-1}`` dominating
  ``FRONTIER_i`` (these are the nodes that transmit µ in round ``2i − 1``);
* ``NEW_i``      — frontier nodes adjacent to **exactly one** node of
  ``DOM_i`` (these are the nodes newly informed in round ``2i − 1``).

The construction stops at the smallest ``ℓ`` with ``INF_ℓ = V(G)``.

It runs on CSR id arrays, never on neighbour sets, and
:func:`build_sequence_batch` runs several (graph, root) constructions as one
block-diagonal pass, the way the vectorized engine stacks instances: stage
``i`` of every construction is one set of array operations over the stacked
ids.  Each stage's DOM comes from the cover pairs of
:mod:`repro.core.domination`.  A :class:`SequenceConstruction` keeps every
stage's FRONTIER and DOM as sorted id arrays and every node's NEW stage;
its :class:`Stage` records build the paper's sets as frozensets on first
read, for the verifier and the tests, and implement every structural fact
the paper proves about them (Facts 2.1–2.2, Lemmas 2.3–2.6, Corollary 2.7)
as checkable assertions.  :class:`ConstructionCache` holds a sweep window's
constructions and builds them on first use, in stacked passes of at most
:data:`CONSTRUCTION_PASS_NODES` nodes, so a pass's memory stays the same
however wide the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..graphs.graph import Graph, GraphError, csr_rows, stack_csr
from .domination import pair_strategy, sorted_unique

# Kept importable here: perfbench's tracer patches this name.  The
# construction itself runs the pair strategies.
from .domination import minimal_dominating_subset  # noqa: F401

__all__ = [
    "Stage",
    "SequenceConstruction",
    "ConstructionCache",
    "build_sequences",
    "build_sequence_batch",
]

_EMPTY: FrozenSet[int] = frozenset()


class Stage:
    """The five sets of one stage ``i`` of the construction.

    FRONTIER_i, DOM_i and NEW_i are held as sorted id arrays
    (``frontier_ids``, ``dom_ids``, ``new_ids``) and read as frozensets,
    built on first read.  INF_i and UNINF_i are derived on demand from the
    construction's per-node ``new_stage`` array (Fact 2.2: ``v ∈ INF_i`` iff
    ``v`` is the source or ``v ∈ NEW_j`` for some ``j < i``).
    """

    def __init__(self, index: int, frontier_ids: np.ndarray, dom_ids: np.ndarray,
                 new_ids: np.ndarray, new_stage: np.ndarray) -> None:
        self.index = index
        self.frontier_ids = frontier_ids
        self.dom_ids = dom_ids
        self.new_ids = new_ids
        self.new_stage = new_stage

    @cached_property
    def frontier(self) -> FrozenSet[int]:
        """``FRONTIER_i``."""
        return frozenset(self.frontier_ids.tolist())

    @cached_property
    def dom(self) -> FrozenSet[int]:
        """``DOM_i``."""
        return frozenset(self.dom_ids.tolist())

    @cached_property
    def new(self) -> FrozenSet[int]:
        """``NEW_i``."""
        return frozenset(self.new_ids.tolist())

    @property
    def informed(self) -> FrozenSet[int]:
        """``INF_i``: the source plus ``NEW_1 ∪ … ∪ NEW_{i−1}``."""
        return frozenset(np.flatnonzero(self.new_stage < self.index).tolist())

    @property
    def uninformed(self) -> FrozenSet[int]:
        """``UNINF_i = V − INF_i``."""
        return frozenset(np.flatnonzero(self.new_stage >= self.index).tolist())

    def __repr__(self) -> str:
        informed = int(np.count_nonzero(self.new_stage < self.index))
        return (
            f"Stage(i={self.index}, |INF|={informed}, |FRONTIER|={self.frontier_ids.size}, "
            f"|DOM|={self.dom_ids.size}, |NEW|={self.new_ids.size})"
        )


@dataclass(frozen=True, eq=False)
class SequenceConstruction:
    """The full sequence construction for one (graph, source) pair.

    Attributes
    ----------
    graph, source:
        The inputs.
    strategy:
        The domination strategy used to pick each ``DOM_i``.
    new_stage:
        Per-node stage index: ``new_stage[v] = i`` for ``v ∈ NEW_i`` and
        ``0`` for the source.  Every stage derives ``INF_i``/``UNINF_i``
        and ``NEW_i`` from this one array.
    frontier_ids, frontier_ptr, dom_ids, dom_ptr:
        Stage ``i``'s FRONTIER is ``frontier_ids[frontier_ptr[i-1]:
        frontier_ptr[i]]``, sorted, and likewise DOM; both pointer arrays
        have ``ℓ + 1`` entries.
    stages:
        ``stages[i - 1]`` holds stage ``i`` as a :class:`Stage`; the last is
        stage ``ℓ`` (the first with ``INF_i = V``), for which ``FRONTIER =
        DOM = NEW = ∅``.  Built on first read.
    """

    graph: Graph
    source: int
    strategy: str
    new_stage: np.ndarray = field(repr=False)
    frontier_ids: np.ndarray = field(repr=False)
    frontier_ptr: np.ndarray = field(repr=False)
    dom_ids: np.ndarray = field(repr=False)
    dom_ptr: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceConstruction):
            return NotImplemented
        return self is other or (
            self.graph == other.graph and self.source == other.source
            and self.strategy == other.strategy
            and all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("frontier_ids", "frontier_ptr", "dom_ids", "dom_ptr"))
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.source, self.strategy, self.ell))

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def ell(self) -> int:
        """The paper's ℓ: the smallest stage index with ``INF_i = V(G)``."""
        return self.frontier_ptr.size - 1

    @cached_property
    def stages(self) -> Tuple[Stage, ...]:
        """Every stage ``1..ℓ`` as a :class:`Stage`."""
        # NEW_1..NEW_ℓ in stage order; the source (stage 0) sorts first.
        order = np.argsort(self.new_stage, kind="stable")
        new_ptr = np.searchsorted(self.new_stage[order], np.arange(1, self.ell + 2))
        fp, dp = self.frontier_ptr, self.dom_ptr
        return tuple(
            Stage(i, self.frontier_ids[fp[i - 1]:fp[i]], self.dom_ids[dp[i - 1]:dp[i]],
                  order[new_ptr[i - 1]:new_ptr[i]], self.new_stage)
            for i in range(1, self.ell + 1)
        )

    def stage(self, i: int) -> Stage:
        """Stage ``i`` (1-indexed, ``1 ≤ i ≤ ℓ``)."""
        if not (1 <= i <= self.ell):
            raise IndexError(f"stage {i} not in 1..{self.ell}")
        return self.stages[i - 1]

    def dom(self, i: int) -> FrozenSet[int]:
        """``DOM_i`` (empty for ``i > ℓ``)."""
        return self.stages[i - 1].dom if i <= self.ell else _EMPTY

    def new(self, i: int) -> FrozenSet[int]:
        """``NEW_i`` (empty for ``i > ℓ``)."""
        return self.stages[i - 1].new if i <= self.ell else _EMPTY

    def frontier(self, i: int) -> FrozenSet[int]:
        """``FRONTIER_i`` (empty for ``i > ℓ``)."""
        return self.stages[i - 1].frontier if i <= self.ell else _EMPTY

    def informed(self, i: int) -> FrozenSet[int]:
        """``INF_i`` (the whole node set for ``i > ℓ``)."""
        if i <= self.ell:
            return self.stages[i - 1].informed
        return frozenset(range(self.graph.n))

    # ------------------------------------------------------------------ #
    # derived maps used by the labeling scheme and the verifier
    # ------------------------------------------------------------------ #
    def dom_membership(self) -> Dict[int, List[int]]:
        """Map node → sorted list of stage indices ``i`` with ``v ∈ DOM_i``."""
        member: Dict[int, List[int]] = {}
        for stage in self.stages:
            for v in stage.dom:
                member.setdefault(v, []).append(stage.index)
        return member

    def informed_round(self, v: int) -> int:
        """The round in which ``v`` first receives µ under Algorithm B.

        The source is informed "in round 0" by convention; every other node
        ``v ∈ NEW_i`` is informed in round ``2i − 1`` (Lemma 2.8 1(b)).
        """
        if v == self.source:
            return 0
        if v not in self.graph:
            raise GraphError(f"node {v} never appears in a NEW set — graph disconnected?")
        return 2 * int(self.new_stage[v]) - 1

    def last_informed_nodes(self) -> FrozenSet[int]:
        """``NEW_{ℓ-1}`` — the nodes informed last (used by λ_ack to pick ``z``)."""
        if self.ell < 2:
            return frozenset()
        return self.stage(self.ell - 1).new

    def broadcast_rounds(self) -> int:
        """Round in which the last node is informed: ``2ℓ − 3`` (0 for a single node)."""
        if self.ell < 2:
            return 0
        return 2 * self.ell - 3

    # ------------------------------------------------------------------ #
    # structural facts from the paper, as checkable predicates
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Assert every structural fact of Section 2.1; raise AssertionError otherwise.

        Covers Fact 2.1, Fact 2.2, Lemma 2.3, Lemma 2.4, Lemma 2.6 and
        Corollary 2.7 plus the defining properties of each stage.
        """
        g = self.graph
        all_nodes = frozenset(range(g.n))
        ell = self.ell
        assert ell <= max(g.n, 1), f"Lemma 2.6 violated: ell={ell} > n={g.n}"
        seen_new: set = set()
        for idx, stage in enumerate(self.stages, start=1):
            assert stage.index == idx
            informed, uninformed = stage.informed, stage.uninformed
            # Fact 2.1: NEW_i ⊆ FRONTIER_i ⊆ UNINF_i
            assert stage.new <= stage.frontier <= uninformed, (
                f"Fact 2.1 violated at stage {idx}"
            )
            # Fact 2.2: INF_i = {source} ∪ NEW_1 ∪ ... ∪ NEW_{i-1}, UNINF_i is its complement
            assert informed == frozenset({self.source}) | frozenset(seen_new), (
                f"Fact 2.2 violated at stage {idx}"
            )
            assert uninformed == all_nodes - informed
            # FRONTIER_i = UNINF_i ∩ Γ(INF_i)
            assert stage.frontier == uninformed & g.neighborhood(informed), (
                f"frontier definition violated at stage {idx}"
            )
            # DOM_i dominates FRONTIER_i and is minimal
            for t in stage.frontier:
                assert g.neighbors(t) & stage.dom, f"DOM_{idx} fails to dominate {t}"
            for v in stage.dom:
                rest = stage.dom - {v}
                assert not all(g.neighbors(t) & rest for t in stage.frontier), (
                    f"DOM_{idx} is not minimal: {v} is redundant"
                )
            # NEW_i = frontier nodes with exactly one DOM_i neighbour
            expected_new = frozenset(
                t for t in stage.frontier if len(g.neighbors(t) & stage.dom) == 1
            )
            assert stage.new == expected_new, f"NEW_{idx} mismatch"
            # Lemma 2.3: NEW sets are pairwise disjoint
            assert not (stage.new & seen_new), f"Lemma 2.3 violated at stage {idx}"
            seen_new |= stage.new
            # Lemma 2.4: progress while not finished
            if informed != all_nodes:
                assert stage.new, f"Lemma 2.4 violated at stage {idx}: no progress"
        final = self.stages[-1]
        assert final.informed == all_nodes, "construction stopped before INF = V"
        assert not final.new and not final.dom and not final.frontier, (
            "final stage must have empty FRONTIER/DOM/NEW sets"
        )
        # Corollary 2.7: NEW_1..NEW_{ℓ-1} partition V \ {source}
        assert frozenset(seen_new) == all_nodes - {self.source}, (
            "Corollary 2.7 violated: NEW sets do not partition V \\ {source}"
        )


def build_sequences(
    graph: Graph, source: int, strategy: str = "prune"
) -> SequenceConstruction:
    """Run the Section 2.1 construction on ``(graph, source)``.

    A batch of one of :func:`build_sequence_batch`.

    Parameters
    ----------
    graph:
        A connected graph.
    source:
        The distinguished source node ``s_G``.
    strategy:
        Domination strategy used to choose each ``DOM_i`` (see
        :mod:`repro.core.domination`).

    Returns
    -------
    SequenceConstruction
        The stages ``1..ℓ`` where ``ℓ`` is the first stage with every node
        informed.  The final stage has empty frontier/DOM/NEW sets.
    """
    return build_sequence_batch([(graph, source)], strategy)[0]


def build_sequence_batch(
    roots: Sequence[Tuple[Graph, int]], strategy: str = "prune"
) -> List[SequenceConstruction]:
    """Run the Section 2.1 construction for every ``(graph, root)`` pair at once.

    The graphs are stacked block-diagonally (a graph listed twice is stacked
    twice) and stage ``i`` of every construction is one pass over the
    stacked ids.  Incremental: each stage gathers only its frontier's CSR
    rows, ``FRONTIER_{i+1} = (FRONTIER_i − NEW_i) ∪ (UNINF_{i+1} ∩
    Γ(NEW_i))`` reuses the rows of ``NEW_i ⊆ FRONTIER_i``, and the per-node
    arrays are allocated once per pass, so no stage does work proportional
    to the node count.  Returns the constructions in input order, each equal
    to building it alone.

    Raises the errors of a construction built alone, but a pass with
    several roots raises as soon as one of them fails: with a graph
    disconnected, the connectivity error or the stage guard, whichever
    comes first.
    """
    for graph, root in roots:
        if root not in graph:
            raise GraphError(f"source {root} is not a node of {graph!r}")
    dominate = pair_strategy(strategy)
    offsets, indptr, indices = stack_csr([graph for graph, _ in roots])
    sizes = offsets[1:] - offsets[:-1]
    stage_of = np.full(int(offsets[-1]), -1, dtype=np.int32)
    is_cand = np.zeros(stage_of.size, dtype=bool)
    status = np.zeros(stage_of.size, dtype=np.int8)
    is_kept = status.view(bool)
    starts = offsets[:-1] + np.array([int(root) for _, root in roots], dtype=np.int64)
    stage_of[starts] = 0
    # Uninformed nodes per block; a finished block reads -1.
    remaining = sizes - 1
    ell = np.ones(len(roots), dtype=np.int64)
    live = int(np.count_nonzero(remaining))
    # Stage 1 (paper: INF_1 = {s}, FRONTIER_1 = NEW_1 = Γ(s), DOM_1 = {s}):
    # every neighbour of the unique transmitter hears it.
    dom = starts[remaining > 0]
    limit = int(sizes[remaining > 0].min()) if live else 0
    remaining[remaining == 0] = -1
    frontier, _ = csr_rows(indptr, indices, dom)
    new, new_pos = frontier, None
    nbrs, owner = csr_rows(indptr, indices, frontier)
    frontiers: List[np.ndarray] = []
    doms: List[np.ndarray] = []
    while live:
        if not frontier.size:
            raise GraphError("the paper's model requires a connected graph")
        if len(frontiers) > limit:
            raise GraphError(
                "sequence construction exceeded n+1 stages — this contradicts "
                "Lemma 2.6 and indicates a bug"
            )
        frontiers.append(frontier)
        doms.append(dom)
        i = len(frontiers)
        stage_of[new] = i
        cut = new.searchsorted(offsets)
        remaining -= cut[1:] - cut[:-1]
        if not remaining.all():
            done = remaining == 0
            ell[done] = i + 1
            remaining[done] = -1
            live -= int(np.count_nonzero(done))
            if not live:
                break
            limit = int(sizes[remaining > 0].min())
        # FRONTIER_{i+1}: the rest of FRONTIER_i plus NEW_i's uninformed
        # neighbours, from the rows gathered for FRONTIER_i.
        grown = nbrs if new_pos is None else nbrs[new_pos[owner]]
        grown = grown[stage_of[grown] < 0]
        if new_pos is not None:
            grown = np.concatenate((frontier[~new_pos], grown))
        is_cand[dom] = True
        is_cand[new] = True
        frontier = sorted_unique(grown)
        nbrs, owner = csr_rows(indptr, indices, frontier)
        covers = is_cand[nbrs]
        is_cand[dom] = False
        is_cand[new] = False
        target, cand = owner[covers], nbrs[covers]
        counts = np.bincount(target, minlength=frontier.size)
        if not counts.all():
            raise GraphError("candidate set does not dominate the target set")
        if cand.size == frontier.size:
            # Every target has one cover, as on paths and trees: each cover
            # is some target's only one, and every target is new.
            dom, new, new_pos = sorted_unique(cand), frontier, None
        else:
            dom = dominate(target, cand, counts, status)
            status[dom] = 1
            new_pos = np.bincount(target[is_kept[cand]], minlength=frontier.size) == 1
            status[dom] = 0
            new = frontier[new_pos]
    frontier_parts = _split_stages(frontiers, offsets, ell)
    dom_parts = _split_stages(doms, offsets, ell)
    return [
        SequenceConstruction(graph, int(root), strategy, stage_of[lo:hi].copy(),
                             *frontier_parts[b], *dom_parts[b])
        for b, ((graph, root), lo, hi) in enumerate(zip(roots, offsets[:-1], offsets[1:]))
    ]


def _split_stages(records: List[np.ndarray], offsets: np.ndarray,
                  ell: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per block, ``(ids, ptr)`` of one set per stage from a stacked pass.

    ``records[i - 1]`` holds stage ``i``'s sorted stacked ids; block ``b``
    gets its own ids and an ``ℓ_b + 1``-entry pointer array.
    """
    ids = np.concatenate(records) if records else np.zeros(0, dtype=np.int64)
    stage = np.repeat(np.arange(1, len(records) + 1),
                      np.fromiter(map(len, records), dtype=np.int64, count=len(records)))
    if offsets.size > 2:
        # Stage order within each block survives a stable sort by block.
        block = np.searchsorted(offsets, ids, side="right") - 1
        order = np.argsort(block, kind="stable")
        ids, stage = ids[order], stage[order]
        bounds = np.searchsorted(block[order], np.arange(offsets.size))
    else:
        bounds = np.array([0, ids.size])
    parts = []
    for b in range(offsets.size - 1):
        lo, hi = bounds[b], bounds[b + 1]
        ptr = np.zeros(ell[b] + 1, dtype=np.int64)
        ptr[1:] = np.searchsorted(stage[lo:hi], np.arange(1, ell[b] + 1), side="right")
        parts.append((ids[lo:hi] - offsets[b], ptr))
    return parts


#: Node budget of one :class:`ConstructionCache` pass: consecutive pending
#: roots are stacked while their graphs' node counts sum to at most this (a
#: larger graph gets a pass of its own).  It is the largest pass a sweep
#: window of 512 requested nodes ever built (a source and a coordinator
#: root per λ_arb instance), so a wider window runs more passes, not wider
#: ones: a pass's transient memory grows with its arcs.  tracemalloc put
#: one pass over the 48 roots of ``paper_cold``'s first 4096-node window
#: (8192 nodes, 125 K arcs) at 4.0 MB, peaking in the in-order prune's
#: lists, and its largest pass of at most 1024 nodes at 0.9 MB.
CONSTRUCTION_PASS_NODES = 1024


class ConstructionCache:
    """The constructions of one sweep window, built in stacked passes.

    :meth:`register` names a ``(graph, root)`` pair the window will label
    from.  The first :meth:`get` of a registered pair builds every
    registered pair of its strategy not yet built, in consecutive
    :func:`build_sequence_batch` passes of at most
    :data:`CONSTRUCTION_PASS_NODES` nodes.  If a pass raises, the earlier
    passes' constructions are kept and every other one is built alone when
    asked for, so an error reaches exactly the labelers whose own
    construction fails, each time they ask.  An unregistered pair is built
    alone.  Graphs are keyed by identity.
    """

    def __init__(self) -> None:
        self._pending: Dict[Tuple[int, int, str], Tuple[Graph, int]] = {}
        self._built: Dict[Tuple[int, int, str], SequenceConstruction] = {}

    def register(self, graph: Graph, root: int, strategy: str = "prune") -> None:
        key = (id(graph), int(root), strategy)
        if key not in self._built:
            self._pending[key] = (graph, int(root))

    def get(self, graph: Graph, root: int, strategy: str = "prune") -> SequenceConstruction:
        key = (id(graph), int(root), strategy)
        if key not in self._built:
            if key in self._pending:
                for batch in self._passes(strategy):
                    try:
                        self._keep(batch, build_sequence_batch(
                            [self._pending[k] for k in batch], strategy))
                    except Exception:
                        self._pending.clear()
                        break
            if key not in self._built:
                self._keep([key], build_sequence_batch([(graph, int(root))], strategy))
        return self._built[key]

    def _passes(self, strategy: str) -> List[List[Tuple[int, int, str]]]:
        """The pending keys of ``strategy`` in registration order, cut into
        passes of at most :data:`CONSTRUCTION_PASS_NODES` nodes."""
        passes: List[List[Tuple[int, int, str]]] = []
        load = 0
        for key, (graph, _) in self._pending.items():
            if key[2] != strategy:
                continue
            if not passes or load + graph.n > CONSTRUCTION_PASS_NODES:
                passes.append([])
                load = 0
            passes[-1].append(key)
            load += graph.n
        return passes

    def _keep(self, keys: List[Tuple[int, int, str]],
              constructions: List[SequenceConstruction]) -> None:
        for key, construction in zip(keys, constructions):
            self._built[key] = construction
            self._pending.pop(key, None)
