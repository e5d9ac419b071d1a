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

The construction stops at the smallest ``ℓ`` with ``INF_ℓ = V(G)``.  This
module computes the sequences, exposes them as immutable :class:`Stage`
records, and implements every structural fact the paper proves about them
(Facts 2.1–2.2, Lemmas 2.3–2.6, Corollary 2.7) as checkable assertions used by
the test-suite and by :mod:`repro.core.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from ..graphs.graph import Graph, GraphError
from .domination import minimal_dominating_subset

__all__ = ["Stage", "SequenceConstruction", "build_sequences"]

_EMPTY: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class Stage:
    """The five sets of one stage ``i`` of the construction.

    FRONTIER_i, DOM_i and NEW_i are stored.  INF_i and UNINF_i are derived on
    demand from the construction's per-node ``new_stage`` array (Fact 2.2:
    ``v ∈ INF_i`` iff ``v`` is the source or ``v ∈ NEW_j`` for some
    ``j < i``), so a construction holds O(n + Σ|FRONTIER_i|) node ids rather
    than two n-node sets per stage.
    """

    index: int
    frontier: FrozenSet[int]
    dom: FrozenSet[int]
    new: FrozenSet[int]
    new_stage: np.ndarray = field(repr=False, compare=False)

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
            f"Stage(i={self.index}, |INF|={informed}, "
            f"|FRONTIER|={len(self.frontier)}, |DOM|={len(self.dom)}, |NEW|={len(self.new)})"
        )


@dataclass(frozen=True)
class SequenceConstruction:
    """The full sequence construction for one (graph, source) pair.

    Attributes
    ----------
    graph, source:
        The inputs.
    stages:
        ``stages[i - 1]`` holds stage ``i``; the last stage is stage ``ℓ``
        (the first with ``INF_i = V``), for which ``FRONTIER = DOM = NEW = ∅``.
    strategy:
        The domination strategy used to pick each ``DOM_i``.
    new_stage:
        Per-node stage index: ``new_stage[v] = i`` for ``v ∈ NEW_i`` and
        ``0`` for the source.  Every stage derives ``INF_i``/``UNINF_i``
        from this one array.
    """

    graph: Graph
    source: int
    stages: Tuple[Stage, ...]
    strategy: str
    new_stage: np.ndarray = field(repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def ell(self) -> int:
        """The paper's ℓ: the smallest stage index with ``INF_i = V(G)``."""
        return len(self.stages)

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

    Incremental: each node's neighbours are scanned once, when it joins a
    NEW set, via ``FRONTIER_i = (FRONTIER_{i−1} − NEW_{i−1}) ∪
    (UNINF_i ∩ Γ(NEW_{i−1}))``; informedness lives in one per-node
    ``new_stage`` list.  A frontier that empties before every node is
    informed means the graph is disconnected.

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
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    source = int(source)
    n = graph.n
    adj = graph.neighbor_sets()
    new_stage = [-1] * n
    new_stage[source] = 0
    n_informed = 1
    # (FRONTIER_i, DOM_i, NEW_i) per stage.  Stage 1 (paper: INF_1 = {s},
    # FRONTIER_1 = NEW_1 = Γ(s), DOM_1 = {s}): every neighbour of the unique
    # transmitter hears it.
    frontier, dom, new = adj[source], frozenset({source}), adj[source]
    sets: List[Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]] = []
    while n_informed < n:
        if not frontier:
            raise GraphError("the paper's model requires a connected graph")
        if len(sets) > n:
            raise GraphError(
                "sequence construction exceeded n+1 stages — this contradicts "
                "Lemma 2.6 and indicates a bug"
            )
        sets.append((frontier, dom, new))
        i = len(sets)
        for v in new:
            new_stage[v] = i
        n_informed += len(new)
        if n_informed == n:
            break
        grown = set(frontier - new)
        for v in new:
            for u in adj[v]:
                if new_stage[u] < 0:
                    grown.add(u)
        frontier = frozenset(grown)
        dom = minimal_dominating_subset(graph, dom | new, frontier, strategy=strategy)
        new = frozenset(t for t in frontier if len(adj[t] & dom) == 1)
    sets.append((_EMPTY, _EMPTY, _EMPTY))

    stage_of = np.array(new_stage, dtype=np.int32)
    stages = tuple(
        Stage(i, frontier, dom, new, stage_of)
        for i, (frontier, dom, new) in enumerate(sets, start=1)
    )
    return SequenceConstruction(graph, source, stages, strategy, stage_of)
