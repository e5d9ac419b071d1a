"""Minimal dominating subsets.

The heart of the Section 2.1 construction is step 4: *"Define DOM_i to be a
minimal subset of DOM_{i-1} ∪ NEW_{i-1} that dominates all nodes in
FRONTIER_i."*  "Minimal" is inclusion-minimality: removing any node breaks
domination.  Minimality — not minimum cardinality — is what the correctness
argument needs (Lemma 2.4 uses it to guarantee progress), so any minimal
subset works; which one is chosen only affects the constant factors of the
message count and the tie-breaking of labels.

This module provides two deterministic strategies plus the verification
predicates used by the tests:

* :func:`prune_to_minimal` — start from the full candidate set and repeatedly
  drop redundant nodes (smallest index first).  Matches the paper most
  literally.
* :func:`greedy_minimal_dominating_subset` — greedy set-cover pass (pick the
  candidate covering the most uncovered targets) followed by a pruning pass to
  restore inclusion-minimality.  Produces much smaller dominating sets on
  dense graphs, which the ablation benchmark quantifies.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..graphs.graph import Graph, GraphError

__all__ = [
    "dominates",
    "is_minimal_dominating_subset",
    "prune_to_minimal",
    "greedy_minimal_dominating_subset",
    "minimal_dominating_subset",
    "DOMINATION_STRATEGIES",
]


def dominates(graph: Graph, dominators: Iterable[int], targets: Iterable[int]) -> bool:
    """True if every target node has at least one neighbour among ``dominators``."""
    dom = set(dominators)
    return all(bool(graph.neighbors(t) & dom) for t in targets)


def is_minimal_dominating_subset(
    graph: Graph, subset: Iterable[int], candidates: Iterable[int], targets: Iterable[int]
) -> bool:
    """Check the three defining properties of DOM_i.

    ``subset`` must (a) be contained in ``candidates``, (b) dominate
    ``targets``, and (c) be inclusion-minimal: removing any single node breaks
    domination.
    """
    subset = set(subset)
    candidates = set(candidates)
    targets = set(targets)
    if not subset <= candidates:
        return False
    if not dominates(graph, subset, targets):
        return False
    for v in subset:
        if dominates(graph, subset - {v}, targets):
            return False
    return True


def _coverage(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
    """Cover counts and candidate → covered-targets lists, built target-side.

    One pass over each target's ``neighbors ∩ candidates`` — O(Σ deg(t)) —
    instead of testing every (candidate, target) pair.  Candidates covering
    no target are absent from the map.  Raises
    :class:`~repro.graphs.graph.GraphError` if some target has no candidate
    neighbour (the paper's Lemma 2.5 guarantees none in the construction).
    """
    cand = set(candidates)
    cover_count: Dict[int, int] = {}
    targets_of: Dict[int, List[int]] = {}
    for t in targets:
        if t in cover_count:
            continue
        covering = graph.neighbors(t) & cand
        if not covering:
            raise GraphError("candidate set does not dominate the target set")
        cover_count[t] = len(covering)
        for c in covering:
            targets_of.setdefault(c, []).append(t)
    return cover_count, targets_of


def prune_to_minimal(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> FrozenSet[int]:
    """Shrink ``candidates`` to an inclusion-minimal subset dominating ``targets``.

    Deterministic: candidates are considered for removal in increasing index
    order, and a candidate is removed iff the remaining set still dominates all
    targets (candidates covering no target are always removed).  Raises
    :class:`~repro.graphs.graph.GraphError` if the full candidate set does not
    dominate the targets in the first place.
    """
    cover_count, targets_of = _coverage(graph, candidates, targets)
    keep = []
    for c in sorted(targets_of):
        covered = targets_of[c]
        # c is redundant iff every target it covers is covered by another kept node.
        if all(cover_count[t] >= 2 for t in covered):
            for t in covered:
                cover_count[t] -= 1
        else:
            keep.append(c)
    return frozenset(keep)


def greedy_minimal_dominating_subset(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> FrozenSet[int]:
    """Greedy set-cover selection followed by a minimality-restoring prune.

    Only candidates covering at least one target are scored; ties are broken
    by smallest node index, so the result is deterministic.
    """
    cover_count, targets_of = _coverage(graph, candidates, targets)
    coverage = {c: set(covered) for c, covered in targets_of.items()}
    uncovered: Set[int] = set(cover_count)
    chosen: Set[int] = set()
    while uncovered:
        best = max(sorted(coverage.keys() - chosen),
                   key=lambda c: len(coverage[c] & uncovered))
        chosen.add(best)
        uncovered -= coverage[best]
    # Greedy choice is usually minimal already, but prune defensively so the
    # result always satisfies the paper's definition.
    return prune_to_minimal(graph, chosen, cover_count)


def minimal_dominating_subset(
    graph: Graph,
    candidates: Iterable[int],
    targets: Iterable[int],
    strategy: str = "prune",
) -> FrozenSet[int]:
    """Dispatch to the named domination strategy (``"prune"`` or ``"greedy"``)."""
    try:
        fn = DOMINATION_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown domination strategy {strategy!r}; known: {sorted(DOMINATION_STRATEGIES)}"
        ) from None
    return fn(graph, candidates, targets)


#: Registry of deterministic strategies for choosing DOM_i.
DOMINATION_STRATEGIES = {
    "prune": prune_to_minimal,
    "greedy": greedy_minimal_dominating_subset,
}
