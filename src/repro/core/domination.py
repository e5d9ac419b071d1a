"""Minimal dominating subsets.

The heart of the Section 2.1 construction is step 4: *"Define DOM_i to be a
minimal subset of DOM_{i-1} ∪ NEW_{i-1} that dominates all nodes in
FRONTIER_i."*  "Minimal" is inclusion-minimality: removing any node breaks
domination.  Minimality — not minimum cardinality — is what the correctness
argument needs (Lemma 2.4 uses it to guarantee progress), so any minimal
subset works; which one is chosen only affects the constant factors of the
message count and the tie-breaking of labels.

Every strategy runs on **cover pairs**: one ``(target, candidate)`` entry per
edge between a target and a candidate, grouped by target, each target's
candidates in increasing id (the order of a CSR row).  The construction of
:mod:`repro.core.sequences` builds these arrays for a whole stacked window at
once; the public set functions below build them for one graph.  Two
deterministic strategies:

* ``"prune"`` (:func:`prune_to_minimal`) — start from the full candidate set
  and drop redundant nodes, smallest id first.  Matches the paper most
  literally.
* ``"greedy"`` (:func:`greedy_minimal_dominating_subset`) — greedy set-cover
  pass (pick the candidate covering the most uncovered targets, smallest id
  on ties) followed by the pruning pass to restore inclusion-minimality.
  Produces much smaller dominating sets on dense graphs, which the ablation
  benchmark quantifies.

Plus the verification predicates used by the tests.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable

import numpy as np

from ..graphs.graph import Graph, GraphError, csr_rows

__all__ = [
    "dominates",
    "is_minimal_dominating_subset",
    "prune_to_minimal",
    "greedy_minimal_dominating_subset",
    "minimal_dominating_subset",
    "DOMINATION_STRATEGIES",
]

_NOT_DOMINATED = "candidate set does not dominate the target set"


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


# --------------------------------------------------------------------------- #
# the strategies, on cover pairs
# --------------------------------------------------------------------------- #
def prune_pairs(target: np.ndarray, cand: np.ndarray, counts: np.ndarray,
                status: np.ndarray) -> np.ndarray:
    """The ids the in-order prune keeps, sorted.

    ``target`` holds positions ``0..len(counts)-1`` in non-decreasing order,
    ``cand`` each pair's candidate id (increasing within a target) and
    ``counts`` every target's pair count, all at least 1.  ``status`` is an
    int8 scratch array indexed by candidate id, zero on entry and on return.

    Candidates are examined in increasing id, and every later candidate is
    still present when one is examined.  So a candidate can only be needed
    by the targets it is the largest cover of: one that is no target's
    largest cover is dropped, one that is some target's only cover is kept,
    and only the rest take the in-order pass, each checking just the targets
    it is the largest cover of.
    """
    last = np.cumsum(counts) - 1
    top = cand[last]
    status[top] = 2
    status[top[counts == 1]] = 1
    undecided = np.flatnonzero(status[top] == 2)
    if undecided.size:
        _decide_in_order(undecided, target, cand, counts, last, top, status)
    kept = top[status[top] == 1]
    status[top] = 0
    return sorted_unique(kept)


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``ids`` sorted in place, then without repeats."""
    ids.sort()
    if ids.size > 1:
        keep = np.empty(ids.size, dtype=bool)
        keep[0] = True
        np.not_equal(ids[1:], ids[:-1], out=keep[1:])
        ids = ids[keep]
    return ids


def _decide_in_order(undecided: np.ndarray, target: np.ndarray, cand: np.ndarray,
                     counts: np.ndarray, last: np.ndarray, top: np.ndarray,
                     status: np.ndarray) -> None:
    """Settle the candidates still marked 2 in ``status`` (kept → 1, dropped → 0).

    ``undecided`` lists the targets whose largest cover is undecided.  Such a
    cover ``u`` is dropped iff each of those targets has a smaller cover that
    is kept when ``u`` is examined.  A smaller cover marked 1 is kept for
    good and one marked 0 is dropped for good, so only the targets with no
    cover marked 1 take the pass, in increasing ``u``, and each checks only
    its smaller covers still marked 2.
    """
    ids = sorted_unique(top[undecided])
    pairs = np.flatnonzero(np.repeat(status[top] == 2, counts))
    pairs = pairs[pairs != last[target[pairs]]]
    early = status[cand[pairs]]
    satisfied = np.zeros(counts.size, dtype=bool)
    satisfied[target[pairs[early == 1]]] = True
    open_ = undecided[~satisfied[undecided]]
    waiting = pairs[(early == 2) & ~satisfied[target[pairs]]]
    # Per open target (by position in ``open_``) its run of undecided
    # smaller covers, as indices into ``ids``.
    runs = np.bincount(np.searchsorted(open_, target[waiting]), minlength=open_.size)
    ends = np.cumsum(runs)
    order = np.argsort(top[open_], kind="stable")
    covers = np.searchsorted(ids, cand[waiting]).tolist()
    kept = bytearray(ids.size)
    for k, a, b in zip(np.searchsorted(ids, top[open_][order]).tolist(),
                       (ends - runs)[order].tolist(), ends[order].tolist()):
        if not kept[k]:
            for c in covers[a:b]:
                if kept[c]:
                    break
            else:
                kept[k] = 1
    status[ids] = 0
    status[ids[np.frombuffer(kept, dtype=np.uint8).astype(bool)]] = 1


def greedy_pairs(target: np.ndarray, cand: np.ndarray, counts: np.ndarray,
                 status: np.ndarray) -> np.ndarray:
    """Greedy set cover on cover pairs, then :func:`prune_pairs` on the picks.

    Arguments as for :func:`prune_pairs`.  Each step picks the candidate
    covering the most uncovered targets, the smallest id on ties.
    """
    ids = sorted_unique(cand.copy())
    index = np.searchsorted(ids, cand)
    score = np.bincount(index, minlength=ids.size)
    by_cand = np.argsort(index, kind="stable")
    cand_start = np.concatenate(([0], np.cumsum(score)))
    # Target t's pairs are pair_ptr[t]..pair_ptr[t+1]-1, read like CSR rows.
    pair_ptr = np.concatenate(([0], np.cumsum(counts)))
    covered = np.zeros(counts.size, dtype=bool)
    uncovered = counts.size
    chosen = np.zeros(ids.size, dtype=bool)
    while uncovered:
        best = int(np.argmax(score))
        chosen[best] = True
        hit = target[by_cand[cand_start[best]:cand_start[best + 1]]]
        hit = hit[~covered[hit]]
        covered[hit] = True
        uncovered -= hit.size
        np.subtract.at(score, csr_rows(pair_ptr, index, hit)[0], 1)
    picked = chosen[index]
    return prune_pairs(target[picked], cand[picked],
                       np.bincount(target[picked], minlength=counts.size), status)


PairStrategy = Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
_PAIR_STRATEGIES = {"prune": prune_pairs, "greedy": greedy_pairs}


def pair_strategy(strategy: str) -> PairStrategy:
    """The pair-level function of the named strategy (``ValueError`` if unknown)."""
    try:
        return _PAIR_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(
            f"unknown domination strategy {strategy!r}; known: {sorted(_PAIR_STRATEGIES)}"
        ) from None


# --------------------------------------------------------------------------- #
# the set-level entry points
# --------------------------------------------------------------------------- #
def _dominating_subset(graph: Graph, candidates: Iterable[int], targets: Iterable[int],
                       strategy: PairStrategy) -> FrozenSet[int]:
    """Run ``strategy`` on the cover pairs of one graph's candidates and targets."""
    tgt = sorted_unique(np.fromiter(targets, dtype=np.int64))
    if tgt.size == 0:
        return frozenset()
    bad = tgt[(tgt < 0) | (tgt >= graph.n)]
    if bad.size:
        raise GraphError(f"node {int(bad[0])!r} is not in 0..{graph.n - 1}")
    cnd = np.fromiter(candidates, dtype=np.int64)
    mark = np.zeros(graph.n, dtype=bool)
    mark[cnd[(cnd >= 0) & (cnd < graph.n)]] = True
    nbrs, owner = csr_rows(*graph.csr(), tgt)
    hit = mark[nbrs]
    target, cand = owner[hit], nbrs[hit]
    counts = np.bincount(target, minlength=tgt.size)
    if not counts.all():
        raise GraphError(_NOT_DOMINATED)
    dom = strategy(target, cand, counts, np.zeros(graph.n, dtype=np.int8))
    return frozenset(dom.tolist())


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
    return _dominating_subset(graph, candidates, targets, prune_pairs)


def greedy_minimal_dominating_subset(
    graph: Graph, candidates: Iterable[int], targets: Iterable[int]
) -> FrozenSet[int]:
    """Greedy set-cover selection followed by a minimality-restoring prune.

    Only candidates covering at least one target are scored; ties are broken
    by smallest node index, so the result is deterministic.
    """
    return _dominating_subset(graph, candidates, targets, greedy_pairs)


def minimal_dominating_subset(
    graph: Graph,
    candidates: Iterable[int],
    targets: Iterable[int],
    strategy: str = "prune",
) -> FrozenSet[int]:
    """Dispatch to the named domination strategy (``"prune"`` or ``"greedy"``)."""
    return _dominating_subset(graph, candidates, targets, pair_strategy(strategy))


#: Registry of deterministic strategies for choosing DOM_i.
DOMINATION_STRATEGIES = {
    "prune": prune_to_minimal,
    "greedy": greedy_minimal_dominating_subset,
}
