"""Special graph classes and the search for even shorter labels (Section 5).

The paper's conclusion observes that fewer than four distinct labels suffice
for several graph classes and leaves the general 1-bit question open.  This
module contributes two things, both run as broadcast tasks of Algorithm B
(:class:`~repro.backends.base.SimulationTask`) on the backends:

1. :func:`run_tree_flood` — a **label-free** (single label, i.e. zero bits of
   advice) universal broadcast scheme that is correct on every tree: a node
   retransmits µ exactly two rounds after first hearing it.  This echo flood
   *is* Algorithm B with every label ``"10"``: with x1 = 1 and x2 = 0 a node
   relays µ two rounds after first hearing it and never sends *stay*.  In a
   tree every node has exactly one neighbour closer to the source, so the
   unique informing transmission never collides; siblings transmitting
   simultaneously only collide at their (already informed) parent.  This is
   the strongest "fewer labels" statement we can make with a proof, and it
   covers the paths, stars, caterpillars and spiders used in the benchmarks.

2. :func:`search_minimum_labels` — an exact brute-force search that, for a
   small graph and source, finds the minimum label width ``w ∈ {0, 1, 2}``
   such that *some* assignment of ``w``-bit labels makes the paper's own
   universal Algorithm B complete broadcast.  This directly probes the
   conclusion's open question ("is one bit enough?") on concrete instances:
   the benchmarks use it to confirm that 1-bit labelings under B exist for the
   small grid, series-parallel and radius-2 instances the paper mentions, and
   that the 4-cycle with identical labels provably fails (the paper's
   introductory impossibility argument).  Each width's assignments run
   stacked, a fixed-size chunk per kernel call of the vectorized backend.

The paper sketches explicit 1-bit constructions for these classes; the sketch
is too terse to reimplement verbatim, so we *verify the feasibility claim* by
exhaustive search instead of guessing the construction (see "Deviations from
the paper" in the README).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Optional

import numpy as np

from ..backends import resolve_backend
from ..backends.base import SimulationTask
from ..graphs.graph import Graph, GraphError
from ..graphs.properties import is_tree
from ..radio.engine import SimulationResult
from .labels import LabelArray

__all__ = [
    "run_tree_flood",
    "LabelSearchResult",
    "broadcast_succeeds_with_labels",
    "search_minimum_labels",
]

#: Label assignments per stacked kernel call of :func:`search_minimum_labels`.
_SEARCH_CHUNK = 256


def _broadcast_task(graph: Graph, source: int, labels: Mapping[int, str], *,
                    payload: Any, max_rounds: int,
                    trace_level: str = "none") -> SimulationTask:
    """Algorithm B from ``source`` under ``labels``, stopping once all are informed."""
    return SimulationTask(
        protocol="broadcast",
        graph=graph,
        labels=labels,
        source=source,
        payload=payload,
        max_rounds=max_rounds,
        stop_rule="all_informed",
        trace_level=trace_level,
    )


# --------------------------------------------------------------------------- #
# 1. Label-free flooding on trees
# --------------------------------------------------------------------------- #
def run_tree_flood(graph: Graph, source: int, *, payload: Any = "MSG",
                   max_rounds: Optional[int] = None) -> SimulationResult:
    """Run the label-free tree flooding scheme and return the simulation result.

    The run is Algorithm B with every label ``"10"`` on the reference engine,
    recorded at the full trace level.  Raises
    :class:`~repro.graphs.graph.GraphError` if the graph is not a tree — the
    scheme's correctness proof only covers trees (on general graphs it may or
    may not complete; the tests demonstrate a failing non-tree instance).
    """
    if not is_tree(graph):
        raise GraphError("run_tree_flood requires a tree; use the lambda scheme for general graphs")
    budget = max_rounds if max_rounds is not None else 2 * graph.n + 4
    task = _broadcast_task(graph, source, LabelArray(np.full(graph.n, 0b10), 2),
                           payload=payload, max_rounds=budget, trace_level="full")
    return resolve_backend().run_task(task).simulation


# --------------------------------------------------------------------------- #
# 2. Exhaustive search for minimum label width under Algorithm B
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LabelSearchResult:
    """Outcome of :func:`search_minimum_labels`.

    Attributes
    ----------
    width:
        The smallest label width (in bits) for which some assignment makes
        Algorithm B succeed, or ``None`` if none was found up to ``max_bits``.
    labels:
        A witnessing label assignment, a
        :class:`~repro.core.labels.LabelArray` (``None`` if no width
        succeeded).
    completion_round:
        Completion round of the witnessing execution.
    attempts:
        The witness's 1-based position in enumeration order, or the number
        of assignments tried when none succeeded (at most the search's
        ``attempt_budget``).
    """

    width: Optional[int]
    labels: Optional[Mapping[int, str]]
    completion_round: Optional[int]
    attempts: int


def broadcast_succeeds_with_labels(
    graph: Graph,
    source: int,
    labels: Mapping[int, str],
    *,
    payload: Any = "MSG",
    max_rounds: Optional[int] = None,
) -> Optional[int]:
    """Run Algorithm B with an arbitrary label assignment.

    Returns the completion round if every node gets informed within the round
    budget, ``None`` otherwise.  The run is one broadcast task on the
    reference engine, which also rejects malformed label strings.  This is
    the oracle used by the 4-cycle impossibility benchmark, and it agrees
    with every witness :func:`search_minimum_labels` reports.
    """
    budget = max_rounds if max_rounds is not None else 4 * graph.n + 8
    task = _broadcast_task(graph, source, labels, payload=payload, max_rounds=budget)
    return resolve_backend().run_task(task).derived["completion_round"]


def search_minimum_labels(
    graph: Graph,
    source: int,
    *,
    max_bits: int = 2,
    payload: Any = "MSG",
    max_rounds: Optional[int] = None,
    attempt_budget: int = 200_000,
) -> LabelSearchResult:
    """Exhaustively search for the smallest label width that lets B succeed.

    For width ``w`` the search enumerates all ``(2^w)^(n-1)`` assignments of
    ``w``-bit labels to the non-source nodes (the source's label is irrelevant
    to B because the source's behaviour never reads its bits), simulating
    Algorithm B for each.  Exponential, so only suitable for small graphs
    (``n ≲ 16`` at 1 bit); ``attempt_budget`` caps the total number of
    simulations to keep benchmark runtimes predictable.

    The assignments run in enumeration order as stacked broadcast tasks on
    the vectorized backend, a fixed-size chunk per kernel call, and the first
    success is the witness: ``attempts`` is its position in that order (or
    the number of assignments run when none succeeds), never more than
    ``attempt_budget``.  Each assignment is a label array of codes; width 0
    has one label, the empty string, whose missing bits read as 0, written
    as the 1-bit label ``"0"`` because a label cannot be empty.
    """
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    budget = max_rounds if max_rounds is not None else 4 * graph.n + 8
    engine = resolve_backend("vectorized")
    attempts = 0
    others = [v for v in graph.nodes() if v != source]
    for width in range(0, max_bits + 1):
        # The source keeps code 0, the first label in enumeration order.
        combos = itertools.product(range(1 << width), repeat=len(others))
        while True:
            size = max(0, min(_SEARCH_CHUNK, attempt_budget - attempts))
            picked = list(itertools.islice(combos, size))
            if not picked:
                break
            codes = np.zeros((len(picked), graph.n), dtype=np.uint64)
            codes[:, others] = np.array(picked, dtype=np.uint64)
            chunk = [LabelArray(row, max(width, 1)) for row in codes]
            results = engine.run_batch([
                _broadcast_task(graph, source, labels, payload=payload, max_rounds=budget)
                for labels in chunk
            ])
            for i, result in enumerate(results):
                completion = result.derived["completion_round"]
                if completion is not None:
                    return LabelSearchResult(width, chunk[i], completion, attempts + i + 1)
            attempts += len(chunk)
    return LabelSearchResult(None, None, None, attempts)
