"""Special graph classes and the search for even shorter labels (Section 5).

The paper's conclusion observes that fewer than four distinct labels suffice
for several graph classes and leaves the general 1-bit question open.  This
module contributes two things:

1. :class:`TreeFloodNode` / :func:`run_tree_flood` — a **label-free** (single
   label, i.e. zero bits of advice) universal broadcast scheme that is correct
   on every tree: a node retransmits µ exactly two rounds after first hearing
   it.  In a tree every node has exactly one neighbour closer to the source,
   so the unique informing transmission never collides; siblings transmitting
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
   introductory impossibility argument).

The paper sketches explicit 1-bit constructions for these classes; the sketch
is too terse to reimplement verbatim, so we *verify the feasibility claim* by
exhaustive search instead of guessing the construction (see DESIGN.md §2 and
EXPERIMENTS.md E9 for the full discussion of this substitution).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..graphs.graph import Graph, GraphError
from ..graphs.properties import is_tree
from ..radio.engine import run_protocol
from ..radio.messages import Message, source_message
from ..radio.node import RadioNode
from ..radio.trace import ExecutionTrace
from .protocols.broadcast import make_broadcast_node

__all__ = [
    "TreeFloodNode",
    "run_tree_flood",
    "LabelSearchResult",
    "broadcast_succeeds_with_labels",
    "search_minimum_labels",
]


# --------------------------------------------------------------------------- #
# 1. Label-free flooding on trees
# --------------------------------------------------------------------------- #
class TreeFloodNode(RadioNode):
    """Echo-flooding node: retransmit µ exactly two rounds after first hearing it.

    Uses no label bits at all; correctness relies on the network being a tree.
    """

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.sourcemsg: Any = source_payload if is_source else None
        self.informed_local_round: Optional[int] = None

    def decide(self, local_round: int) -> Optional[Message]:
        """Source: transmit once.  Others: transmit two rounds after first receipt."""
        if not self.ever_communicated and self.sourcemsg is not None:
            return source_message(self.sourcemsg)
        if self.informed_local_round is not None and local_round == self.informed_local_round + 2:
            return source_message(self.sourcemsg)
        return None

    def on_receive(self, local_round: int, message: Message) -> None:
        """Adopt the first µ heard."""
        if self.sourcemsg is None and message.is_source:
            self.sourcemsg = message.payload
            self.informed_local_round = local_round


def run_tree_flood(graph: Graph, source: int, *, payload: Any = "MSG",
                   max_rounds: Optional[int] = None):
    """Run the label-free tree flooding scheme and return the simulation result.

    Raises :class:`~repro.graphs.graph.GraphError` if the graph is not a tree —
    the scheme's correctness proof only covers trees (on general graphs it may
    or may not complete; the tests demonstrate a failing non-tree instance).
    """
    if not is_tree(graph):
        raise GraphError("run_tree_flood requires a tree; use the lambda scheme for general graphs")
    labels = {v: "0" for v in graph.nodes()}
    budget = max_rounds if max_rounds is not None else 2 * graph.n + 4

    def factory(node_id: int, label: str, is_source: bool, source_payload: Any) -> TreeFloodNode:
        return TreeFloodNode(node_id, label, is_source=is_source, source_payload=source_payload)

    return run_protocol(
        graph,
        labels,
        factory,
        source=source,
        source_payload=payload,
        max_rounds=budget,
        stop_condition=lambda s: s.all_informed(),
    )


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
        A witnessing label assignment (``None`` if no width succeeded).
    completion_round:
        Completion round of the witnessing execution.
    attempts:
        Number of label assignments simulated.
    """

    width: Optional[int]
    labels: Optional[Dict[int, str]]
    completion_round: Optional[int]
    attempts: int


def broadcast_succeeds_with_labels(
    graph: Graph,
    source: int,
    labels: Dict[int, str],
    *,
    payload: Any = "MSG",
    max_rounds: Optional[int] = None,
) -> Optional[int]:
    """Run Algorithm B with an arbitrary label assignment.

    Returns the completion round if every node gets informed within the round
    budget, ``None`` otherwise.  This is the oracle used by the search and by
    the 4-cycle impossibility benchmark.
    """
    budget = max_rounds if max_rounds is not None else 4 * graph.n + 8
    sim = run_protocol(
        graph,
        labels,
        make_broadcast_node,
        source=source,
        source_payload=payload,
        max_rounds=budget,
        stop_condition=lambda s: s.all_informed(),
    )
    return sim.trace.broadcast_completion_round()


def _label_alphabet(width: int) -> List[str]:
    """All label strings of exactly ``width`` bits (the single label "" for width 0)."""
    if width == 0:
        return ["0"]  # one distinct label; the bit value is never read
    return ["".join(bits) for bits in itertools.product("01", repeat=width)]


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
    (``n ≲ 12`` at 1 bit); ``attempt_budget`` caps the total number of
    simulations to keep benchmark runtimes predictable.
    """
    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    attempts = 0
    others = [v for v in graph.nodes() if v != source]
    for width in range(0, max_bits + 1):
        alphabet = _label_alphabet(width)
        source_label = alphabet[0]
        for combo in itertools.product(alphabet, repeat=len(others)):
            attempts += 1
            if attempts > attempt_budget:
                return LabelSearchResult(None, None, None, attempts - 1)
            labels = {source: source_label}
            labels.update(dict(zip(others, combo)))
            completion = broadcast_succeeds_with_labels(
                graph, source, labels, payload=payload, max_rounds=max_rounds
            )
            if completion is not None:
                return LabelSearchResult(width, labels, completion, attempts)
    return LabelSearchResult(None, None, None, attempts)
