"""Centralised known-topology broadcast schedule (unbounded-advice reference).

The related-work section of the paper discusses centralised broadcast, where a
schedule is computed offline with complete knowledge of the network and each
node is simply told in which rounds to transmit (so the "label" is a full
transmission schedule — advice of unbounded length).  This module provides a
greedy scheduler in that spirit, used as the *reference point* in the
comparison tables: it shows how fast broadcast can be when advice size is not
a concern, which makes the cost of squeezing the advice down to 2 bits
visible.

The scheduler reuses the paper's own machinery, but without the
"newly-informed candidates only" restriction: in every round it picks a
minimal subset of **all** informed nodes dominating the frontier, transmits
it, and repeats.  One round per stage (no "stay" coordination is needed since
the schedule is precomputed), so the schedule length is at most ``n − 1``
rounds and usually close to the source eccentricity.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, List, Optional, Sequence, Set

from ..graphs.graph import Graph, GraphError
from ..graphs.traversal import is_connected
from ..radio.messages import Message, source_message
from ..radio.node import RadioNode

__all__ = ["compute_centralized_schedule", "ScheduledNode", "transmit_rounds"]


def compute_centralized_schedule(
    graph: Graph, source: int, *, strategy: str = "greedy"
) -> List[FrozenSet[int]]:
    """Compute the per-round transmitter sets of the greedy centralised schedule.

    Returns a list whose ``r``-th entry (0-indexed) is the set of nodes
    scheduled to transmit in round ``r + 1``.  Every node is informed after
    the last round of the schedule.
    """
    from ..core.domination import minimal_dominating_subset

    if source not in graph:
        raise GraphError(f"source {source} is not a node of {graph!r}")
    if not is_connected(graph):
        raise GraphError("centralised scheduling requires a connected graph")

    informed: Set[int] = {source}
    schedule: List[FrozenSet[int]] = []
    all_nodes = set(graph.nodes())
    while informed != all_nodes:
        frontier = {
            v for v in all_nodes - informed if graph.neighbors(v) & informed
        }
        transmitters = minimal_dominating_subset(graph, informed, frontier, strategy=strategy)
        schedule.append(frozenset(transmitters))
        newly = {
            v for v in frontier if len(graph.neighbors(v) & transmitters) == 1
        }
        if not newly:
            raise GraphError("centralised schedule made no progress — internal error")
        informed |= newly
    return schedule


def transmit_rounds(schedule: Sequence[Iterable[int]], n: int) -> List[Set[int]]:
    """Each node's scheduled rounds (numbered from 1) under ``schedule``."""
    rounds: List[Set[int]] = [set() for _ in range(n)]
    for r, transmitters in enumerate(schedule, start=1):
        for v in transmitters:
            rounds[v].add(r)
    return rounds


class ScheduledNode(RadioNode):
    """A node that transmits µ exactly in its precomputed rounds.

    The "label" is the node's own transmission round list; its length in bits
    is reported by the outcome so the advice-size comparison stays honest.
    """

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None, transmit_rounds: Optional[Set[int]] = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.transmit_rounds = set(transmit_rounds or ())
        self.sourcemsg: Any = source_payload if is_source else None

    def decide(self, local_round: int) -> Optional[Message]:
        """Transmit µ when scheduled (the schedule guarantees we know µ by then)."""
        if local_round in self.transmit_rounds and self.sourcemsg is not None:
            return source_message(self.sourcemsg)
        return None

    def on_receive(self, local_round: int, message: Message) -> None:
        """Adopt the first µ heard."""
        if self.sourcemsg is None and message.is_source:
            self.sourcemsg = message.payload
