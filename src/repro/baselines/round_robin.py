"""Round-robin broadcast with distinct ``O(log n)``-bit labels.

This is the folklore scheme the paper's introduction uses to show that
``O(log n)``-bit labels always suffice: give every node a distinct identifier
and the network size, and let informed node ``k`` transmit µ exactly in the
rounds congruent to ``k`` modulo ``n``.  Within every window of ``n``
consecutive rounds each informed node transmits alone among all nodes, so each
uninformed node adjacent to an informed one hears at least one collision-free
transmission per window.  The informed set therefore absorbs the whole frontier
every ``n`` rounds and broadcast completes within ``n · (D + 1)`` rounds, where
``D`` is the source eccentricity.

The label of node ``k`` encodes the pair ``(k, n)`` as two fixed-width binary
fields (the universal algorithm may not know ``n``, so the scheme must write it
into the label), giving a scheme length of ``2·⌈log₂ n⌉`` bits.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..graphs.graph import Graph
from ..radio.messages import Message, source_message
from ..radio.node import RadioNode
from .base import bits_needed, int_to_bits

__all__ = ["round_robin_labels", "RoundRobinNode"]


def round_robin_labels(graph: Graph) -> Dict[int, str]:
    """Assign each node the label ``bits(node_id) ++ bits(n)``."""
    width = bits_needed(graph.n)
    return {
        v: int_to_bits(v, width) + int_to_bits(graph.n - 1, width) for v in graph.nodes()
    }


def _parse_label(label: str) -> tuple[int, int]:
    """Recover ``(node_id, n)`` from a round-robin label."""
    if len(label) % 2 != 0:
        raise ValueError(f"malformed round-robin label {label!r}")
    half = len(label) // 2
    return int(label[:half], 2), int(label[half:], 2) + 1


class RoundRobinNode(RadioNode):
    """Informed node ``k`` transmits µ in every round ``r`` with ``r ≡ k (mod n)``.

    The node counts rounds locally from its first active round; since all
    nodes start in the same global round, the slots are globally consistent.
    (Unlike the paper's algorithms this baseline *does* rely on a shared round
    counter — a known weakness of the folklore scheme that the comparison
    table points out.)
    """

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.my_slot, self.period = _parse_label(label)
        self.sourcemsg: Any = source_payload if is_source else None

    def decide(self, local_round: int) -> Optional[Message]:
        """Transmit µ in our slot once informed."""
        if self.sourcemsg is None:
            return None
        if local_round % self.period == self.my_slot % self.period:
            return source_message(self.sourcemsg)
        return None

    def on_receive(self, local_round: int, message: Message) -> None:
        """Adopt the first µ heard."""
        if self.sourcemsg is None and message.is_source:
            self.sourcemsg = message.payload
