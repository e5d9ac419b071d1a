"""TDMA broadcast from a proper colouring of ``G²`` (``O(log Δ)``-bit labels).

The paper's introduction notes that colouring the *square* of the graph gives
labels of ``O(log Δ)`` bits that suffice for broadcast: if two nodes share a
colour they are at distance at least 3, so when all informed nodes of one
colour class transmit simultaneously, no listener has two transmitting
neighbours — collisions are impossible by construction.  Cycling through the
colour classes therefore grows the informed set by the entire frontier every
``C`` rounds, where ``C ≤ Δ² + 1`` is the number of colours used, and the
broadcast completes within ``C · (D + 1)`` rounds.

Each label encodes ``(colour, C)`` as two fixed-width fields, for a scheme
length of ``2·⌈log₂ C⌉ = O(log Δ)`` bits.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ..graphs.coloring import square_coloring
from ..graphs.graph import Graph
from ..radio.messages import Message, source_message
from ..radio.node import RadioNode
from .base import bits_needed, int_to_bits

__all__ = ["coloring_tdma_labels", "ColoringTdmaNode"]


def coloring_tdma_labels(graph: Graph) -> Tuple[Dict[int, str], int]:
    """Labels ``bits(colour) ++ bits(C)`` from a greedy colouring of ``G²``.

    Returns the label map and the number of colours ``C``.
    """
    colours = square_coloring(graph)
    num_colours = max(colours.values(), default=0) + 1
    width = bits_needed(num_colours)
    labels = {
        v: int_to_bits(colours[v], width) + int_to_bits(num_colours - 1, width)
        for v in graph.nodes()
    }
    return labels, num_colours


def _parse_label(label: str) -> Tuple[int, int]:
    """Recover ``(colour, C)`` from a TDMA label."""
    half = len(label) // 2
    return int(label[:half], 2), int(label[half:], 2) + 1


class ColoringTdmaNode(RadioNode):
    """Informed node of colour ``c`` transmits µ in rounds ``r ≡ c (mod C)``."""

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.colour, self.num_colours = _parse_label(label)
        self.sourcemsg: Any = source_payload if is_source else None

    def decide(self, local_round: int) -> Optional[Message]:
        """Transmit µ in our colour slot once informed."""
        if self.sourcemsg is None:
            return None
        if local_round % self.num_colours == self.colour % self.num_colours:
            return source_message(self.sourcemsg)
        return None

    def on_receive(self, local_round: int, message: Message) -> None:
        """Adopt the first µ heard."""
        if self.sourcemsg is None and message.is_source:
            self.sourcemsg = message.payload
