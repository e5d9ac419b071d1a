"""Common infrastructure for the baseline broadcast schemes.

The paper's introduction positions the 2-bit result against the classical
alternatives:

* with **distinct ``O(log n)``-bit labels**, round-robin broadcast always works;
* with a **proper colouring of G²** (``O(log Δ)``-bit labels), a TDMA schedule
  avoids all collisions;
* with **collision detection**, broadcast is trivially feasible even with no
  labels at all (bit signalling through silence vs. noise);
* with **complete topology knowledge**, a centralised schedule can be
  precomputed (unbounded advice).

Each baseline in this package provides its labels and its node class, which
the reference engine runs (:mod:`repro.backends.reference`).  Its registered
scheme in :mod:`repro.api.schemes` builds the task from the labels and derives
the unified :class:`~repro.core.outcome.Outcome` with the metrics the
benchmark tables compare: label length, completion round, number of
transmissions and collisions.  This module holds their shared bit helpers and
the one slotted node class behind round-robin and G²-colouring TDMA.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..radio.messages import Message, source_message
from ..radio.node import RadioNode

__all__ = ["SlottedNode", "bits_needed", "int_to_bits", "parse_slot_label"]


def int_to_bits(value: int, width: int) -> str:
    """Fixed-width big-endian binary encoding of a non-negative integer."""
    if value < 0:
        raise ValueError(f"cannot encode negative value {value}")
    if width < 1:
        raise ValueError(f"width must be positive, got {width}")
    if value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return format(value, f"0{width}b")


def bits_needed(count: int) -> int:
    """Number of bits needed to encode values ``0 .. count-1`` (at least 1)."""
    if count <= 1:
        return 1
    return (count - 1).bit_length()


def parse_slot_label(label: str) -> Tuple[int, int]:
    """Recover ``(slot, period)`` from a ``bits(slot) ++ bits(period − 1)`` label."""
    if len(label) % 2 != 0:
        raise ValueError(f"malformed slotted label {label!r}")
    half = len(label) // 2
    return int(label[:half], 2), int(label[half:], 2) + 1


class SlottedNode(RadioNode):
    """Informed node of slot ``s`` transmits µ in every round ``r ≡ s (mod period)``.

    Round-robin (slot = node id, period = n) and G²-colouring TDMA (slot =
    colour, period = number of colours) are this one rule with different
    labels.  The node counts rounds locally from its first active round;
    since all nodes start in the same global round, the slots are globally
    consistent.  (Unlike the paper's algorithms these baselines *do* rely on
    a shared round counter — a known weakness the comparison table points
    out.)
    """

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.slot, self.period = parse_slot_label(label)
        self.sourcemsg: Any = source_payload if is_source else None

    def decide(self, local_round: int) -> Optional[Message]:
        """Transmit µ in our slot once informed."""
        if self.sourcemsg is None:
            return None
        if local_round % self.period == self.slot % self.period:
            return source_message(self.sourcemsg)
        return None

    def on_receive(self, local_round: int, message: Message) -> None:
        """Adopt the first µ heard."""
        if self.sourcemsg is None and message.is_source:
            self.sourcemsg = message.payload
