"""Algorithm B_ack — acknowledged broadcast (Section 3, Algorithm 2).

B_ack is Algorithm B with two additions:

1. Every transmission of µ or "stay" carries a *round stamp*: the source stamps
   its first transmission with 1 (its first round); every other stamp is
   derived from a received stamp (+2 for the "informed two rounds ago" rule,
   +1 for "stay", +1 for the stay-triggered retransmission), so a message
   stamped ``t`` is transmitted exactly in round ``t`` of the source's clock
   (Lemma 3.5).  Each node remembers the stamp of the message that informed it
   (``informedRound``) and the stamps of its own µ transmissions
   (``transmitRounds``).

2. The unique node ``z`` with ``x3 = 1`` — chosen by λ_ack among the nodes
   informed last — transmits an ``ack`` carrying its ``informedRound`` one
   round after being informed.  A node that hears ``(ack, k)`` and has ``k`` in
   its ``transmitRounds`` knows it was the informer of the acker, and relays
   ``(ack, informedRound)``.  The chain walks back along strictly decreasing
   informing rounds (Lemma 3.7) until the source hears an ack, by round
   ``3ℓ − 4`` (Corollary 3.8).

The per-node rule below is a line-by-line transcription of Algorithm 2.
"""

from __future__ import annotations

from typing import Any, Optional, Set

from ...radio.messages import Message, ack_message, source_message, stay_message
from .base import UniversalNode

__all__ = ["AcknowledgedBroadcastNode"]


class AcknowledgedBroadcastNode(UniversalNode):
    """Per-node state machine implementing Algorithm 2.

    The extra attributes mirror the paper's variables:

    * ``informed_stamp``  — the paper's ``informedRound`` (stamp of the message
      that delivered µ); ``None`` at the source.
    * ``transmit_stamps`` — the paper's ``transmitRounds``; only non-source
      nodes maintain it.
    * ``acknowledged``    — set at the source when it first hears an ack.
    * ``ack_payload``     — optional payload to append when *this* node starts
      the ack chain (used by B_arb's phase 1, where z appends its timestamp).
    """

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None, ack_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.transmit_stamps: Set[int] = set()
        self.acknowledged_local_round: Optional[int] = None
        self.ack_payload = ack_payload

    # ------------------------------------------------------------------ #
    # Algorithm 2 round body
    # ------------------------------------------------------------------ #
    def decide(self, local_round: int) -> Optional[Message]:
        """Apply the Algorithm 2 round body at the start of ``local_round``."""
        # Lines 4-5: the source transmits (µ, 1) in its first active round.
        if not self.ever_communicated and self.knows_source_message:
            return source_message(self.sourcemsg, round_stamp=1)

        # Lines 6-10: uninformed nodes listen.
        if not self.knows_source_message:
            return None

        # Lines 12-16: informed two rounds ago — join the dominating set if x1.
        if self.first_received_in(local_round - 2):
            if self.bits.x1 == 1:
                stamp = self._informed_stamp() + 2
                self.transmit_stamps.add(stamp)
                return source_message(self.sourcemsg, round_stamp=stamp)
            return None

        # Lines 17-22: informed one round ago — start the ack (x3) or send "stay" (x2).
        if self.first_received_in(local_round - 1):
            if self.bits.x3 == 1:
                return ack_message(self._informed_stamp(), payload=self.ack_payload)
            if self.bits.x2 == 1:
                return stay_message(round_stamp=self._informed_stamp() + 1)
            return None

        # Lines 23-27: heard (stay, k) last round after transmitting µ two rounds ago.
        stay = self.heard_kind_in(local_round - 1, "stay")
        if stay is not None:
            if self.sent_kind_in(local_round - 2, "source") is not None:
                stamp = (stay.round_stamp or 0) + 1
                if not self.is_source:
                    self.transmit_stamps.add(stamp)
                return source_message(self.sourcemsg, round_stamp=stamp)
            return None

        # Lines 28-31: heard (ack, k) last round — relay if we transmitted µ in round k.
        ack = self.heard_kind_in(local_round - 1, "ack")
        if ack is not None and not self.is_source:
            if ack.round_stamp in self.transmit_stamps:
                return ack_message(self._informed_stamp(), payload=ack.payload)
            return None

        return None

    # ------------------------------------------------------------------ #
    # reception
    # ------------------------------------------------------------------ #
    def on_receive(self, local_round: int, message: Message) -> None:
        """Lines 7-10 plus the source-side ack bookkeeping."""
        if not self.knows_source_message and not message.is_stay and not message.is_ack:
            self.record_source_receipt(local_round, message)
        if message.is_ack and self.is_source and self.acknowledged_local_round is None:
            self.acknowledged_local_round = local_round

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _informed_stamp(self) -> int:
        """The paper's ``informedRound``; defensively 0 if the stamp was missing."""
        return self.informed_stamp if self.informed_stamp is not None else 0

    @property
    def has_acknowledged(self) -> bool:
        """True at the source once an ack has been heard."""
        return self.acknowledged_local_round is not None
