"""Algorithm B — the universal broadcast algorithm of Section 2 (Algorithm 1).

Every node runs the same deterministic rule, knowing only its 2-bit label
``x1 x2`` and its own history:

* The source transmits µ in its first round (it has the message and has never
  sent or received anything).
* A node that does not yet know µ listens; the first non-"stay" message it
  hears *is* µ.
* A node that first received µ two rounds ago transmits µ now iff ``x1 = 1``
  (it joins the dominating set).
* A node that first received µ one round ago transmits the constant-size
  "stay" message now iff ``x2 = 1`` (it tells its dominator to stay).
* A node that transmitted µ two rounds ago and heard "stay" one round ago
  transmits µ again (it stays in the dominating set).

Together with the labeling scheme λ this informs every node within ``2n − 3``
rounds (Theorem 2.9); Lemma 2.8 characterises exactly who transmits and who is
newly informed in every round, and :mod:`repro.core.verify` checks our traces
against that characterisation.
"""

from __future__ import annotations

from typing import Optional

from ...radio.messages import Message, source_message, stay_message
from .base import UniversalNode

__all__ = ["BroadcastNode"]


class BroadcastNode(UniversalNode):
    """Per-node state machine implementing Algorithm 1."""

    def decide(self, local_round: int) -> Optional[Message]:
        """Apply the Algorithm 1 round body at the start of ``local_round``."""
        # Lines 2-3: the source transmits µ in its first active round.
        if not self.ever_communicated and self.knows_source_message:
            return source_message(self.sourcemsg)

        # Lines 4-7: uninformed nodes listen (reception handled in on_receive).
        if not self.knows_source_message:
            return None

        # Lines 9-12: newly informed two rounds ago — join the dominating set if x1.
        if self.first_received_in(local_round - 2):
            if self.bits.x1 == 1:
                return source_message(self.sourcemsg)
            return None

        # Lines 13-16: newly informed one round ago — ask the dominator to stay if x2.
        if self.first_received_in(local_round - 1):
            if self.bits.x2 == 1:
                return stay_message()
            return None

        # Lines 17-19: stayed in the dominating set — retransmit µ.
        if (
            self.sent_kind_in(local_round - 2, "source") is not None
            and self.heard_kind_in(local_round - 1, "stay") is not None
        ):
            return source_message(self.sourcemsg)

        return None

    def on_receive(self, local_round: int, message: Message) -> None:
        """Lines 5-7: adopt the first non-"stay" message heard as µ."""
        if not self.knows_source_message and not message.is_stay:
            self.record_source_receipt(local_round, message)
