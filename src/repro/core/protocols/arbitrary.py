"""Algorithm B_arb — broadcast from an arbitrary (undesignated) source (Section 4).

The labeling scheme λ_arb does not know which node will hold the source
message.  It picks an arbitrary *coordinator* ``r``, gives it the reserved
label ``111``, and labels everybody else with λ_ack computed as if ``r`` were
the source.  The universal algorithm then runs three phases, all rooted at
``r`` (whose label tells it to act as coordinator):

1. **initialize** — an acknowledged broadcast (B_ack) of an "initialize"
   message from ``r``.  Every node ``v`` records ``t_v``, the round stamp of
   the first "initialize" it hears (``t_r = 0``).  The acknowledger ``z``
   appends ``T = t_z`` to its ack, so when the chain reaches ``r`` the
   coordinator knows ``T`` — the number of rounds a broadcast from ``r`` needs
   to reach the whole network.
2. **ready** — an acknowledged broadcast of ``("ready", T)`` from ``r``, with
   the modification that ``z`` stays silent; instead the *actual source*
   ``s_G`` (the node that holds µ), after receiving "ready" and waiting ``T``
   rounds, starts the acknowledgement chain and appends µ to it.  When the
   chain reaches ``r``, the coordinator knows µ, and every node knows ``T``.
3. **broadcast** — a plain B broadcast of µ from ``r``.  Node ``v`` receives µ
   exactly ``t_v`` rounds into the phase and then waits ``T − t_v`` rounds, so
   all nodes learn that broadcast is complete in a *common* round.

Two corner cases the paper leaves implicit are handled explicitly (see
"Deviations from the paper" in the README):

* **Ack-chain run-off.**  The coordinator may overhear an intermediate ack of
  a still-running chain (a relayer that happens to be its neighbour).  If it
  started the next phase immediately, the remaining chain hops could collide
  with the new broadcast.  The coordinator therefore waits ``T`` extra rounds
  after hearing an ack before starting the next phase; ``T`` always exceeds
  the remaining chain length, so the guard preserves correctness and only adds
  ``O(n)`` rounds.
* **The coordinator holds the message** (``s_G = r``).  Then ``r`` never hears
  the phase-2 "ready" message itself, so nobody would start the phase-2 ack.
  Since ``r`` already has µ, it simply skips waiting for that ack: it still
  broadcasts ``("ready", T)`` so every node learns ``T``, waits ``T`` rounds
  for that broadcast to finish, and proceeds to phase 3.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

from ...radio.messages import (
    ACK,
    INITIALIZE,
    Message,
    READY,
    SOURCE,
    ack_message,
    initialize_message,
    ready_message,
    source_message,
    stay_message,
)
from .base import UniversalNode

__all__ = ["ArbitrarySourceNode", "COORDINATOR_LABEL"]

#: The reserved coordinator label (never produced by λ_ack — Fact 3.1).
COORDINATOR_LABEL = "111"

#: The message kinds that act as "the payload being broadcast" in each phase.
_BROADCAST_KINDS = (INITIALIZE, READY, SOURCE)


class _PhaseState:
    """Per-phase B_ack bookkeeping local to one node."""

    __slots__ = ("informed_local", "informed_stamp", "payload", "transmit_stamps")

    def __init__(self) -> None:
        self.informed_local: Optional[int] = None
        self.informed_stamp: Optional[int] = None
        self.payload: Any = None
        self.transmit_stamps: Set[int] = set()

    @property
    def informed(self) -> bool:
        return self.informed_local is not None


class ArbitrarySourceNode(UniversalNode):
    """Per-node state machine implementing B_arb.

    ``is_source`` marks the node that initially holds µ (the paper's ``s_G``);
    the coordinator role is recognised purely from the label ``111``.
    """

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.is_coordinator = label == COORDINATOR_LABEL
        self.holds_message = is_source
        self.t_v: Optional[int] = 0 if self.is_coordinator else None
        self.T: Optional[int] = None
        self.phase: Dict[str, _PhaseState] = {kind: _PhaseState() for kind in _BROADCAST_KINDS}
        self.completion_known_local_round: Optional[int] = None
        # Coordinator scheduling state.
        self._clock_origin: Optional[int] = None
        self._scheduled_ready_round: Optional[int] = None
        self._scheduled_source_round: Optional[int] = None
        self._ready_sent_local_round: Optional[int] = None
        self._learned_payload: Any = source_payload if is_source else None
        # Actual-source scheduling state (phase-2 ack timer).
        self._scheduled_source_ack_round: Optional[int] = None

    # ------------------------------------------------------------------ #
    # decision rule
    # ------------------------------------------------------------------ #
    def decide(self, local_round: int) -> Optional[Message]:
        """Evaluate the B_arb round body (coordinator rules first, then the
        shared B_ack rules)."""
        msg = self._coordinator_decision(local_round)
        if msg is not None:
            return msg

        # The actual source starts the phase-2 acknowledgement after its timer.
        if self._scheduled_source_ack_round == local_round:
            ready = self.phase[READY]
            return ack_message(ready.informed_stamp or 0, payload=self._learned_payload)

        # Shared B_ack rules, evaluated per phase (phases never overlap in time).
        for kind in _BROADCAST_KINDS:
            ph = self.phase[kind]
            if not ph.informed:
                continue
            # Informed two rounds ago: join the dominating set if x1.
            if ph.informed_local == local_round - 2 and self.bits.x1 == 1:
                stamp = (ph.informed_stamp or 0) + 2
                ph.transmit_stamps.add(stamp)
                return Message(kind, payload=ph.payload, round_stamp=stamp)
            # Informed one round ago: start the ack (phase 1, x3) or send "stay" (x2).
            if ph.informed_local == local_round - 1:
                if kind == INITIALIZE and self.bits.x3 == 1:
                    # z appends T = t_z to the ack so it survives relaying.
                    return ack_message(ph.informed_stamp or 0, payload=ph.informed_stamp or 0)
                if self.bits.x2 == 1:
                    return stay_message(round_stamp=(ph.informed_stamp or 0) + 1)

        # Stay-triggered retransmission: heard "stay" one round after transmitting
        # a broadcast payload.  Works for every phase and also for the coordinator
        # (the phase source), exactly as in B / B_ack.
        stay = self.heard_kind_in(local_round - 1, "stay")
        if stay is not None:
            previous = self.sent_in(local_round - 2)
            if previous is not None and previous.kind in _BROADCAST_KINDS:
                stamp = (stay.round_stamp or 0) + 1
                if not self.is_coordinator:
                    self.phase[previous.kind].transmit_stamps.add(stamp)
                return Message(previous.kind, payload=previous.payload, round_stamp=stamp)

        # Ack relaying: heard (ack, k) and k is one of our payload-transmission rounds.
        ack = self.heard_kind_in(local_round - 1, "ack")
        if ack is not None and not self.is_coordinator and ack.round_stamp is not None:
            for kind in _BROADCAST_KINDS:
                ph = self.phase[kind]
                if ack.round_stamp in ph.transmit_stamps:
                    return ack_message(ph.informed_stamp or 0, payload=ack.payload)

        return None

    def _coordinator_decision(self, local_round: int) -> Optional[Message]:
        """Phase-starting transmissions of the coordinator ``r``."""
        if not self.is_coordinator:
            return None
        # Phase 1: transmit "initialize" spontaneously in the first active round.
        if not self.ever_communicated:
            self._clock_origin = local_round
            return initialize_message(round_stamp=1)
        # Phase 2: broadcast ("ready", T) once the guard delay has elapsed.
        if self._scheduled_ready_round == local_round and self.T is not None:
            self._ready_sent_local_round = local_round
            if self.holds_message:
                # r is itself the source: it will never hear a phase-2 ack, so
                # schedule phase 3 directly after the ready broadcast finishes.
                self._scheduled_source_round = local_round + self.T + 1
            return ready_message(self.T, round_stamp=self._global_round(local_round))
        # Phase 3: broadcast µ with plain B once it is known and the guard elapsed.
        if self._scheduled_source_round == local_round and self._learned_payload is not None:
            if self.T is not None:
                self.completion_known_local_round = local_round + self.T - 1
            return source_message(self._learned_payload,
                                  round_stamp=self._global_round(local_round))
        return None

    # ------------------------------------------------------------------ #
    # reception
    # ------------------------------------------------------------------ #
    def on_receive(self, local_round: int, message: Message) -> None:
        """Record phase receipts, timers and the coordinator's ack handling."""
        if message.kind in _BROADCAST_KINDS:
            self._receive_broadcast_payload(local_round, message)
        elif message.is_ack:
            self._receive_ack(local_round, message)

    def _receive_broadcast_payload(self, local_round: int, message: Message) -> None:
        if self.is_coordinator:
            # The coordinator originated these broadcasts; overheard copies
            # carry no new information for it.
            return
        ph = self.phase[message.kind]
        if ph.informed:
            return
        ph.informed_local = local_round
        ph.informed_stamp = message.round_stamp
        ph.payload = message.payload
        if message.kind == INITIALIZE:
            self.t_v = message.round_stamp
        elif message.kind == READY:
            self.T = int(message.payload)
            if self.holds_message:
                # The actual source waits T rounds, then starts the phase-2 ack.
                self._scheduled_source_ack_round = local_round + self.T + 1
        elif message.kind == SOURCE:
            self.record_source_receipt(local_round, message)
            if self.T is not None and self.t_v is not None:
                self.completion_known_local_round = local_round + (self.T - self.t_v)

    def _receive_ack(self, local_round: int, message: Message) -> None:
        if not self.is_coordinator:
            return
        if self.T is None:
            # First ack of phase 1: learn T, schedule phase 2 after the guard delay.
            self.T = int(message.payload) if message.payload is not None else 0
            self._scheduled_ready_round = local_round + self.T + 1
            return
        if (
            self._ready_sent_local_round is not None
            and local_round > self._ready_sent_local_round
            and self._scheduled_source_round is None
        ):
            # First ack of phase 2: learn µ, schedule phase 3 after the guard delay.
            self._learned_payload = message.payload
            self.sourcemsg = message.payload
            self._scheduled_source_round = local_round + (self.T or 0) + 1

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _global_round(self, local_round: int) -> int:
        """Round number on the clock that started at 1 with the coordinator's
        first transmission (only meaningful for the coordinator)."""
        if self._clock_origin is None:
            return local_round
        return local_round - self._clock_origin + 1

    @property
    def knows_completion(self) -> bool:
        """True once the node knows (in a common round) that broadcast finished."""
        return self.completion_known_local_round is not None
