"""Anonymous bit-signalling broadcast under collision detection.

The paper's introduction observes that *with* collision detection, broadcast
is trivially feasible even in anonymous networks: "consecutive bits of the
source message can be transmitted by a sequence of silent and noisy rounds,
using silence as 0 and a message or collision as 1".  This baseline makes that
folklore remark concrete:

* The source serialises µ as a bit string prefixed by a fixed-width length
  header, and emits one *symbol* every ``SLOT = 3`` rounds: in the first round
  of a slot it transmits (anything) iff the symbol is 1, otherwise it stays
  silent.
* A node that hears its first energy (a message or a detected collision)
  learns its slot alignment; from then on it decodes symbol ``k`` from round
  ``t0 + 3k`` and *relays* it in round ``t0 + 3k + 1`` (transmit iff 1).
* Because relays are delayed by exactly one round per hop while slots are
  three rounds apart, the transmissions a node hears in its listening rounds
  all come from the previous BFS layer and all carry the same symbol value, so
  the OR-channel (silence/noise) delivers the stream uncorrupted.

The resulting scheme uses **no labels at all** (every node gets the same empty
role), needs ``3·(len(µ) + header) + D`` rounds, and — crucially — requires
the collision-detection channel variant; running it under the paper's default
no-detection model makes it fail, which the tests demonstrate.
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..radio.messages import Message, source_message
from ..radio.node import RadioNode

__all__ = [
    "SLOT_LENGTH",
    "LENGTH_HEADER_BITS",
    "encode_payload_bits",
    "decode_payload_bits",
    "BitSignalNode",
]

#: Rounds per transmitted symbol (1 transmit round + 2 guard rounds).
SLOT_LENGTH = 3
#: Fixed-width header carrying the payload length in bits.
LENGTH_HEADER_BITS = 16


def encode_payload_bits(payload: str) -> List[int]:
    """Serialise a text payload into header + data bits.

    The header is the number of *data* bits as a 16-bit big-endian integer;
    the data is the UTF-8 encoding of the payload.  A leading 1 bit (preamble)
    is added by the node, not here.
    """
    data = payload.encode("utf-8")
    data_bits: List[int] = []
    for byte in data:
        data_bits.extend((byte >> (7 - i)) & 1 for i in range(8))
    if len(data_bits) >= (1 << LENGTH_HEADER_BITS):
        raise ValueError("payload too long for the 16-bit length header")
    header_bits = [(len(data_bits) >> (LENGTH_HEADER_BITS - 1 - i)) & 1
                   for i in range(LENGTH_HEADER_BITS)]
    return header_bits + data_bits


def decode_payload_bits(bits: List[int]) -> Optional[str]:
    """Inverse of :func:`encode_payload_bits`; ``None`` if the stream is incomplete."""
    if len(bits) < LENGTH_HEADER_BITS:
        return None
    length = 0
    for b in bits[:LENGTH_HEADER_BITS]:
        length = (length << 1) | b
    data_bits = bits[LENGTH_HEADER_BITS : LENGTH_HEADER_BITS + length]
    if len(data_bits) < length:
        return None
    data = bytearray()
    for i in range(0, length, 8):
        byte = 0
        for b in data_bits[i : i + 8]:
            byte = (byte << 1) | b
        data.append(byte)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


class BitSignalNode(RadioNode):
    """Slot-aligned OR-channel relay node for the bit-signalling broadcast."""

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.payload = source_payload if is_source else None
        # Source: [preamble 1] + header + data, one symbol per slot.
        self.symbols: Optional[List[int]] = (
            [1] + encode_payload_bits(str(source_payload)) if is_source else None
        )
        self.start_local_round: Optional[int] = None
        self.received_symbols: List[int] = []
        self.decoded: Optional[str] = str(source_payload) if is_source else None

    # ------------------------------------------------------------------ #
    def decide(self, local_round: int) -> Optional[Message]:
        """Source: emit symbol k at its slot.  Relay: echo symbol k one round later."""
        if self.is_source:
            if self.start_local_round is None:
                self.start_local_round = local_round
            k, offset = divmod(local_round - self.start_local_round, SLOT_LENGTH)
            if offset == 0 and self.symbols is not None and 0 <= k < len(self.symbols):
                if self.symbols[k] == 1:
                    return source_message("1")
            return None
        if self.start_local_round is None:
            return None
        k, offset = divmod(local_round - self.start_local_round, SLOT_LENGTH)
        # Relay symbol k one round after our listening round for it.
        if offset == 1 and 0 <= k < len(self.received_symbols):
            if self.received_symbols[k] == 1:
                return source_message("1")
        return None

    # ------------------------------------------------------------------ #
    def deliver(self, local_round, sent, heard, collision_detected=False) -> None:  # type: ignore[override]
        """Record the OR-channel observation for our listening rounds."""
        super().deliver(local_round, sent, heard, collision_detected)
        if self.is_source or sent is not None:
            return
        energy = heard is not None or collision_detected
        if self.start_local_round is None:
            if energy:
                # First energy ever: this is the preamble; slot 0 starts now.
                self.start_local_round = local_round
                self.received_symbols = [1]
            return
        k, offset = divmod(local_round - self.start_local_round, SLOT_LENGTH)
        if offset == 0 and k == len(self.received_symbols):
            self.received_symbols.append(1 if energy else 0)
            if self.decoded is None:
                self.decoded = decode_payload_bits(self.received_symbols[1:])

    @property
    def has_decoded(self) -> bool:
        """True once the node has reconstructed the full payload."""
        return self.decoded is not None
