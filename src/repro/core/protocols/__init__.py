"""Universal deterministic protocols: Algorithm B, B_ack and B_arb."""

from .acknowledged import AcknowledgedBroadcastNode
from .arbitrary import ArbitrarySourceNode, COORDINATOR_LABEL
from .base import UniversalNode
from .broadcast import BroadcastNode

__all__ = [
    "AcknowledgedBroadcastNode",
    "ArbitrarySourceNode",
    "BroadcastNode",
    "COORDINATOR_LABEL",
    "UniversalNode",
]
