"""Round-synchronous radio-network simulator (the paper's §1.1 model).

Public surface::

    from repro.radio import RadioSimulator, Message, RadioNode

Library code runs protocols as :class:`~repro.backends.base.SimulationTask`
data on a backend; building a :class:`RadioSimulator` directly is for
engine-level experiments with custom :class:`RadioNode` classes.
"""

from .clock import ClockModel, OffsetClocks, SynchronizedClocks, random_offsets
from .collision import CollisionModel, NoCollisionDetection, WithCollisionDetection
from .engine import NodeFactory, RadioSimulator, SimulationResult
from .faults import (
    CompositeFaults,
    CrashFaults,
    FaultModel,
    NoFaults,
    TransmissionDropFaults,
)
from .messages import (
    ACK,
    INITIALIZE,
    Message,
    READY,
    SOURCE,
    STAY,
    ack_message,
    initialize_message,
    message_size_bits,
    ready_message,
    source_message,
    stay_message,
)
from .node import HistoryEntry, RadioNode, SilentNode
from .trace import (
    TRACE_FULL,
    TRACE_LEVELS,
    TRACE_NONE,
    TRACE_SUMMARY,
    ExecutionTrace,
    RoundRecord,
    TraceLevelError,
)

__all__ = [
    "ACK",
    "INITIALIZE",
    "READY",
    "SOURCE",
    "STAY",
    "TRACE_FULL",
    "TRACE_LEVELS",
    "TRACE_NONE",
    "TRACE_SUMMARY",
    "TraceLevelError",
    "ClockModel",
    "CollisionModel",
    "CompositeFaults",
    "CrashFaults",
    "ExecutionTrace",
    "FaultModel",
    "HistoryEntry",
    "Message",
    "NoCollisionDetection",
    "NoFaults",
    "NodeFactory",
    "OffsetClocks",
    "RadioNode",
    "RadioSimulator",
    "RoundRecord",
    "SilentNode",
    "SimulationResult",
    "SynchronizedClocks",
    "TransmissionDropFaults",
    "WithCollisionDetection",
    "ack_message",
    "initialize_message",
    "message_size_bits",
    "random_offsets",
    "ready_message",
    "source_message",
    "stay_message",
]
