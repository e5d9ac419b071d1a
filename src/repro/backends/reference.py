"""The faithful per-node object engine, wrapped as a backend.

This is the paper's model executed literally: one :class:`~repro.radio.node.
RadioNode` per node, a Python ``decide``/``deliver`` cycle per round.  It is
the ground truth every other backend is tested against, and the only backend
that supports every fault/clock/collision model.  Three tables beside each
other describe how it runs a task: each protocol's node class, each
:data:`~repro.backends.base.STOP_RULES` entry as a predicate over the
simulator and its node objects, and each protocol's ``derived`` outcomes as
read off the trace and node objects — the keys and values the array kernels
return.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Type

from ..baselines.base import SlottedNode
from ..baselines.centralized import ScheduledNode, transmit_rounds
from ..baselines.collision_detection import BitSignalNode
from ..core.protocols.acknowledged import AcknowledgedBroadcastNode
from ..core.protocols.arbitrary import ArbitrarySourceNode
from ..core.protocols.broadcast import BroadcastNode
from ..radio.engine import RadioSimulator, SimulationResult
from ..radio.node import RadioNode
from .base import BackendResult, SimulationBackend, SimulationTask

__all__ = ["ReferenceBackend"]

#: The node class every node runs under each protocol.
_NODE_CLASSES: Dict[str, Type[RadioNode]] = {
    "broadcast": BroadcastNode,
    "acknowledged": AcknowledgedBroadcastNode,
    "arbitrary": ArbitrarySourceNode,
    "round_robin": SlottedNode,
    "coloring_tdma": SlottedNode,
    "centralized": ScheduledNode,
    "collision_detection": BitSignalNode,
}

_STOP_PREDICATES: Dict[str, Callable[[RadioSimulator], bool]] = {
    "all_informed": lambda sim: len(sim.trace.informed_nodes()) == sim.graph.n,
    "acknowledged": lambda sim: sim.trace.first_ack_at(sim.source) is not None,
    "arb_complete": lambda sim: all(
        getattr(node, "knows_completion", False) for node in sim.nodes),
    "all_decoded": lambda sim: all(
        getattr(node, "has_decoded", False) for node in sim.nodes),
}


def _completion(task: SimulationTask, sim: SimulationResult) -> Dict[str, Any]:
    return {"completion_round": sim.trace.broadcast_completion_round()}


def _acknowledged(task: SimulationTask, sim: SimulationResult) -> Dict[str, Any]:
    return {
        "completion_round": sim.trace.broadcast_completion_round(),
        "acknowledgement_round": sim.trace.first_ack_at(task.source),
    }


def _arbitrary(task: SimulationTask, sim: SimulationResult) -> Dict[str, Any]:
    """B_arb's headline rounds.

    Completion for B_arb: every node other than the coordinator and the true
    source hears µ via a SOURCE message in phase 3; the true source holds µ
    from the start; the coordinator learns µ from the phase-2 ack payload.
    The trace-level helper (which requires *every* non-source node to hear a
    SOURCE message) would therefore never credit the coordinator, so the
    completion round is assembled here from those three ingredients.
    """
    trace, source, coordinator = sim.trace, task.source, task.extras["coordinator"]
    receipts = [
        trace.first_source_receipt(v)
        for v in range(task.graph.n)
        if v not in (source, coordinator)
    ]
    # The phase-2 ack (the one carrying µ) is the last ack the coordinator
    # hears; the trace tracks it at every level.
    learned = None if coordinator == source else trace.last_ack_at(coordinator)
    completion: Optional[int] = None
    if None not in receipts and (
        coordinator == source or sim.nodes[coordinator].sourcemsg is not None
    ):
        if learned is not None:
            receipts.append(learned)
        completion = max(receipts) if receipts else 1
    common = {node.completion_known_local_round for node in sim.nodes}
    return {
        "completion_round": completion,
        "acknowledgement_round": trace.first_ack_at(coordinator),
        "common_completion_round": common.pop() if len(common) == 1 else None,
    }


def _decoded(task: SimulationTask, sim: SimulationResult) -> Dict[str, Any]:
    payload = str(task.payload)
    return {"decoded_correctly": all(node.decoded == payload for node in sim.nodes)}


#: Each protocol's ``derived`` outcomes, read off the trace and node objects.
_DERIVED: Dict[str, Callable[[SimulationTask, SimulationResult], Dict[str, Any]]] = {
    "broadcast": _completion,
    "acknowledged": _acknowledged,
    "arbitrary": _arbitrary,
    "round_robin": _completion,
    "coloring_tdma": _completion,
    "centralized": _completion,
    "collision_detection": _decoded,
}


class ReferenceBackend(SimulationBackend):
    """Round-synchronous object simulator (see :mod:`repro.radio.engine`)."""

    name = "reference"

    def run_task(self, task: SimulationTask) -> BackendResult:
        node_class = _NODE_CLASSES[task.protocol]
        rounds = None
        if task.protocol == "centralized":
            rounds = transmit_rounds(task.extras["schedule"], task.graph.n)

        def factory(v: int, label: str, is_source: bool, payload: Any) -> RadioNode:
            options = {} if rounds is None else {"transmit_rounds": rounds[v]}
            return node_class(v, label, is_source=is_source, source_payload=payload,
                              **options)

        sim = RadioSimulator(
            task.graph,
            task.labels,
            factory,
            source=task.source,
            source_payload=task.payload,
            collision_model=task.collision_model,
            fault_model=task.fault_model,
            clock_model=task.clock_model,
            trace_level=task.trace_level,
        )
        stop = None if task.stop_rule is None else _STOP_PREDICATES[task.stop_rule]
        result = sim.run(task.max_rounds, stop)
        return BackendResult(simulation=result, derived=_DERIVED[task.protocol](task, result),
                             backend=self.name)
