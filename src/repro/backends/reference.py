"""The faithful per-node object engine, wrapped as a backend.

This is the paper's model executed literally: one :class:`~repro.radio.node.
RadioNode` per node, a Python ``decide``/``deliver`` cycle per round.  It is
the ground truth every other backend is tested against, and the only backend
that supports arbitrary node factories and fault/clock/collision models.
Every :data:`~repro.backends.base.STOP_RULES` entry is a predicate over the
simulator and its node objects.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..radio.engine import RadioSimulator
from .base import BackendError, BackendResult, SimulationBackend, SimulationTask

__all__ = ["ReferenceBackend"]

_STOP_PREDICATES: Dict[str, Callable[[RadioSimulator], bool]] = {
    "all_informed": RadioSimulator.all_informed,
    "acknowledged": RadioSimulator.source_acknowledged,
    "arb_complete": lambda sim: all(
        getattr(node, "knows_completion", False) for node in sim.nodes),
    "all_decoded": lambda sim: all(
        getattr(node, "has_decoded", False) for node in sim.nodes),
}


class ReferenceBackend(SimulationBackend):
    """Round-synchronous object simulator (see :mod:`repro.radio.engine`)."""

    name = "reference"

    def run_task(self, task: SimulationTask) -> BackendResult:
        if task.node_factory is None:
            raise BackendError(
                f"the reference backend needs a node_factory for protocol "
                f"{task.protocol!r}"
            )
        # The object engine materialises RoundRecords either way; "none"
        # degrades to "summary" so stop rules keep working.
        trace_level = "summary" if task.trace_level == "none" else task.trace_level
        sim = RadioSimulator(
            task.graph,
            task.labels,
            task.node_factory,
            source=task.source,
            source_payload=task.payload,
            collision_model=task.collision_model,
            fault_model=task.fault_model,
            clock_model=task.clock_model,
            trace_level=trace_level,
        )
        stop = None if task.stop_rule is None else _STOP_PREDICATES[task.stop_rule]
        result = sim.run(task.max_rounds, stop)
        return BackendResult(simulation=result, derived={}, backend=self.name)
