"""High-level entry points tying labeling schemes, protocols and the simulator.

These are the classic per-scheme convenience functions:

* :func:`run_broadcast` — label a graph with λ and execute Algorithm B.
* :func:`run_acknowledged_broadcast` — λ_ack + B_ack.
* :func:`run_arbitrary_source_broadcast` — λ_arb + B_arb (source unknown when
  labeling).

Since the unified experiment API landed, each is a thin wrapper over the
scheme registry (:mod:`repro.api.schemes`): the labeler / task-builder /
outcome-deriver logic lives in the registered :class:`~repro.api.schemes.
Scheme` classes, and all three functions return the unified
:class:`~repro.core.outcome.Outcome`.  Prefer ``repro.api.run`` /
``get_scheme(...).run`` for new code — those also cover the four baselines
with the same calling convention.

Every entry point accepts a ``backend`` (``"reference"``, ``"vectorized"``,
or a :class:`~repro.backends.base.SimulationBackend` instance) and a
``trace_level`` (``"full"`` / ``"summary"`` / ``"none"``).  The default is
the faithful object engine with full traces; sweeps and benchmarks pass
``backend="vectorized", trace_level="summary"`` for speed.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..backends import SimulationBackend
from ..graphs.graph import Graph
from ..radio.clock import ClockModel
from ..radio.faults import FaultModel
from .labeling import Labeling
from .outcome import Outcome

__all__ = [
    "run_broadcast",
    "run_acknowledged_broadcast",
    "run_arbitrary_source_broadcast",
]

BackendSpec = Optional[Union[str, SimulationBackend]]


def run_broadcast(
    graph: Graph,
    source: int,
    *,
    payload: Any = "MSG",
    strategy: str = "prune",
    labeling: Optional[Labeling] = None,
    max_rounds: Optional[int] = None,
    fault_model: Optional[FaultModel] = None,
    clock_model: Optional[ClockModel] = None,
    backend: BackendSpec = None,
    trace_level: str = "full",
) -> Outcome:
    """Label ``graph`` with λ and execute Algorithm B from ``source``.

    Parameters
    ----------
    graph, source:
        Connected network and designated source.
    payload:
        The source message µ.
    strategy:
        Domination strategy for the labeling scheme.
    labeling:
        Reuse a precomputed λ labeling (must match graph and source).
    max_rounds:
        Round budget; defaults to the theoretical bound plus slack.
    fault_model / clock_model:
        Optional channel perturbations (see :mod:`repro.radio`).
    backend / trace_level:
        Execution engine and trace recording level (see module docstring).
    """
    from ..api.schemes import get_scheme

    return get_scheme("lambda").run(
        graph, source, payload=payload, strategy=strategy, labeling=labeling,
        max_rounds=max_rounds, fault_model=fault_model, clock_model=clock_model,
        backend=backend, trace_level=trace_level,
    )


def run_acknowledged_broadcast(
    graph: Graph,
    source: int,
    *,
    payload: Any = "MSG",
    strategy: str = "prune",
    labeling: Optional[Labeling] = None,
    max_rounds: Optional[int] = None,
    fault_model: Optional[FaultModel] = None,
    clock_model: Optional[ClockModel] = None,
    backend: BackendSpec = None,
    trace_level: str = "full",
) -> Outcome:
    """Label ``graph`` with λ_ack and execute Algorithm B_ack from ``source``."""
    from ..api.schemes import get_scheme

    return get_scheme("lambda_ack").run(
        graph, source, payload=payload, strategy=strategy, labeling=labeling,
        max_rounds=max_rounds, fault_model=fault_model, clock_model=clock_model,
        backend=backend, trace_level=trace_level,
    )


def run_arbitrary_source_broadcast(
    graph: Graph,
    true_source: int,
    *,
    payload: Any = "MSG",
    coordinator: Optional[int] = None,
    strategy: str = "prune",
    labeling: Optional[Labeling] = None,
    max_rounds: Optional[int] = None,
    fault_model: Optional[FaultModel] = None,
    clock_model: Optional[ClockModel] = None,
    backend: BackendSpec = None,
    trace_level: str = "full",
) -> Outcome:
    """Label ``graph`` with λ_arb (source unknown) and execute B_arb.

    ``true_source`` is the node that actually holds µ at run time; the labeling
    does not get to see it.  The returned outcome's ``completion_round`` is the
    round by which every node other than the coordinator has heard µ in the
    final phase-3 broadcast, and ``common_completion_round`` is the common
    round in which every node knows the broadcast has completed.
    """
    from ..api.schemes import get_scheme

    return get_scheme("lambda_arb").run(
        graph, true_source, payload=payload, coordinator=coordinator,
        strategy=strategy, labeling=labeling, max_rounds=max_rounds,
        fault_model=fault_model, clock_model=clock_model,
        backend=backend, trace_level=trace_level,
    )
