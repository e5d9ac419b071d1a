"""``run(scenario, scheme)`` — the single entry point for one execution."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.outcome import Outcome
from .scenario import Scenario
from .schemes import Scheme, get_scheme
from .specs import clock_model_from_spec, fault_model_from_spec

__all__ = ["run"]


def run(
    scenario: Union[Scenario, Dict[str, Any], str, Path],
    scheme: Optional[Union[str, Scheme]] = None,
    *,
    backend: Any = None,
    trace_level: Optional[str] = None,
    graph: Any = None,
    source: Optional[int] = None,
) -> Outcome:
    """Execute one scenario with a registered scheme and return the outcome.

    ``scenario`` may be a :class:`Scenario`, a plain dict, or a path to a
    scenario JSON file.  ``scheme`` overrides the scenario's own scheme name;
    ``backend`` / ``trace_level`` override the scenario's execution knobs
    (handy for CLI flags) without mutating the scenario.  Callers that have
    already materialized the scenario's graph (e.g. to report on it) can pass
    ``graph`` / ``source`` to avoid regenerating it.
    """
    if isinstance(scenario, (str, Path)):
        scenario = Scenario.load(scenario)
    elif isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    if graph is None:
        graph = scenario.materialize_graph()
    if source is None:
        source = scenario.resolve_source(graph)
    chosen = get_scheme(scheme if scheme is not None else scenario.scheme)
    return chosen.run(
        graph,
        source,
        payload=scenario.payload,
        max_rounds=scenario.max_rounds,
        fault_model=fault_model_from_spec(scenario.faults),
        clock_model=clock_model_from_spec(scenario.clock, graph.n),
        backend=backend if backend is not None else scenario.backend,
        trace_level=trace_level if trace_level is not None else scenario.trace_level,
        **scenario.options,
    )
