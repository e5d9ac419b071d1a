"""Metrics extracted from executions, in a report-friendly flat form.

Everything the benchmark tables print is computed here from the unified
:class:`~repro.core.outcome.Outcome` — paper schemes and baselines share one
schema, so :func:`metrics_from_run` is the only flattener.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as _dataclass_fields
from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..core.outcome import Outcome
from ..graphs.graph import Graph
from ..graphs.properties import source_radius
from ..radio.trace import ExecutionTrace

__all__ = [
    "RunMetrics",
    "METRIC_FIELDS",
    "METRIC_STRING_FIELDS",
    "METRIC_OPTIONAL_INT_FIELDS",
    "METRIC_INT_FIELDS",
    "metrics_from_run",
    "message_bits_total",
    "per_round_transmitter_counts",
    "aggregate",
]


@dataclass(frozen=True)
class RunMetrics:
    """One row of a results table.

    ``fault`` / ``clock`` are short spec tags identifying the channel
    perturbation the run executed under (``"none"`` / ``"sync"`` for the
    paper's reliable synchronized model); they make rows from multi-axis
    grids (see :func:`repro.api.run_grid`) self-describing.

    ``status`` is ``"ok"`` for a completed execution.  Under
    ``run_grid(..., strict=False)`` (CLI ``--keep-going``) a failing cell is
    recorded as a row with ``status="error:<ExceptionName>"`` and zeroed
    measurements instead of aborting the sweep.

    ``backend`` is execution *provenance*: the registry name of the engine
    that actually ran the cell — which differs from the requested backend
    whenever a task rode a fallback (e.g. a B_arb cell under a non-default
    clock model dispatched to ``vectorized`` executes on the reference
    engine).  It is excluded from row equality (``compare=False``): the
    differential suites assert that backends agree on *measurements*, and
    provenance is metadata about how the row was produced, not part of the
    result.
    """

    scheme: str
    family: str
    n: int
    source_eccentricity: int
    label_bits: int
    distinct_labels: int
    completion_round: Optional[int]
    bound: Optional[int]
    acknowledgement_round: Optional[int]
    transmissions: int
    collisions: int
    total_message_bits: int
    fault: str = "none"
    clock: str = "sync"
    backend: str = field(default="", compare=False)
    status: str = "ok"

    @property
    def ok(self) -> bool:
        """True when the row records a successful execution."""
        return self.status == "ok"

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view for the report renderer and the store, in field
        order.  Every field is a scalar, so this is ``dataclasses.asdict``
        without its recursive copy."""
        return {name: getattr(self, name) for name in METRIC_FIELDS}

    @property
    def within_bound(self) -> Optional[bool]:
        """True/False when both the completion round and the bound are known."""
        if self.completion_round is None or self.bound is None:
            return None
        return self.completion_round <= self.bound


#: The row schema, in dataclass field order — the single source of truth the
#: columnar containers (ResultSet, the binary segment format, the streaming
#: aggregator) all derive their column typing from.
METRIC_FIELDS = tuple(f.name for f in _dataclass_fields(RunMetrics))
#: Short string tags.
METRIC_STRING_FIELDS = ("scheme", "family", "fault", "clock", "backend", "status")
#: ``Optional[int]`` fields: stored as int64 + a boolean validity mask.
METRIC_OPTIONAL_INT_FIELDS = ("completion_round", "bound", "acknowledgement_round")
#: Mandatory integer counters (everything that is neither a tag nor optional).
METRIC_INT_FIELDS = tuple(
    f for f in METRIC_FIELDS
    if f not in METRIC_STRING_FIELDS and f not in METRIC_OPTIONAL_INT_FIELDS
)


def message_bits_total(trace: ExecutionTrace, source_payload_bits: int = 32) -> int:
    """Total bits put on the channel over the execution (paper's accounting).

    The trace maintains the bit total incrementally at every trace level, so
    summary traces report it without per-round records.
    """
    return trace.total_message_bits(source_payload_bits)


def per_round_transmitter_counts(trace: ExecutionTrace) -> np.ndarray:
    """Vector of transmitter counts per round (length = number of rounds)."""
    return np.array([r.num_transmitters for r in trace.rounds], dtype=np.int64)


def metrics_from_run(
    graph: Graph,
    outcome: Outcome,
    *,
    family: str = "unknown",
    source: Optional[int] = None,
    fault: str = "none",
    clock: str = "sync",
    backend: Optional[str] = None,
    source_eccentricity: Optional[int] = None,
) -> RunMetrics:
    """Flatten any unified :class:`Outcome` into a :class:`RunMetrics` row.

    ``backend`` overrides the provenance tag; by default it is read from
    ``outcome.extras["executed_by"]``, which :meth:`repro.api.Scheme.run`
    stamps with the engine that actually executed the task.
    ``source_eccentricity`` is the source's radius when the caller already
    has it (the grid runner computes it once per instance); by default it is
    one BFS from the source.
    """
    if source_eccentricity is None:
        src = source
        if src is None and outcome.labeling is not None:
            src = outcome.labeling.source
        if src is None:
            src = outcome.extras.get("coordinator", 0)
        source_eccentricity = source_radius(graph, src) if graph.n > 0 else 0
    if backend is None:
        backend = outcome.extras.get("executed_by") or ""
    return RunMetrics(
        scheme=outcome.scheme,
        family=family,
        n=graph.n,
        source_eccentricity=source_eccentricity,
        label_bits=outcome.label_bits,
        distinct_labels=outcome.distinct_labels,
        completion_round=outcome.completion_round,
        bound=outcome.bound_broadcast,
        acknowledgement_round=outcome.acknowledgement_round,
        transmissions=outcome.total_transmissions,
        collisions=outcome.total_collisions,
        total_message_bits=message_bits_total(outcome.trace),
        fault=fault,
        clock=clock,
        backend=backend,
    )


def aggregate(rows: Sequence[RunMetrics], field: str) -> Dict[str, float]:
    """Mean / min / max of a numeric field across rows (``None`` values skipped)."""
    values = [getattr(r, field) for r in rows if getattr(r, field) is not None]
    if not values:
        return {"mean": float("nan"), "min": float("nan"), "max": float("nan"), "count": 0}
    arr = np.asarray(values, dtype=float)
    return {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "count": int(arr.size),
    }
