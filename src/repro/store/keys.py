"""Content-addressed cache keys for grid cells.

Every grid row (one scheme run on one fault/clock cell of one instance) is
identified by a stable key: the SHA-256 of the canonical JSON encoding of all
the inputs that determine the row's value — scheme, graph family, requested
size, derived instance seed, source rule, payload, normalized fault/clock
specs, backend name, trace level and the result-schema version.  Two runs
with identical key fields are guaranteed to produce identical
:class:`~repro.analysis.metrics.RunMetrics` rows (the equivalence suites
assert backends agree, and instance seeds are derived deterministically), so
a :class:`~repro.store.store.ResultStore` can skip every cell whose key it
already holds.

Deliberately *not* part of the key: ``jobs`` and ``chunk_size`` — rows are
independent of both by construction — so a sweep resumed with different
parallelism still hits the cache.  The backend name is part of the key, so
rows stored under a retired engine's name (``batched``, ``sharded``,
``ell``) keep their keys and stay readable by key; no current backend
writes them.

Bumping :data:`SCHEMA_VERSION` (done whenever the meaning of a stored row
changes) invalidates every previously stored row *by construction*: old rows
keep their old keys and simply never match again.

This module depends only on the standard library so the store layer never
participates in the api/analysis import cycle; callers pass fault/clock specs
already normalized by :mod:`repro.api.specs`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

__all__ = ["SCHEMA_VERSION", "canonical_payload", "normalize_backend_name", "unit_key"]

#: Version of the stored row schema.  Part of every key: bump it to
#: invalidate all previously cached rows (e.g. when RunMetrics gains a field
#: whose value older rows cannot supply).
#: 2: RunMetrics gained the ``backend`` execution-provenance column.
SCHEMA_VERSION = 2


def canonical_payload(payload: Any) -> str:
    """A stable JSON encoding of the source payload µ (stringified fallback)."""
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError):
        return json.dumps(str(payload))


def normalize_backend_name(backend: Any) -> str:
    """Reduce a backend spec (name / instance / ``None``) to its registry name."""
    if backend is None:
        return "reference"
    return backend if isinstance(backend, str) else str(getattr(backend, "name", backend))


def unit_key(
    *,
    scheme: str,
    family: str,
    size: int,
    seed: int,
    source_rule: str,
    payload: Any,
    fault_spec: Optional[Dict[str, Any]],
    clock_spec: Optional[Dict[str, Any]],
    backend: Any = None,
    trace_level: str = "summary",
    schema_version: int = SCHEMA_VERSION,
) -> str:
    """The content-addressed key of one grid row.

    ``fault_spec`` / ``clock_spec`` must already be in canonical dict form
    (``None`` for the paper's default channel), as produced by
    :func:`repro.api.specs.normalize_fault_spec` /
    :func:`~repro.api.specs.normalize_clock_spec` — :class:`repro.api.GridConfig`
    normalizes its axes on construction, so grid callers can pass them through.
    """
    doc = {
        "schema": int(schema_version),
        "scheme": str(scheme),
        "family": str(family),
        "n": int(size),
        "seed": int(seed),
        "source_rule": str(source_rule),
        "payload": canonical_payload(payload),
        "fault": fault_spec,
        "clock": clock_spec,
        "backend": normalize_backend_name(backend),
        "trace_level": str(trace_level),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
