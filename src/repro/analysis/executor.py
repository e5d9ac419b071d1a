"""Grid execution helpers: the cell-failure error and deterministic chunking.

The process-pool fan-out lives in :mod:`repro.api.grid`: work units are plain
serializable cell specs (``family, size, rep, fault_spec, clock_spec``) that
workers rematerialize, which keeps results deterministic and independent of
the job count.  This module keeps the error a failing cell raises and the
chunking helpers (pure functions of the spec list, never of scheduling
order).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Sequence, TypeVar

__all__ = ["GridExecutionError", "default_jobs", "chunk_specs"]

_Spec = TypeVar("_Spec")


class GridExecutionError(RuntimeError):
    """One grid cell failed: the error names the failing scenario spec.

    Work units cross the process-pool boundary as opaque chunks, so a bare
    exception from a worker used to surface as a pool traceback with no hint
    of *which* (scheme, graph, seed) cell died.  The grid layer wraps any
    cell failure in this error, whose message and :attr:`spec` dict carry the
    scheme name, graph family/size/seed, source and fault/clock tags.

    The explicit ``__reduce__`` keeps the message, the spec and the store key
    intact when the exception is pickled back from a worker process.

    :attr:`store_key` is the failing cell's content-addressed result-store
    key (see :mod:`repro.store.keys`), so a failure in a store-backed sweep
    names exactly which cache entry the retry will compute; it is also
    mirrored into ``spec["store_key"]``.
    """

    def __init__(
        self,
        message: str,
        spec: Optional[Dict[str, Any]] = None,
        store_key: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.spec: Dict[str, Any] = dict(spec or {})
        self.store_key: Optional[str] = store_key
        if store_key is not None:
            self.spec.setdefault("store_key", store_key)

    def __reduce__(self):
        return (
            type(self),
            (str(self.args[0]) if self.args else "", self.spec, self.store_key),
        )


def default_jobs() -> int:
    """Job count used for ``jobs=None``: the machine's CPU count."""
    return max(1, os.cpu_count() or 1)


def chunk_specs(specs: Sequence[_Spec], chunk_size: int) -> List[List[_Spec]]:
    """Split instance specs into contiguous chunks of at most ``chunk_size``.

    Chunk boundaries depend only on the spec order and the chunk size, so the
    work distribution (and therefore the merged output order) is independent
    of how many workers end up executing the chunks.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [list(specs[i : i + chunk_size]) for i in range(0, len(specs), chunk_size)]
