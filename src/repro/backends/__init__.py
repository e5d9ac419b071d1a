"""Pluggable simulation backends.

Public surface::

    from repro.backends import resolve_backend, ReferenceBackend, VectorizedBackend

    backend = resolve_backend("vectorized")
    result = backend.run_task(task)

``resolve_backend`` accepts a backend name (``"reference"`` /
``"vectorized"`` / ``"batched"`` / ``"sharded"`` / ``"ell"``), an existing
backend instance, or ``None`` (the reference default), and returns a shared
instance.  ``vectorized`` and ``batched`` are one engine — the NumPy kernels
of :mod:`repro.backends.batched` — under two names: ``run_task`` runs one
task per kernel call and ``run_batch(tasks)`` stacks many compatible tasks
into one block-diagonal kernel invocation (a grid sweep stacks its small
instances this way by default).  The sharded backend splits *one* large
instance's round loop across a process pool (see
:mod:`repro.backends.sharded`) and accepts a shard count as a spec suffix —
``resolve_backend("sharded:4")`` runs four segment workers.  The ELL
backend (see :mod:`repro.backends.ell`) runs its numba JIT kernels over a
padded fixed-width adjacency table when numba imports, and the vectorized
engine otherwise.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from .base import (
    PROTOCOLS,
    STOP_RULES,
    BackendError,
    BackendResult,
    SimulationBackend,
    SimulationTask,
)
from .reference import ReferenceBackend
from .vectorized import VectorizedBackend
from .batched import BatchedVectorizedBackend
from .sharded import ShardedVectorizedBackend
from .ell import EllAdjacency, EllBackend, jit_available

__all__ = [
    "BACKEND_NAMES",
    "BACKEND_SPECS",
    "BackendError",
    "BackendResult",
    "BatchedVectorizedBackend",
    "EllAdjacency",
    "EllBackend",
    "PROTOCOLS",
    "ReferenceBackend",
    "STOP_RULES",
    "ShardedVectorizedBackend",
    "SimulationBackend",
    "SimulationTask",
    "VectorizedBackend",
    "jit_available",
    "resolve_backend",
]

_BACKEND_CLASSES = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
    BatchedVectorizedBackend.name: BatchedVectorizedBackend,
    ShardedVectorizedBackend.name: ShardedVectorizedBackend,
    EllBackend.name: EllBackend,
}

#: Names accepted by :func:`resolve_backend` (and the CLI ``--backend`` flag).
#: ``"sharded"`` additionally accepts a ``:K`` shard-count suffix.
BACKEND_NAMES = tuple(_BACKEND_CLASSES)

#: Every spec form :func:`resolve_backend` accepts, for error messages and
#: interface docs (``sharded:K`` stands for any integer shard count).
BACKEND_SPECS = tuple(sorted([*_BACKEND_CLASSES, "sharded:K"]))

_instances: Dict[str, SimulationBackend] = {}


def _parse_backend_spec(spec: str):
    """Split ``"name"`` / ``"sharded:K"`` into (class, kwargs)."""
    if not isinstance(spec, str):
        raise BackendError(
            f"backend spec must be a name string, a backend instance or None; "
            f"got {spec!r}"
        )
    name, sep, arg = spec.partition(":")
    try:
        cls = _BACKEND_CLASSES[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {spec!r}; valid backend specs: "
            f"{', '.join(BACKEND_SPECS)}"
        ) from None
    if not sep:
        return cls, {}
    if name != ShardedVectorizedBackend.name:
        raise BackendError(
            f"backend {name!r} takes no {arg!r} argument; valid backend "
            f"specs: {', '.join(BACKEND_SPECS)}"
        )
    try:
        shards = int(arg)
    except ValueError:
        raise BackendError(
            f"bad shard count {arg!r} in backend spec {spec!r}; "
            f"expected 'sharded:K' with integer K >= 1"
        ) from None
    if shards < 1:
        raise BackendError(f"shard count must be >= 1, got {shards}")
    return cls, {"shards": shards}


def resolve_backend(
    backend: Optional[Union[str, SimulationBackend]] = None,
) -> SimulationBackend:
    """Map a backend spec (name, instance or ``None``) to a backend object.

    Specs are registry names, plus the parameterized form ``"sharded:K"``
    (a K-worker sharded backend); each distinct spec maps to one shared
    instance.  Unknown specs raise :class:`BackendError` listing every valid
    form.
    """
    if backend is None:
        backend = ReferenceBackend.name
    if isinstance(backend, SimulationBackend):
        return backend
    if not isinstance(backend, str) or backend not in _instances:
        cls, kwargs = _parse_backend_spec(backend)
        _instances[backend] = cls(**kwargs)
    return _instances[backend]
