"""Pluggable simulation backends.

Public surface::

    from repro.backends import resolve_backend, ReferenceBackend, VectorizedBackend

    backend = resolve_backend("vectorized")
    result = backend.run_task(task)

``resolve_backend`` accepts a backend name (``"reference"`` /
``"vectorized"``), an existing backend instance, or ``None`` (the reference
default), and returns a shared instance.  ``vectorized`` is the NumPy kernels
of :mod:`repro.backends.batched` and the only array engine at every size:
``run_task`` runs one task per kernel call and ``run_batch(tasks)`` stacks
many compatible tasks into one block-diagonal kernel invocation (a grid
sweep stacks its small instances this way), while a large instance's rounds
cost O(frontier) where its transmitters are few.
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
from .batched import VectorizedBackend

__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "BackendResult",
    "PROTOCOLS",
    "ReferenceBackend",
    "STOP_RULES",
    "SimulationBackend",
    "SimulationTask",
    "VectorizedBackend",
    "resolve_backend",
]

_BACKEND_CLASSES = {
    ReferenceBackend.name: ReferenceBackend,
    VectorizedBackend.name: VectorizedBackend,
}

#: Names accepted by :func:`resolve_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES = tuple(_BACKEND_CLASSES)

_instances: Dict[str, SimulationBackend] = {}


def resolve_backend(
    backend: Optional[Union[str, SimulationBackend]] = None,
) -> SimulationBackend:
    """Map a backend spec (name, instance or ``None``) to a backend object.

    Each registry name maps to one shared instance.  Unknown specs raise
    :class:`BackendError` listing every valid one.
    """
    if backend is None:
        backend = ReferenceBackend.name
    if isinstance(backend, SimulationBackend):
        return backend
    if not isinstance(backend, str):
        raise BackendError(
            f"backend spec must be a name string, a backend instance or None; "
            f"got {backend!r}"
        )
    if backend not in _instances:
        try:
            cls = _BACKEND_CLASSES[backend]
        except KeyError:
            raise BackendError(
                f"unknown backend {backend!r}; valid backend specs: "
                f"{', '.join(BACKEND_NAMES)}"
            ) from None
        _instances[backend] = cls()
    return _instances[backend]
