"""The vectorized backend: the NumPy round kernels, one task per kernel call.

The paper's radio model compiles to NumPy array kernels over CSR adjacency —
one round of "a listener hears a message iff exactly one neighbour transmits"
is a sparse matrix–vector product — for all seven registered schemes: B,
B_ack and B_arb, the round-robin / TDMA baselines, the centralized schedule
and collision-detection bit signalling.  The kernels live in
:mod:`repro.backends.batched`, which documents them; every kernel advances a
batch of instances per round, and this backend runs each task as a batch of
one.  Outcomes are bit-for-bit identical to the
:class:`~repro.backends.reference.ReferenceBackend` (asserted by
``tests/test_backend_equivalence.py``), and tasks the kernels do not cover
(custom node factories, fault/clock models other than the paper's defaults)
are delegated to the reference backend, so ``--backend vectorized`` is always
safe to pass.
"""

from __future__ import annotations

from typing import List, Sequence

from .base import BackendResult, SimulationTask
from .batched import BatchedVectorizedBackend

__all__ = ["VectorizedBackend"]


class VectorizedBackend(BatchedVectorizedBackend):
    """The batched engine's kernels and coverage, one task per kernel call.

    Parameters
    ----------
    strict:
        If true, raise :class:`~repro.backends.base.BackendError` on tasks the
        kernels cannot execute instead of silently delegating them to the
        reference backend.
    """

    name = "vectorized"

    def run_batch(self, tasks: Sequence[SimulationTask]) -> List[BackendResult]:
        """Run each task alone through :meth:`run_task`, never stacked.

        Every task is its own kernel call and its own ``run_task`` call, so
        a wrapper around ``run_task`` on an instance sees every task (the
        repository benchmark's per-layer tracer relies on this).
        """
        return [self.run_task(task) for task in tasks]
