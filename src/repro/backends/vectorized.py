"""The vectorized backend: the NumPy round kernels under their default name.

The paper's radio model compiles to NumPy array kernels over CSR adjacency —
one round of "a listener hears a message iff exactly one neighbour transmits"
is a sparse matrix–vector product — for all seven registered schemes: B,
B_ack and B_arb, the round-robin / TDMA baselines, the centralized schedule
and collision-detection bit signalling.  The kernels live in
:mod:`repro.backends.batched`, which documents them; every kernel advances a
batch of instances per round.  ``vectorized`` and ``batched`` are one engine
under two names (and so two store-key names and ``backend`` column values):
``run_task`` runs a batch of one and ``run_batch`` stacks its tasks into one
kernel call, which is how a grid sweep stacks its small instances.  It is
the only array engine at every size: on one large instance the kernels'
channel turns a round with few transmitters into O(frontier) work.  Outcomes
are bit-for-bit identical to the
:class:`~repro.backends.reference.ReferenceBackend` (asserted by
``tests/test_backend_equivalence.py``), and tasks the kernels do not cover
(custom node factories, fault/clock models other than the paper's defaults)
are delegated to the reference backend, so ``--backend vectorized`` is always
safe to pass.
"""

from __future__ import annotations

from .batched import BatchedVectorizedBackend

__all__ = ["VectorizedBackend"]


class VectorizedBackend(BatchedVectorizedBackend):
    """The batched engine under the name ``"vectorized"``.

    Parameters
    ----------
    strict:
        If true, raise :class:`~repro.backends.base.BackendError` on tasks the
        kernels cannot execute instead of silently delegating them to the
        reference backend.
    """

    name = "vectorized"
