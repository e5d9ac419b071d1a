"""Sharded single-instance backend: one big graph, many processes per round.

The batched engine (PR 3) made *many small* instances fast; a single n ≥ 10⁶
graph still ran the whole round loop on one core.  This backend splits that
loop's per-round work across a persistent pool of worker processes by
partitioning the instance's CSR adjacency into contiguous **node-range
segments**:

* the CSR arrays, the label bits and every per-node protocol state array live
  in :mod:`multiprocessing.shared_memory` blocks, so workers read and write
  them in place — the per-round message over each worker's pipe is a tiny
  ``("round", op, r, …)`` tuple, and the array layout is shipped once per
  task;
* each round, worker *i* runs the transmit-decision kernel for segment *i*
  (the same element-wise masks as the vectorized kernels, restricted to
  ``[lo, hi)`` — including rotating its own slice of the round-state
  arrays) and expands its transmitters' CSR neighbour slices into
  per-segment target/owner scratch regions;
* the parent reduces the per-segment receive contributions with a single
  ``bincount`` merge over the concatenated target lists (for sparse rounds an
  order-preserving sort/unique merge computes the identical counts without
  touching all ``n`` nodes), applies the delivery rules and records the
  round.

Because segment boundaries only change *where* work happens — ``bincount``
over a concatenation is independent of how the concatenation was split, and a
count-1 listener's unique sender is exact under any merge order — outcomes
are **bit-for-bit identical** to the
:class:`~repro.backends.vectorized.VectorizedBackend` at any shard count
(asserted by ``tests/test_sharded_equivalence.py`` at shards ∈ {1, 2, 3, 7}).

Sharded kernels cover the protocols whose per-round decision is a dense
element-wise function of per-node state — Algorithm B (``broadcast``) and the
slotted baselines (``round_robin`` / ``coloring_tdma``).  Everything else
(B_ack's sparse ack chains, B_arb, centralized schedules, non-default channel
models) is delegated to the vectorized backend, so ``--backend sharded`` is
always safe to pass; delegated results keep their actual engine's provenance
tag.

Shard selection threads through the whole stack as the spec string
``"sharded[:K]"``: ``resolve_backend("sharded:4")``, ``Scenario(shards=4)``,
``GridConfig(shards=4)`` and the CLI ``--shards 4`` all construct this
backend with a 4-worker pool.  The shard count is pure parallelism and is
*excluded* from result-store keys (like ``jobs`` and ``batch_size``), so a
store-backed sweep resumed with a different shard count still hits its cache.

Sharding multiplies with sweep fan-out: every ``jobs > 1`` grid worker that
touches a covered task spawns its own segment pool, so a sharded sweep wants
``jobs=1`` (and an explicit modest ``--shards``) — the backend exists for
*few large* instances, where per-round segment parallelism beats process
fan-out; for many small instances use the batched backend instead.
"""

from __future__ import annotations

import os
import uuid
from multiprocessing import get_context, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..radio.engine import SimulationResult
from .base import BackendError, BackendResult, SimulationBackend, SimulationTask
from .batched import _EMPTY, _NEVER, _parse_bit_labels, _parse_slot_labels, _Recorder
from .vectorized import VectorizedBackend

__all__ = ["ShardedVectorizedBackend", "DEFAULT_SHARDS"]

#: Shard count used when none is requested: one worker per CPU.
DEFAULT_SHARDS = max(1, os.cpu_count() or 1)

#: Protocols with a sharded round kernel.
_SHARDED_PROTOCOLS = ("broadcast", "round_robin", "coloring_tdma")

#: Dense/sparse merge crossover: below ``n / _SPARSE_FACTOR`` concatenated
#: targets the sort/unique merge beats zeroing an n-length count array.
_SPARSE_FACTOR = 8


# --------------------------------------------------------------------------- #
# shared-memory sessions
# --------------------------------------------------------------------------- #
#: ``{field: (shm name, dtype str, shape)}`` — everything a worker needs to
#: rebuild its views; shipped once per task in the "open" message.
_Layout = Dict[str, Tuple[str, str, Tuple[int, ...]]]


class _Session:
    """Parent-side bundle of shared arrays for one task execution."""

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self.key = uuid.uuid4().hex
        self._blocks: List[shared_memory.SharedMemory] = []
        self.views: Dict[str, np.ndarray] = {}
        self.layout: _Layout = {}
        try:
            for name, src in arrays.items():
                block = shared_memory.SharedMemory(create=True, size=max(1, src.nbytes))
                self._blocks.append(block)
                view = np.ndarray(src.shape, dtype=src.dtype, buffer=block.buf)
                view[...] = src
                self.views[name] = view
                self.layout[name] = (block.name, src.dtype.str, src.shape)
        except BaseException:
            # /dev/shm filling up mid-loop must not leak the named blocks
            # created so far — nobody else holds a reference to unlink them.
            self.close()
            raise

    def close(self) -> None:
        self.views.clear()
        for block in self._blocks:
            try:
                block.close()
                block.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover - teardown
                pass
        self._blocks.clear()


# --------------------------------------------------------------------------- #
# the worker process
# --------------------------------------------------------------------------- #
def _attach_views(layout: _Layout):
    blocks, views = [], {}
    for name, (shm_name, dtype, shape) in layout.items():
        # Fork workers share the parent's resource tracker, so this attach's
        # registration is an idempotent no-op and the parent's unlink is the
        # single deregistration — no tracker bookkeeping needed here.
        block = shared_memory.SharedMemory(name=shm_name)
        blocks.append(block)
        views[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=block.buf)
    return blocks, views


def _release_views(blocks) -> None:
    for block in blocks:
        try:
            block.close()
        except OSError:  # pragma: no cover - teardown
            pass


def _expand_segment(v, lo: int, tx_mask: np.ndarray) -> Tuple[int, int]:
    """Write the segment's transmitter ids and their CSR target expansion.

    ``tx_mask`` is the segment-local boolean transmit mask.  Transmitter ids
    land in ``txids[lo:lo+cnt]``; their concatenated neighbour slices (and the
    matching owner ids) land in ``targets``/``owners`` at the segment's CSR
    edge offset — a node's out-edge region is contiguous, so a segment's
    expansion always fits in its own slice of an E-length scratch buffer.
    """
    indptr, indices = v["indptr"], v["indices"]
    tx_ids = np.flatnonzero(tx_mask) + lo
    cnt = int(tx_ids.size)
    v["txids"][lo : lo + cnt] = tx_ids
    if cnt == 0:
        return 0, 0
    deg = indptr[tx_ids + 1] - indptr[tx_ids]
    total = int(deg.sum())
    if total:
        base = int(indptr[lo])
        pos = np.repeat(indptr[tx_ids] - (np.cumsum(deg) - deg), deg)
        v["targets"][base : base + total] = indices[pos + np.arange(total, dtype=np.int64)]
        v["owners"][base : base + total] = np.repeat(tx_ids, deg)
    return cnt, total


def _broadcast_round(v, lo: int, hi: int, r: int, src: int) -> Tuple[int, int, int]:
    sl = slice(lo, hi)
    if r > 1:
        # Rotate this segment's slice of the round-state arrays in place —
        # the slices are worker-exclusive, so no cross-process coordination
        # is needed and the parent's serial section stays small.
        v["sent_src_prev2"][sl] = v["sent_src_prev"][sl]
        v["sent_src_prev"][sl] = v["tx_source"][sl]
    informed_r = v["informed_r"][sl]
    m3 = informed_r == r - 2
    m4 = informed_r == r - 1
    tx_src = (m3 & v["x1"][sl]) | (
        v["informed"][sl]
        & ~m3
        & ~m4
        & v["sent_src_prev2"][sl]
        & v["heard_stay_prev"][sl]
    )
    if r == 1 and lo <= src < hi:
        tx_src[src - lo] = True
    tx_stay = m4 & v["x2"][sl]
    v["tx_source"][sl] = tx_src
    v["tx_stay"][sl] = tx_stay
    cnt, total = _expand_segment(v, lo, tx_src | tx_stay)
    return cnt, total, int(np.count_nonzero(tx_src))


def _slotted_round(v, lo: int, hi: int, r: int) -> Tuple[int, int]:
    sl = slice(lo, hi)
    tx = v["informed"][sl] & ((r % v["periods"][sl]) == v["slot_residue"][sl])
    return _expand_segment(v, lo, tx)


def _worker_main(conn) -> None:
    """Dedicated segment worker: attach once per task, then one tiny message
    per round.  Exits on ``("exit",)``, a closed pipe, or parent death."""
    blocks: list = []
    views: Optional[Dict[str, np.ndarray]] = None
    lo = hi = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent died
            break
        op = msg[0]
        try:
            if op == "open":
                _release_views(blocks)
                blocks, views = _attach_views(msg[1])
                lo, hi = msg[2], msg[3]
                conn.send(("ok",))
            elif op == "broadcast":
                conn.send(_broadcast_round(views, lo, hi, msg[1], msg[2]))
            elif op == "slotted":
                conn.send(_slotted_round(views, lo, hi, msg[1]))
            elif op == "close":
                _release_views(blocks)
                blocks, views = [], None
                conn.send(("ok",))
            elif op == "exit":
                break
            else:  # pragma: no cover - protocol bug
                conn.send(("error", f"unknown op {op!r}"))
        except Exception as exc:  # pragma: no cover - surfaced parent-side
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    _release_views(blocks)


class _WorkerHandle:
    """One persistent worker process plus its parent-side pipe end."""

    def __init__(self, ctx) -> None:
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child,), daemon=True)
        self.proc.start()
        child.close()

    def request(self, msg):
        self.conn.send(msg)

    def response(self):
        try:
            out = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise BackendError(f"sharded worker died mid-round: {exc}") from exc
        if isinstance(out, tuple) and out and out[0] == "error":
            raise BackendError(f"sharded worker failed: {out[1]}")
        return out

    def stop(self) -> None:
        try:
            self.conn.send(("exit",))
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=2)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
        self.conn.close()


# --------------------------------------------------------------------------- #
# the backend
# --------------------------------------------------------------------------- #
class ShardedVectorizedBackend(SimulationBackend):
    """Round-level CSR segment sharding over persistent worker processes.

    Parameters
    ----------
    shards:
        Worker process count (node-range segments per round).  ``None`` uses
        one shard per CPU.  Results are bit-for-bit identical to the
        vectorized backend at any shard count.
    strict:
        If true, raise :class:`BackendError` on tasks the sharded kernels do
        not cover instead of delegating them to the vectorized backend.
    """

    name = "sharded"

    def __init__(self, *, shards: Optional[int] = None, strict: bool = False) -> None:
        if shards is not None:
            shards = int(shards)
            if shards < 1:
                raise BackendError(f"shard count must be >= 1, got {shards}")
        self.shards = shards if shards is not None else DEFAULT_SHARDS
        self.strict = strict
        self._fallback = VectorizedBackend()
        self._workers: List[_WorkerHandle] = []
        self._workers_pid: Optional[int] = None

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _get_workers(self, count: int) -> List[_WorkerHandle]:
        if self._workers and self._workers_pid != os.getpid():
            # Inherited across a fork (e.g. a grid worker): the pipes belong
            # to the parent process, so drop the stale handles untouched.
            self._workers = []
        self._workers = [w for w in self._workers if w.proc.is_alive()]
        if len(self._workers) < count:
            try:
                ctx = get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                ctx = get_context()
            self._workers.extend(
                _WorkerHandle(ctx) for _ in range(count - len(self._workers))
            )
            self._workers_pid = os.getpid()
        return self._workers[:count]

    def close(self) -> None:
        """Stop the worker processes (they are respawned lazily on next use)."""
        if self._workers and self._workers_pid == os.getpid():
            for worker in self._workers:
                worker.stop()
        self._workers = []

    def __del__(self):  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def supports(self, task: SimulationTask) -> bool:
        """True if a sharded round kernel covers ``task``."""
        return task.protocol in _SHARDED_PROTOCOLS and self._fallback.supports(task)

    def run_task(self, task: SimulationTask) -> BackendResult:
        if not self.supports(task):
            if self.strict:
                raise BackendError(
                    f"sharded backend has no segment kernel for protocol "
                    f"{task.protocol!r} with the given channel models"
                )
            # Delegated results keep the inner engine's provenance tag.
            return self._fallback.run_task(task)
        if task.protocol == "broadcast":
            result = self._run_broadcast(task)
        else:
            result = self._run_slotted(task)
        result.backend = self.name
        return result

    def _segments(self, indptr: np.ndarray, n: int) -> List[Tuple[int, int]]:
        """Edge-balanced contiguous node ranges, empty segments dropped."""
        k = max(1, min(self.shards, n))
        cuts = np.searchsorted(indptr, np.linspace(0, int(indptr[-1]), k + 1))
        cuts[0], cuts[-1] = 0, n
        cuts = np.maximum.accumulate(cuts)
        return [(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:]) if a < b]

    def _open_session(self, session: _Session, segments) -> List[_WorkerHandle]:
        workers = self._get_workers(len(segments))
        for worker, (lo, hi) in zip(workers, segments):
            worker.request(("open", session.layout, lo, hi))
        for worker in workers:
            worker.response()
        return workers

    @staticmethod
    def _close_session(workers: List[_WorkerHandle]) -> None:
        for worker in workers:
            try:
                worker.request(("close",))
            except (BrokenPipeError, OSError):  # pragma: no cover - teardown
                continue
        for worker in workers:
            try:
                worker.response()
            except BackendError:  # pragma: no cover - teardown
                pass

    @staticmethod
    def _fanout(workers: List[_WorkerHandle], msg) -> List[Tuple[int, ...]]:
        for worker in workers:
            worker.request(msg)
        return [worker.response() for worker in workers]

    # ------------------------------------------------------------------ #
    # the reduce: per-segment receive contributions -> (hears, senders, colls)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge(
        session: _Session,
        segments: List[Tuple[int, int]],
        seg_counts: List[int],
        seg_totals: List[int],
        n: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One bincount merge of the segments' target lists.

        Returns ``(tx_ids, hears_ids, senders, collision_ids)`` exactly as
        :meth:`repro.backends.batched._Channel.resolve` would for the same
        global transmit mask: the concatenated target list equals the
        single-core expansion (segments are ascending node ranges and each
        worker expands its transmitters in ascending order), and receive
        counts are merge-order independent.  Sparse rounds (fewer targets
        than ``n / 8``) take a sort/unique path computing identical counts
        without an n-length pass.
        """
        v = session.views
        indptr = v["indptr"]
        tx_views = [
            v["txids"][lo : lo + cnt] for (lo, _), cnt in zip(segments, seg_counts) if cnt
        ]
        tx_ids = np.concatenate(tx_views) if tx_views else _EMPTY
        tgt_views = [
            v["targets"][int(indptr[lo]) : int(indptr[lo]) + tot]
            for (lo, _), tot in zip(segments, seg_totals)
            if tot
        ]
        if not tgt_views:
            return tx_ids, _EMPTY, _EMPTY, _EMPTY
        all_targets = np.concatenate(tgt_views)
        own_views = [
            v["owners"][int(indptr[lo]) : int(indptr[lo]) + tot]
            for (lo, _), tot in zip(segments, seg_totals)
            if tot
        ]
        if all_targets.size * _SPARSE_FACTOR >= n:
            counts = np.bincount(all_targets, minlength=n).astype(np.int64, copy=False)
            counts[tx_ids] = 0  # transmitters hear nothing in their own round
            hears_ids = np.flatnonzero(counts == 1)
            collision_ids = np.flatnonzero(counts >= 2)
            if hears_ids.size:
                owners = np.concatenate(own_views).astype(np.float64)
                sums = np.bincount(all_targets, weights=owners, minlength=n)
                senders = sums[hears_ids].astype(np.int64)
            else:
                senders = _EMPTY
            return tx_ids, hears_ids, senders, collision_ids
        # Sparse merge: counts via sort/unique over just the targets.
        order = np.argsort(all_targets, kind="stable")
        uniq, first, counts = np.unique(
            all_targets[order], return_index=True, return_counts=True
        )
        # Membership of each unique target in the (sorted) transmitter list;
        # targets imply at least one transmitter, so tx_ids is non-empty here.
        pos = np.minimum(np.searchsorted(tx_ids, uniq), tx_ids.size - 1)
        is_tx = tx_ids[pos] == uniq
        one = (counts == 1) & ~is_tx
        hears_ids = uniq[one]
        collision_ids = uniq[(counts >= 2) & ~is_tx]
        if hears_ids.size:
            all_owners = np.concatenate(own_views)
            senders = all_owners[order[first[one]]]
        else:
            senders = _EMPTY
        return tx_ids, hears_ids, senders, collision_ids

    # ------------------------------------------------------------------ #
    # Algorithm B — the sharded round loop
    # ------------------------------------------------------------------ #
    def _run_broadcast(self, task: SimulationTask) -> BackendResult:
        from ..radio.messages import source_message, stay_message

        graph, n = task.graph, task.graph.n
        src = task.source
        indptr, indices = graph.csr()
        x1, x2, _ = _parse_bit_labels(task.labels, n)
        rec = _Recorder(n, src, task.trace_level)

        informed = np.zeros(n, dtype=bool)
        informed[src] = True
        session = _Session(
            {
                "indptr": np.ascontiguousarray(indptr, dtype=np.int64),
                "indices": np.ascontiguousarray(indices, dtype=np.int64),
                "x1": x1,
                "x2": x2,
                "informed": informed,
                "informed_r": np.full(n, _NEVER, dtype=np.int64),
                "sent_src_prev": np.zeros(n, dtype=bool),
                "sent_src_prev2": np.zeros(n, dtype=bool),
                "heard_stay_prev": np.zeros(n, dtype=bool),
                "tx_source": np.zeros(n, dtype=bool),
                "tx_stay": np.zeros(n, dtype=bool),
                "txids": np.zeros(n, dtype=np.int64),
                "targets": np.zeros(max(1, indices.size), dtype=np.int64),
                "owners": np.zeros(max(1, indices.size), dtype=np.int64),
            }
        )
        workers: List[_WorkerHandle] = []
        try:
            v = session.views
            segments = self._segments(v["indptr"], n)
            workers = self._open_session(session, segments)
            informed_count = 1
            completion: Optional[int] = None
            stop_round, stop_reason = 0, "budget"

            for r in range(1, task.max_rounds + 1):
                parts = self._fanout(workers, ("broadcast", r, src))
                seg_counts = [p[0] for p in parts]
                seg_totals = [p[1] for p in parts]
                n_src_tx = sum(p[2] for p in parts)
                tx_ids, hears_ids, senders, collision_ids = self._merge(
                    session, segments, seg_counts, seg_totals, n
                )

                # Deliver (identical to the vectorized kernel).
                tx_stay = v["tx_stay"]
                stay_hearers = _EMPTY
                if hears_ids.size:
                    sender_is_stay = tx_stay[senders]
                    stay_hearers = hears_ids[sender_is_stay]
                    mu_hearers = hears_ids[~sender_is_stay]
                    new_ids = mu_hearers[~v["informed"][mu_hearers]]
                    v["informed"][new_ids] = True
                    v["informed_r"][new_ids] = r
                    informed_count += int(new_ids.size)
                else:
                    mu_hearers = _EMPTY

                n_stay_tx = int(tx_ids.size) - n_src_tx
                if rec.full:
                    tx_source = v["tx_source"]
                    src_msg, stay_msg = source_message(task.payload), stay_message()
                    transmissions = {
                        int(u): (src_msg if tx_source[u] else stay_msg) for u in tx_ids
                    }
                    receptions = {
                        int(w): transmissions[int(u)]
                        for w, u in zip(hears_ids, senders)
                    }
                    rec.full_round(r, transmissions, receptions, collision_ids)
                else:
                    rec.summary_round(
                        r,
                        transmissions=int(tx_ids.size),
                        receptions=int(hears_ids.size),
                        collisions=int(collision_ids.size),
                        kinds={"source": n_src_tx, "stay": n_stay_tx},
                        fixed_bits=2 * n_stay_tx,
                        payload_messages=n_src_tx,
                        informed=mu_hearers,
                        ack_hearers=(),
                    )

                # Workers rotate sent_src_prev/prev2 for their own slices at
                # the start of the next round; only the cross-segment stay
                # scatter stays in the parent's serial section.
                v["heard_stay_prev"][...] = False
                v["heard_stay_prev"][stay_hearers] = True
                stop_round = r
                if completion is None and informed_count == n:
                    completion = r
                if task.stop_rule == "all_informed" and informed_count == n:
                    stop_reason = "condition"
                    break
        finally:
            self._close_session(workers)
            session.close()

        sim = SimulationResult(
            trace=rec.trace, nodes=[], stop_round=stop_round, stop_reason=stop_reason
        )
        return BackendResult(simulation=sim, derived={"completion_round": completion})

    # ------------------------------------------------------------------ #
    # Slotted baselines — round-robin / G²-colouring TDMA
    # ------------------------------------------------------------------ #
    def _run_slotted(self, task: SimulationTask) -> BackendResult:
        from ..radio.messages import source_message

        graph, n = task.graph, task.graph.n
        src = task.source
        indptr, indices = graph.csr()
        slots, periods = _parse_slot_labels(task.labels, n)
        rec = _Recorder(n, src, task.trace_level)

        informed = np.zeros(n, dtype=bool)
        informed[src] = True
        session = _Session(
            {
                "indptr": np.ascontiguousarray(indptr, dtype=np.int64),
                "indices": np.ascontiguousarray(indices, dtype=np.int64),
                "informed": informed,
                "slot_residue": slots % periods,
                "periods": periods,
                "txids": np.zeros(n, dtype=np.int64),
                "targets": np.zeros(max(1, indices.size), dtype=np.int64),
                "owners": np.zeros(max(1, indices.size), dtype=np.int64),
            }
        )
        workers: List[_WorkerHandle] = []
        try:
            v = session.views
            segments = self._segments(v["indptr"], n)
            workers = self._open_session(session, segments)
            informed_count = 1
            completion: Optional[int] = None
            stop_round, stop_reason = 0, "budget"

            for r in range(1, task.max_rounds + 1):
                parts = self._fanout(workers, ("slotted", r))
                tx_ids, hears_ids, senders, collision_ids = self._merge(
                    session, segments, [p[0] for p in parts], [p[1] for p in parts], n
                )
                if hears_ids.size:
                    new_ids = hears_ids[~v["informed"][hears_ids]]
                    v["informed"][new_ids] = True
                    informed_count += int(new_ids.size)
                if rec.full:
                    msg = source_message(task.payload)
                    transmissions = {int(u): msg for u in tx_ids}
                    receptions = {int(w): msg for w in hears_ids}
                    rec.full_round(r, transmissions, receptions, collision_ids)
                else:
                    rec.summary_round(
                        r,
                        transmissions=int(tx_ids.size),
                        receptions=int(hears_ids.size),
                        collisions=int(collision_ids.size),
                        kinds={"source": int(tx_ids.size)},
                        fixed_bits=0,
                        payload_messages=int(tx_ids.size),
                        informed=hears_ids,
                        ack_hearers=(),
                    )
                stop_round = r
                if completion is None and informed_count == n:
                    completion = r
                if task.stop_rule == "all_informed" and informed_count == n:
                    stop_reason = "condition"
                    break
        finally:
            self._close_session(workers)
            session.close()

        sim = SimulationResult(
            trace=rec.trace, nodes=[], stop_round=stop_round, stop_reason=stop_reason
        )
        return BackendResult(simulation=sim, derived={"completion_round": completion})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardedVectorizedBackend(shards={self.shards})"
