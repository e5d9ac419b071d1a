"""The asyncio sweep coordinator: one shared experiment cache, many peers.

The coordinator owns exactly two things — **assignment** and **reduction** —
and delegates every heavy kernel to workers (the ELLADA-style decomposition:
the center never simulates anything):

* A client ``submit`` is expanded into grid work units with
  :func:`repro.api.grid.grid_row_specs`, and each unit's content-addressed
  key is computed with :func:`repro.api.grid.grid_unit_key` — *the same
  functions the local ``run_grid`` path uses*, so local and remote sweeps
  share cache keys bit for bit.
* Units whose key the :class:`~repro.store.ResultStore` already holds are
  served straight from the indexed store (one O(1) seek per row, fetched at
  send time — never buffered per client).
* The rest become :class:`CellTask`\\ s, deduplicated by key across
  concurrent submissions, and fan out to connected workers under
  **lease/heartbeat tracking**: each dispatched cell has a lease deadline, a
  worker that stops heartbeating is dropped, and cells of a dead worker (or
  an expired lease) are re-queued — up to ``max_attempts`` tries, mirroring
  the one-shot per-cell retry the grid executor applies locally
  (``iter_grid(retries=...)``).
* Completed ``(key, row)`` docs are appended to the store by the coordinator
  alone (the store's single writer; workers never touch the directory) and
  forwarded to every submission waiting on that key.

Backpressure is credit-based on both legs (see
:mod:`repro.service.protocol`): workers receive at most ``hello.slots``
outstanding cells, and a client receives row frames only up to the credit it
has granted — since rows are re-read from the store at send time, a slow
client costs the coordinator a bounded queue of integer indices, not a queue
of row payloads.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Set, Tuple

from ..store import ResultStore
from ..store.resultset import _row_dict_to_metrics
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_hello,
    format_address,
    read_frame,
    write_frame,
)

__all__ = ["Coordinator", "WorkerLostError", "DEFAULT_CLIENT_CREDIT"]

#: Row-frame window a client is assumed to have granted when its submit frame
#: does not say (the ServiceClient always sends an explicit window).
DEFAULT_CLIENT_CREDIT = 64


class WorkerLostError(RuntimeError):
    """A cell's every attempt died with its worker (lease expiry / disconnect)."""


class _Credit:
    """A counting gate: ``take()`` waits until ``add()`` has granted credit."""

    def __init__(self, initial: int = 0) -> None:
        self._count = int(initial)
        self._event = asyncio.Event()
        if self._count > 0:
            self._event.set()

    def add(self, n: int) -> None:
        if n <= 0:
            return
        self._count += n
        self._event.set()

    async def take(self) -> None:
        while self._count <= 0:
            self._event.clear()
            await self._event.wait()
        self._count -= 1


class CellTask:
    """One uncached work unit, deduplicated by key across submissions."""

    __slots__ = ("key", "config_doc", "unit", "backend", "trace_level",
                 "attempts", "state", "waiters", "worker_id", "deadline")

    def __init__(self, key: str, config_doc: Dict[str, Any], unit: Tuple,
                 backend: Optional[str], trace_level: str) -> None:
        self.key = key
        self.config_doc = config_doc
        self.unit = unit
        self.backend = backend
        self.trace_level = trace_level
        self.attempts = 0                      # completed tries (runs + lost leases)
        self.state = "pending"                 # pending | leased | done | failed
        self.waiters: List[Tuple["_Submission", int]] = []
        self.worker_id: Optional[int] = None
        self.deadline: float = 0.0


class _Submission:
    """One client submission: unit order, per-index readiness, counters."""

    def __init__(self, total: int, strict: bool) -> None:
        self.total = total
        self.strict = strict
        self.dead = False
        #: Items: ("cached", index, key) | ("row", index, key, row_doc)
        #: | ("failed", index, key, row_doc).  Bounded by ``total`` entries of
        #: a few machine words each — row payloads are never queued.
        self.ready: "asyncio.Queue[Tuple]" = asyncio.Queue()


class _WorkerConn:
    """Connection state of one worker: slots, leases, liveness."""

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter,
                 slots: int, name: str) -> None:
        self.id = conn_id
        self.writer = writer
        self.wlock = asyncio.Lock()
        self.slots = max(1, int(slots))
        self.busy = 0
        self.name = name
        self.last_seen = time.monotonic()
        self.leases: Dict[int, CellTask] = {}  # dispatch id -> cell


class _ClientConn:
    """Connection state of one client: credit gate + the active stream task."""

    def __init__(self, conn_id: int, writer: asyncio.StreamWriter) -> None:
        self.id = conn_id
        self.writer = writer
        self.wlock = asyncio.Lock()
        self.credit = _Credit(0)
        self.stream_task: Optional[asyncio.Task] = None


class Coordinator:
    """The asyncio sweep service (see module docstring for the architecture).

    Typical embedded use (the CLI ``repro serve`` wraps exactly this)::

        store = ResultStore("sweeps/shared")
        coordinator = Coordinator(store, host="127.0.0.1", port=7341)
        await coordinator.start()          # binds; port 0 picks a free port
        await coordinator.serve_forever()  # or: keep the loop running

    ``lease_seconds`` bounds how long one dispatched cell may stay
    unanswered before it is re-queued; ``heartbeat_grace`` bounds worker
    silence (any frame refreshes liveness; idle workers send pings);
    ``max_attempts`` is the total tries a cell gets across re-queues before
    it is reported failed to its waiters.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 120.0,
        heartbeat_grace: float = 45.0,
        max_attempts: int = 3,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.host = host
        self.port = port
        self.lease_seconds = float(lease_seconds)
        self.heartbeat_grace = float(heartbeat_grace)
        self.max_attempts = int(max_attempts)
        self.stats = {
            "submissions": 0, "queries": 0, "aggregates": 0, "served_cached": 0,
            "computed": 0, "requeued": 0, "failed_cells": 0,
            "workers_seen": 0, "workers_lost": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._ids = itertools.count(1)
        self._dispatch_ids = itertools.count(1)
        self._workers: Dict[int, _WorkerConn] = {}
        self._cells: Dict[str, CellTask] = {}
        self._pending: "deque[CellTask]" = deque()
        self._kick = asyncio.Event()
        self._tasks: List[asyncio.Task] = []
        self._conn_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind and start serving; ``self.address`` is valid afterwards."""
        self._server = await asyncio.start_server(self._handle_connection,
                                                  self.host, self.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._tasks = [
            asyncio.create_task(self._dispatcher(), name="svc-dispatcher"),
            asyncio.create_task(self._reaper(), name="svc-reaper"),
        ]

    @property
    def address(self) -> str:
        """The bound ``HOST:PORT``."""
        return format_address(self.host, self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Close the server, every connection and the background tasks."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks + list(self._conn_tasks):
            task.cancel()
        for task in self._tasks + list(self._conn_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        self._conn_tasks.clear()

    def describe(self) -> Dict[str, Any]:
        """Live counters: connected workers, queue depth, cumulative stats."""
        return {
            "address": self.address,
            "workers": len(self._workers),
            "pending_cells": sum(1 for c in self._pending if c.state == "pending"),
            "leased_cells": sum(len(w.leases) for w in self._workers.values()),
            "store_rows": len(self.store),
            **self.stats,
        }

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            try:
                hello = check_hello(await read_frame(reader))
            except ProtocolError as exc:
                try:
                    await write_frame(writer, {"type": "error", "message": str(exc)})
                except (ConnectionError, OSError):
                    pass
                return
            await write_frame(writer, {
                "type": "welcome", "version": PROTOCOL_VERSION,
                "store_rows": len(self.store),
            })
            if hello["role"] == "worker":
                await self._worker_loop(reader, writer, hello)
            else:
                await self._client_loop(reader, writer)
        except (ConnectionError, ProtocolError, asyncio.IncompleteReadError, OSError):
            pass  # a dropped peer is normal operation; leases are re-queued below
        except asyncio.CancelledError:
            pass  # coordinator shutdown cancels connection tasks mid-read
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # worker side
    # ------------------------------------------------------------------ #
    async def _worker_loop(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           hello: Dict[str, Any]) -> None:
        conn = _WorkerConn(next(self._ids), writer,
                           slots=hello.get("slots", 1),
                           name=str(hello.get("name", "")) or f"worker-{next(self._ids)}")
        self._workers[conn.id] = conn
        self.stats["workers_seen"] += 1
        self._kick.set()
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                conn.last_seen = time.monotonic()
                kind = frame["type"]
                if kind == "row":
                    self._on_worker_row(conn, frame)
                elif kind == "error":
                    self._on_worker_error(conn, frame)
                elif kind == "ping":
                    async with conn.wlock:
                        await write_frame(writer, {"type": "pong"})
                elif kind == "bye":
                    break
        finally:
            self._workers.pop(conn.id, None)
            if conn.leases:
                self.stats["workers_lost"] += 1
            for cell in list(conn.leases.values()):
                self._requeue_or_fail(
                    cell, f"worker {conn.name!r} disconnected mid-cell")
            conn.leases.clear()
            self._kick.set()

    def _on_worker_row(self, conn: _WorkerConn, frame: Dict[str, Any]) -> None:
        cell = conn.leases.pop(int(frame.get("id", 0)), None)
        conn.busy = max(0, conn.busy - 1)
        self._kick.set()
        if cell is None or cell.state != "leased":
            return  # late row for a lease already re-queued elsewhere
        row_doc = frame.get("row")
        if not isinstance(row_doc, dict):
            self._requeue_or_fail(cell, "worker returned a malformed row")
            return
        if row_doc.get("status", "ok") == "ok":
            self._complete_cell(cell, row_doc)
        else:
            # The worker already retried locally (its per-cell retries knob);
            # a still-failing cell consumes one coordinator attempt and is
            # re-queued — a different worker may lack the fault (e.g. OOM).
            cell.attempts += 1
            if cell.attempts < self.max_attempts:
                self._requeue(cell)
            else:
                self._fail_cell(cell, row_doc)

    def _on_worker_error(self, conn: _WorkerConn, frame: Dict[str, Any]) -> None:
        cell = conn.leases.pop(int(frame.get("id", 0)), None)
        conn.busy = max(0, conn.busy - 1)
        self._kick.set()
        if cell is None or cell.state != "leased":
            return
        self._requeue_or_fail(
            cell, str(frame.get("message", "worker reported an error")))

    def _complete_cell(self, cell: CellTask, row_doc: Dict[str, Any]) -> None:
        cell.state = "done"
        if cell.key not in self.store:
            # The single-writer append path: only the coordinator process
            # ever writes this store, so appends never contend.
            self.store.put(cell.key, _row_dict_to_metrics(row_doc))
        self.stats["computed"] += 1
        self._cells.pop(cell.key, None)
        for sub, index in cell.waiters:
            if not sub.dead:
                sub.ready.put_nowait(("row", index, cell.key, row_doc))
        cell.waiters.clear()

    def _fail_cell(self, cell: CellTask, row_doc: Dict[str, Any]) -> None:
        cell.state = "failed"
        self.stats["failed_cells"] += 1
        self._cells.pop(cell.key, None)  # a later submission retries it fresh
        for sub, index in cell.waiters:
            if not sub.dead:
                sub.ready.put_nowait(("failed", index, cell.key, row_doc))
        cell.waiters.clear()

    def _requeue(self, cell: CellTask) -> None:
        cell.state = "pending"
        cell.worker_id = None
        self._pending.append(cell)
        self.stats["requeued"] += 1
        self._kick.set()

    def _requeue_or_fail(self, cell: CellTask, reason: str) -> None:
        """Shared re-queue path for lease expiry, worker death and errors.

        Every lost lease consumes one of the cell's ``max_attempts`` tries —
        the same one-shot-retry accounting ``iter_grid(retries=1)`` applies
        to transient pool-worker crashes locally — so a cell that kills every
        worker it lands on terminates as a failed row instead of looping.
        """
        if cell.state != "leased":
            return
        cell.attempts += 1
        if cell.attempts < self.max_attempts:
            self._requeue(cell)
        else:
            self._fail_cell(cell, _lost_row_doc(cell, reason))

    # ------------------------------------------------------------------ #
    # dispatch + leases
    # ------------------------------------------------------------------ #
    async def _dispatcher(self) -> None:
        """Assign pending cells to workers with free slots (credit-gated)."""
        while True:
            await self._kick.wait()
            self._kick.clear()
            progress = True
            while self._pending and progress:
                progress = False
                for conn in list(self._workers.values()):
                    while self._pending and conn.busy < conn.slots:
                        cell = self._pending.popleft()
                        if cell.state != "pending":
                            continue  # stale queue entry (completed elsewhere)
                        if not cell.waiters:
                            # Every waiting submission died; the result would
                            # only warm the cache — still worth computing? No:
                            # drop it, a live submission will re-enqueue.
                            cell.state = "failed"
                            self._cells.pop(cell.key, None)
                            continue
                        await self._dispatch(conn, cell)
                        progress = True
                    if not self._pending:
                        break

    async def _dispatch(self, conn: _WorkerConn, cell: CellTask) -> None:
        dispatch_id = next(self._dispatch_ids)
        cell.state = "leased"
        cell.worker_id = conn.id
        cell.deadline = time.monotonic() + self.lease_seconds
        conn.leases[dispatch_id] = cell
        conn.busy += 1
        try:
            async with conn.wlock:
                await write_frame(conn.writer, {
                    "type": "cell", "id": dispatch_id, "key": cell.key,
                    "config": cell.config_doc, "unit": list(cell.unit),
                    "backend": cell.backend, "trace_level": cell.trace_level,
                })
        except (ConnectionError, OSError):
            conn.leases.pop(dispatch_id, None)
            conn.busy = max(0, conn.busy - 1)
            self._requeue_or_fail(cell, f"worker {conn.name!r} send failed")

    async def _reaper(self) -> None:
        """Re-queue expired leases; drop workers that stopped heartbeating."""
        interval = max(0.05, min(self.lease_seconds, self.heartbeat_grace) / 4)
        while True:
            await asyncio.sleep(interval)
            now = time.monotonic()
            for conn in list(self._workers.values()):
                if now - conn.last_seen > self.heartbeat_grace:
                    # Silent worker: closing the transport unwinds its loop,
                    # whose finally block re-queues every lease it held.
                    conn.writer.close()
                    continue
                for dispatch_id, cell in list(conn.leases.items()):
                    if cell.deadline <= now:
                        conn.leases.pop(dispatch_id, None)
                        conn.busy = max(0, conn.busy - 1)
                        self._requeue_or_fail(
                            cell, f"lease expired after {self.lease_seconds}s "
                                  f"on worker {conn.name!r}")

    # ------------------------------------------------------------------ #
    # client side
    # ------------------------------------------------------------------ #
    async def _client_loop(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        conn = _ClientConn(next(self._ids), writer)
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                kind = frame["type"]
                if kind == "credit":
                    conn.credit.add(int(frame.get("n", 0)))
                elif kind == "ping":
                    async with conn.wlock:
                        await write_frame(writer, {"type": "pong"})
                elif kind in ("submit", "query", "aggregate"):
                    if conn.stream_task is not None and not conn.stream_task.done():
                        async with conn.wlock:
                            await write_frame(writer, {
                                "type": "error",
                                "message": "a stream is already active on this "
                                           "connection; open another connection",
                            })
                        continue
                    handler = {
                        "submit": self._submission_task,
                        "query": self._query_task,
                        "aggregate": self._aggregate_task,
                    }[kind]
                    conn.stream_task = asyncio.create_task(handler(conn, frame))
                elif kind == "bye":
                    break
        finally:
            if conn.stream_task is not None and not conn.stream_task.done():
                conn.stream_task.cancel()
                try:
                    await conn.stream_task
                except (asyncio.CancelledError, Exception):
                    pass

    async def _submission_task(self, conn: _ClientConn,
                               frame: Dict[str, Any]) -> None:
        from ..api.grid import (  # local import: service must not import the
            GridConfig,           # api eagerly at module load (CLI startup)
            _validate_schemes,
            grid_row_specs,
            grid_unit_key,
        )
        from ..backends import BackendError, resolve_backend

        conn.credit.add(int(frame.get("credit", DEFAULT_CLIENT_CREDIT)))
        strict = bool(frame.get("strict", True))
        backend = frame.get("backend")
        trace_level = str(frame.get("trace_level", "summary"))
        try:
            config = GridConfig(**frame.get("config", {}))
            _validate_schemes(config)
            resolve_backend(backend)
            units = grid_row_specs(config)
            keys = [grid_unit_key(config, unit, backend=backend,
                                  trace_level=trace_level) for unit in units]
        except (TypeError, ValueError, BackendError) as exc:
            async with conn.wlock:
                await write_frame(conn.writer, {
                    "type": "error", "message": f"invalid submission: {exc}"})
            return
        self.stats["submissions"] += 1
        config_doc = asdict(config)
        sub = _Submission(total=len(units), strict=strict)
        cached_count = 0
        for index, (unit, key) in enumerate(zip(units, keys)):
            if key in self.store:
                cached_count += 1
                sub.ready.put_nowait(("cached", index, key))
            else:
                self._enqueue_unit(sub, index, key, config_doc, unit,
                                   backend, trace_level)
        async with conn.wlock:
            await write_frame(conn.writer, {
                "type": "plan", "total": len(units), "cached": cached_count,
            })
        self._kick.set()
        try:
            await self._stream_submission(conn, sub, cached_count)
        except (ConnectionError, OSError):
            pass
        finally:
            sub.dead = True

    def _enqueue_unit(self, sub: _Submission, index: int, key: str,
                      config_doc: Dict[str, Any], unit: Tuple,
                      backend: Optional[str], trace_level: str) -> None:
        cell = self._cells.get(key)
        if cell is None:
            cell = CellTask(key, config_doc, unit, backend, trace_level)
            self._cells[key] = cell
            self._pending.append(cell)
        cell.waiters.append((sub, index))

    async def _stream_submission(self, conn: _ClientConn, sub: _Submission,
                                 cached_count: int) -> None:
        served = computed = failed = 0
        while served + computed + failed < sub.total:
            item = await sub.ready.get()
            kind, index, key = item[0], item[1], item[2]
            await conn.credit.take()
            if kind == "cached":
                row = self.store.get(key)
                if row is None:
                    async with conn.wlock:
                        await write_frame(conn.writer, {
                            "type": "error", "index": index, "key": key,
                            "message": f"cached row {key} vanished from the "
                                       f"store mid-submission",
                        })
                    return
                row_doc = row.as_dict()
                served += 1
                self.stats["served_cached"] += 1
            elif kind == "row":
                row_doc = item[3]
                computed += 1
            else:  # "failed"
                row_doc = item[3]
                if sub.strict:
                    async with conn.wlock:
                        await write_frame(conn.writer, {
                            "type": "error", "index": index, "key": key,
                            "message": f"grid cell failed after "
                                       f"{self.max_attempts} attempts: "
                                       f"{row_doc.get('status', 'error')}",
                        })
                    return
                failed += 1
            async with conn.wlock:
                await write_frame(conn.writer, {
                    "type": "row", "index": index, "key": key,
                    "row": row_doc, "cached": kind == "cached",
                })
        async with conn.wlock:
            await write_frame(conn.writer, {
                "type": "done", "total": sub.total, "cached": served,
                "computed": computed, "failed": failed,
            })

    async def _query_task(self, conn: _ClientConn, frame: Dict[str, Any]) -> None:
        conn.credit.add(int(frame.get("credit", DEFAULT_CLIENT_CREDIT)))
        self.stats["queries"] += 1
        key = frame.get("key")
        keys = [key] if key else self.store.keys()
        sent = 0
        try:
            for k in keys:
                row = self.store.get(k)
                if row is None:
                    continue
                doc = row.as_dict()
                if not _match_filters(doc, frame):
                    continue
                await conn.credit.take()
                async with conn.wlock:
                    await write_frame(conn.writer, {
                        "type": "row", "index": sent, "key": k,
                        "row": doc, "cached": True,
                    })
                sent += 1
            async with conn.wlock:
                await write_frame(conn.writer, {
                    "type": "done", "total": sent, "cached": sent,
                    "computed": 0, "failed": 0,
                })
        except (ConnectionError, OSError):
            pass

    async def _aggregate_task(self, conn: _ClientConn,
                              frame: Dict[str, Any]) -> None:
        """Answer a server-side groupby/aggregate from the store's columns.

        The heavy lifting is column-proportional: against a columnar-compacted
        store, only the filter columns, the grouping columns and the
        aggregated column are read — the client receives per-group statistics
        instead of a row stream.
        """
        from ..analysis.stream import (  # local: keep service import light
            aggregate_result_set,
            filter_result_set,
            resolve_group_columns,
        )

        self.stats["aggregates"] += 1
        try:
            column = frame["column"]
            by = resolve_group_columns(frame.get("by"))
            rows = filter_result_set(
                self.store.rows(),
                schemes=frame.get("schemes"),
                families=frame.get("families"),
                sizes=frame.get("sizes"),
                status=frame.get("status"),
            )
            groups = aggregate_result_set(rows, column, by,
                                          ci=bool(frame.get("ci", False)))
        except (KeyError, TypeError, ValueError) as exc:
            try:
                async with conn.wlock:
                    await write_frame(conn.writer, {
                        "type": "error",
                        "message": f"invalid aggregate: {exc}",
                    })
            except (ConnectionError, OSError):
                pass
            return
        try:
            async with conn.wlock:
                await write_frame(conn.writer, {
                    "type": "aggregate_result",
                    "column": column,
                    "by": list(by),
                    "rows_seen": len(rows),
                    "groups": groups,
                })
        except (ConnectionError, OSError):
            pass


def _match_filters(doc: Dict[str, Any], frame: Dict[str, Any]) -> bool:
    from ..analysis.stream import status_matches  # local: keep imports light

    schemes = frame.get("schemes")
    if schemes and doc.get("scheme") not in schemes:
        return False
    families = frame.get("families")
    if families and doc.get("family") not in families:
        return False
    sizes = frame.get("sizes")
    if sizes and doc.get("n") not in sizes:
        return False
    status = frame.get("status")
    if status and not status_matches(doc.get("status", ""), status):
        # Prefix-class semantics: --status error matches error:ValueError
        # while a full tag (or "ok") still matches exactly.
        return False
    return True


def _lost_row_doc(cell: CellTask, reason: str) -> Dict[str, Any]:
    """The error-status row reported when a cell's every attempt was lost."""
    from ..api.grid import _failure_row  # local: avoids import cycle at load

    family, size, _rep, fault_spec, clock_spec, scheme = cell.unit
    return _failure_row(scheme, family, size, fault_spec, clock_spec,
                        WorkerLostError(reason)).as_dict()
