"""The sweep worker: rematerialize cells from specs, ship ``(key, row)`` back.

A worker owns the heavy kernels and nothing else.  It connects to a
coordinator, advertises ``slots`` (its cell-level concurrency) in its hello
frame, and then answers ``cell`` frames: each carries a serialized
``GridConfig`` plus one :data:`~repro.api.grid.UnitSpec`, exactly the plain
picklable payload the local process-pool path ships.  The worker rebuilds
the config and runs the unit through any existing backend via
:func:`repro.api.grid._run_units`, the runner the local chunks call too.

Cells always execute ``strict=False`` with the grid's one-shot per-cell
retry (``retries``), so a failing scenario comes back as an honest
``status="error:..."`` *row* frame; ``error`` frames are reserved for the
worker itself breaking (e.g. a crashed process pool, which is rebuilt before
the next cell).  The returned row dict rides a ``row`` frame keyed by the
coordinator-assigned dispatch id; the coordinator stores it under the
content-addressed key it computed — workers never see the store directory.

Concurrency model: the asyncio loop multiplexes the socket while cells run
on an executor — a ``ProcessPoolExecutor`` for the CLI (``repro worker
--jobs N``), or threads (``pool="thread"``) when embedding workers
in-process (tests, the quickstart example) so backend invocations stay
observable in the host process.  A heartbeat ping rides the socket whenever
it has been idle, keeping the coordinator's liveness tracking fed.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from .protocol import (
    ProtocolError,
    check_hello,
    hello_frame,
    read_frame,
    write_frame,
)

__all__ = ["Worker", "execute_cell"]


def execute_cell(
    config_doc: Dict[str, Any],
    unit: Tuple,
    backend: Optional[str],
    trace_level: str,
    retries: int,
) -> Dict[str, Any]:
    """Run one grid cell from its serializable spec; returns the row dict.

    Module-level so a ``ProcessPoolExecutor`` can pickle it; shared by the
    thread pool path.  ``strict=False`` turns any scenario failure into an
    error-status row — this function only raises if the runner itself is
    broken (import errors, a dying pool), which the caller reports as a
    protocol ``error`` frame.
    """
    from ..api.grid import GridConfig, _run_units  # local: keep fork imports lazy

    config = GridConfig(**config_doc)
    unit = (
        str(unit[0]), int(unit[1]), int(unit[2]),
        unit[3], unit[4], str(unit[5]),
    )
    rows = _run_units(config, [unit], backend=backend, trace_level=trace_level,
                      strict=False, retries=retries)
    return rows[0].as_dict()


class Worker:
    """One worker loop bound to one coordinator connection.

    ``await Worker("127.0.0.1:7341", jobs=4).run()`` connects, serves cells
    until the coordinator says ``bye`` (or drops), then cleans up its pool.
    ``backend=None`` runs whatever backend each cell frame requests (the
    submitting client's choice); a non-None ``backend`` overrides it for
    every cell this worker runs — pure execution provenance, since store
    keys are computed coordinator-side from the *submission's* backend.
    """

    def __init__(
        self,
        address: str,
        *,
        backend: Optional[str] = None,
        jobs: int = 1,
        retries: int = 1,
        pool: str = "process",
        name: str = "",
        heartbeat_interval: float = 10.0,
    ) -> None:
        from .protocol import parse_address

        self.host, self.port = parse_address(address)
        self.backend = backend
        self.jobs = max(1, int(jobs))
        self.retries = max(0, int(retries))
        if pool not in ("process", "thread"):
            raise ValueError(f"pool must be 'process' or 'thread', got {pool!r}")
        self.pool_kind = pool
        self.name = name
        self.heartbeat_interval = float(heartbeat_interval)
        self.cells_run = 0
        self._executor: Optional[Executor] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._wlock = asyncio.Lock()
        self._cell_tasks: "set[asyncio.Task]" = set()

    def _make_executor(self) -> Executor:
        if self.pool_kind == "process":
            return ProcessPoolExecutor(max_workers=self.jobs)
        return ThreadPoolExecutor(max_workers=self.jobs,
                                  thread_name_prefix="svc-worker")

    async def run(self) -> None:
        """Connect, serve cells until the coordinator closes, clean up."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        self._executor = self._make_executor()
        heartbeat: Optional[asyncio.Task] = None
        try:
            await write_frame(writer, hello_frame(
                "worker", slots=self.jobs, name=self.name,
                backend=self.backend,
            ))
            welcome = await read_frame(reader)
            if welcome is None or welcome.get("type") == "error":
                message = (welcome or {}).get("message", "connection closed")
                raise ProtocolError(f"coordinator rejected worker: {message}")
            if welcome.get("type") != "welcome":
                raise ProtocolError(
                    f"expected welcome, got {welcome.get('type')!r}")
            heartbeat = asyncio.create_task(self._heartbeat())
            while True:
                frame = await read_frame(reader)
                if frame is None or frame["type"] == "bye":
                    break
                if frame["type"] == "cell":
                    task = asyncio.create_task(self._run_cell(frame))
                    self._cell_tasks.add(task)
                    task.add_done_callback(self._cell_tasks.discard)
                # pong and anything else: liveness only, nothing to do
        finally:
            if heartbeat is not None:
                heartbeat.cancel()
            for task in list(self._cell_tasks):
                task.cancel()
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None

    async def _run_cell(self, frame: Dict[str, Any]) -> None:
        dispatch_id = frame.get("id")
        loop = asyncio.get_running_loop()
        backend = self.backend if self.backend is not None else frame.get("backend")
        try:
            row_doc = await loop.run_in_executor(
                self._executor, execute_cell,
                frame["config"], tuple(frame["unit"]),
                backend, str(frame.get("trace_level", "summary")),
                self.retries,
            )
        except asyncio.CancelledError:
            raise
        except BrokenExecutor as exc:
            # The pool died under this cell (a worker process was killed).
            # Rebuild it so the next cells still run, and surrender the cell
            # — the coordinator's re-queue accounting owns the retry.
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = self._make_executor()
            await self._send({"type": "error", "id": dispatch_id,
                              "message": f"worker pool died: {exc!r}"})
            return
        except Exception as exc:
            await self._send({"type": "error", "id": dispatch_id,
                              "message": f"{type(exc).__name__}: {exc}"})
            return
        self.cells_run += 1
        await self._send({"type": "row", "id": dispatch_id,
                          "key": frame.get("key"), "row": row_doc})

    async def _send(self, frame: Dict[str, Any]) -> None:
        writer = self._writer
        if writer is None:
            return
        try:
            async with self._wlock:
                await write_frame(writer, frame)
        except (ConnectionError, OSError):
            pass  # coordinator gone; run() unwinds on its next read

    async def _heartbeat(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            await self._send({"type": "ping"})


async def run_workers(
    address: str,
    count: int,
    *,
    backend: Optional[str] = None,
    jobs: int = 1,
    retries: int = 1,
    pool: str = "process",
    name_prefix: str = "worker",
) -> List[Worker]:
    """Convenience: start ``count`` workers as tasks; returns the workers.

    Used by the in-process harness and the quickstart example; the returned
    workers are already connected (their ``run()`` coroutines are scheduled
    on the current loop).
    """
    workers = [
        Worker(address, backend=backend, jobs=jobs, retries=retries,
               pool=pool, name=f"{name_prefix}-{i}")
        for i in range(count)
    ]
    for worker in workers:
        worker.task = asyncio.create_task(worker.run())  # held on the worker
    await asyncio.sleep(0)  # let the hellos go out
    return workers
