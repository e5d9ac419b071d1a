"""The programmatic client: submit grids, query rows, get a ``ResultSet``.

:class:`ServiceClient` is a plain blocking-socket client (no asyncio in the
caller's process) speaking :mod:`repro.service.protocol`.  A submission
streams back ``row`` frames under client-granted credit; the client
reassembles them by the coordinator-assigned submission index into the
stable grid row order, so::

    with ServiceClient("127.0.0.1:7341") as client:
        rows = client.submit(config)

returns a :class:`~repro.store.ResultSet` bit-identical to a local
``run_grid(config)`` against the same store — and a warm grid comes back
with ``client.last_summary["computed"] == 0``, served entirely from the
coordinator's cache.

Every frame (``welcome``, ``pong``, rows) is read through one buffered
:class:`~repro.service.protocol.FrameReader`, so a burst of row frames costs
a few ``recv`` calls rather than two per frame.  The socket sets
``TCP_NODELAY``: the coordinator writes a whole credit grant at once and
then waits for the next ``credit`` frame, and without it Nagle's algorithm
holds that small frame (and the ``submit``) back until the coordinator's
delayed ACK, tens of milliseconds per submit.
"""

from __future__ import annotations

import socket
from dataclasses import asdict, is_dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..store import ResultSet
from ..store.resultset import _row_dict_to_metrics
from .protocol import (
    FrameReader,
    ProtocolError,
    hello_frame,
    parse_address,
    send_frame,
)

__all__ = ["ServiceClient", "ServiceError", "DEFAULT_WINDOW"]

#: Row frames the coordinator may have in flight toward this client before
#: it must wait for more credit.
DEFAULT_WINDOW = 64


class ServiceError(RuntimeError):
    """The coordinator reported a failure (or the stream broke)."""


class ServiceClient:
    """One connection to a sweep coordinator (context-manager friendly).

    One stream (submission or query) runs at a time per connection — open
    several clients for concurrent streams.  ``last_summary`` holds the
    final ``done`` frame of the most recent stream:
    ``{"total", "cached", "computed", "failed"}``.
    """

    def __init__(self, address: str, *, timeout: Optional[float] = 120.0) -> None:
        self.host, self.port = parse_address(address)
        self.last_summary: Dict[str, Any] = {}
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=timeout)
        self._frames = FrameReader(self._sock)
        try:
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(self._sock, hello_frame("client"))
            welcome = self._frames.read()
            if welcome is None or welcome.get("type") == "error":
                raise ServiceError(
                    f"coordinator rejected client: "
                    f"{(welcome or {}).get('message', 'connection closed')}")
            if welcome.get("type") != "welcome":
                raise ProtocolError(
                    f"expected welcome, got {welcome.get('type')!r}")
            self.store_rows = int(welcome.get("store_rows", 0))
        except BaseException:
            self._sock.close()
            raise

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._sock is None:
            return
        try:
            send_frame(self._sock, {"type": "bye"})
        except (ConnectionError, OSError):
            pass
        self._sock.close()
        self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def ping(self) -> bool:
        """Round-trip a heartbeat; True iff the coordinator answered."""
        try:
            send_frame(self._sock, {"type": "ping"})
            frame = self._frames.read()
        except (ConnectionError, OSError, ProtocolError):
            return False
        return frame is not None and frame.get("type") == "pong"

    # ------------------------------------------------------------------ #
    # submissions
    # ------------------------------------------------------------------ #
    def submit(
        self,
        config: Any,
        *,
        backend: Optional[str] = None,
        trace_level: str = "summary",
        strict: bool = True,
        window: int = DEFAULT_WINDOW,
    ) -> ResultSet:
        """Run (or cache-serve) a grid remotely; rows in stable grid order.

        ``config`` is a :class:`~repro.api.GridConfig` or a plain dict of its
        fields.  Raises :class:`ServiceError` when a strict submission hits a
        cell that failed all its attempts (mirroring ``GridExecutionError``
        locally); with ``strict=False`` such cells come back as
        ``status="error:..."`` rows like a local ``--keep-going`` sweep.
        """
        config_doc = asdict(config) if is_dataclass(config) else dict(config)
        send_frame(self._sock, {
            "type": "submit", "config": config_doc, "backend": backend,
            "trace_level": trace_level, "strict": bool(strict),
            "credit": max(1, int(window)),
        })
        plan = self._expect({"plan"})
        total = int(plan["total"])
        self.last_plan = {"total": total, "cached": int(plan.get("cached", 0))}
        docs = self._drain_stream(total, window)
        rows = [None] * total
        for index, doc in docs:
            rows[index] = _row_dict_to_metrics(doc)
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            raise ServiceError(
                f"stream ended with {len(missing)} of {total} rows missing "
                f"(first missing index {missing[0]})")
        return ResultSet(rows)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self,
        *,
        key: Optional[str] = None,
        schemes: Optional[Sequence[str]] = None,
        families: Optional[Sequence[str]] = None,
        sizes: Optional[Sequence[int]] = None,
        status: Optional[str] = None,
        window: int = DEFAULT_WINDOW,
    ) -> ResultSet:
        """Stream stored rows matching a key or column filters.

        ``key`` short-circuits to at most one row (the O(1) indexed path);
        the column filters scan the store coordinator-side.  All filters
        compose conjunctively.
        """
        frame: Dict[str, Any] = {"type": "query",
                                 "credit": max(1, int(window))}
        if key is not None:
            frame["key"] = key
        if schemes:
            frame["schemes"] = list(schemes)
        if families:
            frame["families"] = list(families)
        if sizes:
            frame["sizes"] = [int(s) for s in sizes]
        if status:
            frame["status"] = status
        send_frame(self._sock, frame)
        docs = self._drain_stream(None, window)
        return ResultSet(_row_dict_to_metrics(doc) for _index, doc in docs)

    # ------------------------------------------------------------------ #
    # aggregates
    # ------------------------------------------------------------------ #
    def aggregate(
        self,
        column: str,
        *,
        by: Optional[Sequence[str]] = None,
        schemes: Optional[Sequence[str]] = None,
        families: Optional[Sequence[str]] = None,
        sizes: Optional[Sequence[int]] = None,
        status: Optional[str] = None,
        ci: bool = False,
    ) -> List[Dict[str, Any]]:
        """Server-side groupby/aggregate: per-group statistics, no row stream.

        The coordinator answers from its store's columns (column-proportional
        reads against a columnar-compacted store) with the same statistics
        kernel the local paths use, so the groups returned here are equal to
        ``aggregate_result_set(filter_result_set(store.rows(), ...), ...)``
        against the same store.  Returns ``[{"by": {...}, "stats": {...}}]``
        in first-seen group order; ``self.last_summary`` reports
        ``{"rows_seen", "groups"}``.
        """
        frame: Dict[str, Any] = {"type": "aggregate", "column": column}
        if by:
            frame["by"] = list(by)
        if schemes:
            frame["schemes"] = list(schemes)
        if families:
            frame["families"] = list(families)
        if sizes:
            frame["sizes"] = [int(s) for s in sizes]
        if status:
            frame["status"] = status
        if ci:
            frame["ci"] = True
        send_frame(self._sock, frame)
        result = self._expect({"aggregate_result"})
        # The wire encoding sorts object keys, scrambling the statistics
        # kernel's field order; restore it so remote answers serialize
        # byte-identically to the local eager/streaming paths.
        order = ("count", "mean", "std", "min", "p05", "median", "p95",
                 "max", "ci95_low", "ci95_high")
        by_cols = list(result.get("by", []))
        groups = []
        for group in result.get("groups", []):
            stats = dict(group.get("stats", {}))
            ordered = {k: stats.pop(k) for k in order if k in stats}
            ordered.update(stats)
            keys = dict(group.get("by", {}))
            named = {k: keys.pop(k) for k in by_cols if k in keys}
            named.update(keys)
            groups.append({**group, "by": named, "stats": ordered})
        self.last_summary = {
            "rows_seen": int(result.get("rows_seen", 0)),
            "groups": len(groups),
        }
        return groups

    # ------------------------------------------------------------------ #
    # stream plumbing
    # ------------------------------------------------------------------ #
    def _expect(self, kinds: "set[str]") -> Dict[str, Any]:
        frame = self._frames.read()
        if frame is None:
            raise ServiceError("coordinator closed the connection mid-stream")
        if frame.get("type") == "error":
            raise ServiceError(str(frame.get("message", "coordinator error")))
        if frame.get("type") not in kinds:
            raise ProtocolError(
                f"expected one of {sorted(kinds)}, got {frame.get('type')!r}")
        return frame

    def _drain_stream(self, total: Optional[int], window: int) -> List[Any]:
        """Collect ``(index, row_doc)`` pairs until the ``done`` frame.

        Grants credit back in half-window batches so the coordinator's
        in-flight row count stays within ``window`` without a per-row
        credit frame ping-pong.
        """
        window = max(1, int(window))
        refill_at = max(1, window // 2)
        consumed = 0
        docs: List[Any] = []
        while True:
            frame = self._expect({"row", "done"})
            if frame["type"] == "done":
                self.last_summary = {
                    "total": int(frame.get("total", len(docs))),
                    "cached": int(frame.get("cached", 0)),
                    "computed": int(frame.get("computed", 0)),
                    "failed": int(frame.get("failed", 0)),
                }
                return docs
            docs.append((int(frame["index"]), frame["row"]))
            consumed += 1
            if consumed >= refill_at:
                send_frame(self._sock, {"type": "credit", "n": consumed})
                consumed = 0
            if total is not None and len(docs) > total:
                raise ProtocolError(
                    f"coordinator sent more rows ({len(docs)}) than the "
                    f"plan announced ({total})")
