"""The sweep service's wire protocol: versioned, length-prefixed JSON frames.

One frame is a 4-byte big-endian length header followed by that many bytes of
UTF-8 JSON encoding a single object with a ``"type"`` field.  Both ends of
every connection — coordinator ↔ worker and coordinator ↔ client — speak the
same vocabulary, so this module is the single source of truth for frame
shapes and is unit-testable without opening a socket
(:func:`encode_frame` / :class:`FrameDecoder` are pure byte transforms).

Frame vocabulary (version 2)::

    type      direction                payload fields
    --------  -----------------------  -------------------------------------
    hello     peer -> coordinator      version, role ("worker"|"client"),
                                       [slots, backend, name]   (workers)
    welcome   coordinator -> peer      version, store_rows
    submit    client -> coordinator    config (GridConfig dict), backend,
                                       trace_level, strict, credit
    plan      coordinator -> client    total, cached
    credit    client -> coordinator    n   (grants n more row frames)
    cell      coordinator -> worker    id, key, config, unit, backend,
                                       trace_level
    row       worker -> coordinator    id, key, row          (one result)
              coordinator -> client    index, key, row, cached
    error     either direction         message, [index, key, spec]
    done      coordinator -> client    total, cached, computed, failed
    query     client -> coordinator    [key] or [schemes, families, sizes,
                                       status]
    aggregate client -> coordinator    column, [by, schemes, families,
                                       sizes, status, ci]
    aggregate_result
              coordinator -> client    column, by, rows_seen, groups
    ping      peer -> coordinator      heartbeat (any frame refreshes
    pong      coordinator -> peer      liveness; ping works when idle)
    bye       either direction         orderly goodbye

Flow control is credit-based in both legs: a worker's ``hello.slots``
advertises how many cells it can hold (each ``row``/``error`` it returns
frees one slot), and a client's ``submit.credit`` / ``credit`` frames bound
how many ``row`` frames the coordinator may have in flight toward it — a
slow client therefore throttles its own stream instead of ballooning
coordinator memory (rows are re-read from the store at send time, never
buffered per client).  The coordinator writes every row frame one grant
covers in one write; the frames themselves are unchanged.

A stored row is served from its bytes: :func:`encode_row_frame` splices a
row's compact, key-sorted JSON (``ResultStore.row_json``) into the ``row``
frame, and the result is byte-identical to :func:`encode_frame` of the same
frame dict, so no row is parsed into an object and re-encoded on the way.

The async and sync I/O helpers (:func:`read_frame` / :func:`write_frame` and
:class:`FrameReader` / :func:`send_frame`) share :func:`encode_frame`,
:class:`FrameDecoder` and the header format, so the coordinator (asyncio) and
the plain-socket client and tests interoperate by construction.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "FRAME_TYPES",
    "ProtocolError",
    "canonical_json",
    "encode_frame",
    "encode_row_frame",
    "FrameDecoder",
    "FrameReader",
    "hello_frame",
    "check_hello",
    "parse_address",
    "format_address",
    "read_frame",
    "write_frame",
    "send_frame",
]

#: Bumped whenever a frame's meaning changes; ``hello``/``welcome`` carry it
#: and both ends reject a mismatch up front instead of mis-parsing later.
#: Version 2 added the ``aggregate``/``aggregate_result`` pair (server-side
#: groupby/aggregate answered from store columns).
PROTOCOL_VERSION = 2

#: Hard upper bound on one frame's JSON body.  Far above any legitimate frame
#: (a row is ~400 bytes; a submit carries one GridConfig): its job is to turn
#: a corrupt / hostile length header into a clean error instead of an
#: attempted multi-gigabyte allocation.
MAX_FRAME_BYTES = 32 * 1024 * 1024

_HEADER = struct.Struct(">I")

FRAME_TYPES = frozenset({
    "hello", "welcome", "submit", "plan", "credit", "cell", "row",
    "error", "done", "query", "aggregate", "aggregate_result",
    "ping", "pong", "bye",
})

#: Roles a hello frame may declare.
ROLES = frozenset({"worker", "client"})


class ProtocolError(RuntimeError):
    """A malformed, oversized or version-incompatible frame."""


def canonical_json(value: Any) -> bytes:
    """Compact, key-sorted JSON: the encoding of every frame body."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def encode_frame(frame: Dict[str, Any]) -> bytes:
    """Serialize one frame dict to its length-prefixed wire form."""
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a dict, got {type(frame).__name__}")
    kind = frame.get("type")
    if kind not in FRAME_TYPES:
        raise ProtocolError(
            f"unknown frame type {kind!r}; known: {sorted(FRAME_TYPES)}"
        )
    return _with_header(canonical_json(frame))


def encode_row_frame(index: int, key: str, row_json: bytes, *, cached: bool) -> bytes:
    """The coordinator → client ``row`` frame around a row's JSON bytes.

    ``row_json`` must be the row object's :func:`canonical_json`; the frame
    is then byte-identical to ``encode_frame({"type": "row", "index": index,
    "key": key, "row": row, "cached": cached})``, whose sorted keys put the
    row between ``key`` and ``type``.
    """
    head = b'{"cached":true,"index":' if cached else b'{"cached":false,"index":'
    return _with_header(b"".join((
        head, b"%d" % index, b',"key":', canonical_json(key),
        b',"row":', row_json, b',"type":"row"}',
    )))


def _with_header(data: bytes) -> bytes:
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(data)) + data


class FrameDecoder:
    """Incremental decoder: feed arbitrary byte chunks, get whole frames out.

    Handles frames split across any number of ``feed`` calls and multiple
    frames arriving in one chunk — the two realities of a TCP stream.  Raises
    :class:`ProtocolError` on an oversized length header or a body that is
    not a JSON object with a known ``type``; the decoder is unusable after an
    error (the stream framing is lost).
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Consume ``data``; return every frame it completes, in order."""
        self._buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame header announces {length} bytes "
                    f"(> MAX_FRAME_BYTES {MAX_FRAME_BYTES})"
                )
            if len(self._buffer) < _HEADER.size + length:
                return frames
            body = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:_HEADER.size + length]
            frames.append(_parse_body(body))


def _parse_body(body: bytes) -> Dict[str, Any]:
    try:
        frame = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from None
    except RecursionError:
        raise ProtocolError("frame body nests too deeply to decode") from None
    kind = frame.get("type") if isinstance(frame, dict) else type(frame).__name__
    # A str check first: an unhashable ``type`` (a list) cannot be looked up.
    if not isinstance(frame, dict) or not isinstance(kind, str) \
            or kind not in FRAME_TYPES:
        raise ProtocolError(
            f"frame body must be an object with a known 'type', got {kind!r}"
        )
    return frame


def hello_frame(role: str, **fields: Any) -> Dict[str, Any]:
    """The connection-opening frame a worker or client sends first."""
    if role not in ROLES:
        raise ProtocolError(f"unknown role {role!r}; known: {sorted(ROLES)}")
    frame = {"type": "hello", "version": PROTOCOL_VERSION, "role": role}
    frame.update(fields)
    return frame


def check_hello(frame: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Validate a received hello frame; returns it (raises on any mismatch)."""
    if frame is None:
        raise ProtocolError("connection closed before a hello frame arrived")
    if frame.get("type") != "hello":
        raise ProtocolError(f"expected a hello frame, got {frame.get('type')!r}")
    version = frame.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this end speaks {PROTOCOL_VERSION}"
        )
    if frame.get("role") not in ROLES:
        raise ProtocolError(f"hello with unknown role {frame.get('role')!r}")
    return frame


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``, meaning 127.0.0.1) into a pair."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid service address {text!r}: expected HOST:PORT") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"invalid port {port} in service address {text!r}")
    return host, port


def format_address(host: str, port: int) -> str:
    """The canonical ``HOST:PORT`` rendering of an address pair."""
    return f"{host}:{port}"


# --------------------------------------------------------------------------- #
# asyncio transport (coordinator + worker)
# --------------------------------------------------------------------------- #
async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection dropped mid frame header") from None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame header announces {length} bytes "
            f"(> MAX_FRAME_BYTES {MAX_FRAME_BYTES})"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection dropped mid frame body") from None
    return _parse_body(body)


async def write_frame(writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
    """Write one frame and drain (the await is the TCP backpressure point)."""
    writer.write(encode_frame(frame))
    await writer.drain()


# --------------------------------------------------------------------------- #
# blocking-socket transport (ServiceClient, CLI, tests)
# --------------------------------------------------------------------------- #
def send_frame(sock: socket.socket, frame: Dict[str, Any]) -> None:
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(frame))


class FrameReader:
    """Frames from a blocking socket, read through one :class:`FrameDecoder`.

    Each ``recv`` takes whatever the socket holds (up to 64 KiB), so a burst
    of row frames costs one call instead of two per frame; frames decoded
    ahead wait in the reader.  Use one reader per socket for its whole life:
    bytes it has buffered are gone from the socket.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._decoder = FrameDecoder()
        self._frames: Deque[Dict[str, Any]] = deque()

    def read(self) -> Optional[Dict[str, Any]]:
        """The next frame; ``None`` on a clean EOF at a frame boundary.

        Raises :class:`ProtocolError` when the peer closes mid frame.
        """
        while not self._frames:
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                pending = self._decoder.pending_bytes
                if not pending:
                    return None
                raise ProtocolError(
                    "connection dropped mid frame "
                    + ("header" if pending < _HEADER.size else "body")
                )
            self._frames.extend(self._decoder.feed(chunk))
        return self._frames.popleft()
