"""Unit tests for the sweep service's wire protocol (no sockets needed).

``encode_frame`` / ``FrameDecoder`` are pure byte transforms, so the framing
layer is exercised here against the two realities of a TCP stream — frames
split across arbitrarily many reads and several frames arriving in one read —
plus every rejection path (oversized headers, junk JSON, unknown types,
bodies nested past the decoder's recursion limit, version mismatches) and a
Hypothesis property: arbitrary bytes in arbitrary splits yield whole frames
or a :class:`ProtocolError`, nothing else.  One socketpair test pins the sync and async transports
to the same wire format.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    FRAME_TYPES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameReader,
    ProtocolError,
    check_hello,
    encode_frame,
    format_address,
    hello_frame,
    parse_address,
    read_frame,
    send_frame,
)

FRAMES = [
    hello_frame("worker", slots=4, name="w0", backend="reference"),
    hello_frame("client"),
    {"type": "welcome", "version": PROTOCOL_VERSION, "store_rows": 12},
    {"type": "submit", "config": {"families": ["path"], "sizes": [16]},
     "backend": None, "trace_level": "summary", "strict": True, "credit": 64},
    {"type": "plan", "total": 8, "cached": 3},
    {"type": "credit", "n": 32},
    {"type": "cell", "id": 7, "key": "ab" * 32,
     "config": {"families": ["path"], "sizes": [16]},
     "unit": ["path", 16, 0, None, None, "lambda"],
     "backend": None, "trace_level": "summary"},
    {"type": "row", "id": 7, "key": "ab" * 32, "row": {"scheme": "lambda"}},
    {"type": "error", "message": "boom", "index": 3, "key": "cd" * 32},
    {"type": "done", "total": 8, "cached": 3, "computed": 5, "failed": 0},
    {"type": "query", "schemes": ["lambda"], "status": "ok"},
    {"type": "aggregate", "column": "completion_round", "by": ["scheme", "n"],
     "status": "ok", "ci": False},
    {"type": "aggregate_result", "column": "completion_round",
     "by": ["scheme", "n"], "rows_seen": 8,
     "groups": [{"by": {"scheme": "lambda", "n": 16},
                 "stats": {"count": 4, "mean": 10.5}}]},
    {"type": "ping"},
    {"type": "pong"},
    {"type": "bye"},
]


# --------------------------------------------------------------------------- #
# framing: encode + incremental decode
# --------------------------------------------------------------------------- #
class TestFraming:
    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f["type"])
    def test_every_frame_type_roundtrips(self, frame):
        wire = encode_frame(frame)
        (length,) = struct.unpack(">I", wire[:4])
        assert length == len(wire) - 4
        assert json.loads(wire[4:]) == frame
        decoded = FrameDecoder().feed(wire)
        assert decoded == [frame]

    def test_one_byte_at_a_time(self):
        wire = b"".join(encode_frame(f) for f in FRAMES)
        decoder = FrameDecoder()
        out = []
        for i in range(len(wire)):
            out.extend(decoder.feed(wire[i:i + 1]))
        assert out == FRAMES
        assert decoder.pending_bytes == 0

    def test_many_frames_in_one_chunk(self):
        wire = b"".join(encode_frame(f) for f in FRAMES)
        assert FrameDecoder().feed(wire) == FRAMES

    def test_split_at_every_boundary(self):
        # Two frames, split at every possible byte offset: the decoder must
        # reassemble them regardless of where the TCP stack cut the stream.
        wire = encode_frame({"type": "ping"}) + encode_frame({"type": "pong"})
        for cut in range(1, len(wire)):
            decoder = FrameDecoder()
            out = decoder.feed(wire[:cut]) + decoder.feed(wire[cut:])
            assert out == [{"type": "ping"}, {"type": "pong"}], cut

    def test_pending_bytes_tracks_the_partial_frame(self):
        wire = encode_frame({"type": "done", "total": 1, "cached": 0,
                             "computed": 1, "failed": 0})
        decoder = FrameDecoder()
        assert decoder.feed(wire[:6]) == []
        assert decoder.pending_bytes == 6
        assert len(decoder.feed(wire[6:])) == 1
        assert decoder.pending_bytes == 0

    def test_deterministic_encoding(self):
        # sort_keys + compact separators: the same frame always encodes to
        # the same bytes (content-addressing friendly, diffable captures).
        a = encode_frame({"type": "plan", "total": 4, "cached": 1})
        b = encode_frame({"cached": 1, "total": 4, "type": "plan"})
        assert a == b


class TestRejections:
    def test_encode_rejects_non_dicts_and_unknown_types(self):
        with pytest.raises(ProtocolError, match="must be a dict"):
            encode_frame(["type", "ping"])
        with pytest.raises(ProtocolError, match="unknown frame type"):
            encode_frame({"type": "teleport"})
        with pytest.raises(ProtocolError, match="unknown frame type"):
            encode_frame({"no_type": True})

    def test_oversized_header_rejected_without_buffering(self):
        huge = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            FrameDecoder().feed(huge + b"x")

    def test_body_must_be_json(self):
        body = b"not json"
        wire = struct.pack(">I", len(body)) + body
        with pytest.raises(ProtocolError, match="not valid JSON"):
            FrameDecoder().feed(wire)

    def test_body_must_be_an_object_with_a_known_type(self):
        for payload in (b"[1,2]", b'"ping"', b'{"type": "warp"}', b"{}",
                        b'{"type": []}', b'{"type": {"a": 1}}', b'{"type": 3}'):
            wire = struct.pack(">I", len(payload)) + payload
            with pytest.raises(ProtocolError, match="known 'type'"):
                FrameDecoder().feed(wire)

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=512), tail=st.binary(max_size=64),
           framed=st.booleans(), cuts=st.lists(st.integers(0, 600)))
    # Far below MAX_FRAME_BYTES, far past the JSON decoder's recursion
    # limit, and out of reach of random bytes.
    @example(body=b"[" * 100_000, tail=b"", framed=True, cuts=[50_000])
    def test_arbitrary_bytes_yield_frames_or_protocol_errors(
        self, body, tail, framed, cuts
    ):
        """Any bytes, split anywhere: whole frames come out, or a
        ProtocolError does; nothing else escapes the decoder.  ``framed``
        puts a header announcing the body's exact length in front, so the
        body parser sees arbitrary bytes too, not only the header check."""
        data = (struct.pack(">I", len(body)) if framed else b"") + body + tail
        bounds = sorted({0, len(data), *(c for c in cuts if c <= len(data))})
        decoder = FrameDecoder()
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                for frame in decoder.feed(data[lo:hi]):
                    assert isinstance(frame, dict) and frame["type"] in FRAME_TYPES
        except ProtocolError:
            pass


# --------------------------------------------------------------------------- #
# hello handshake
# --------------------------------------------------------------------------- #
class TestHello:
    def test_hello_carries_version_and_extra_fields(self):
        frame = hello_frame("worker", slots=2, name="w")
        assert frame["version"] == PROTOCOL_VERSION
        assert frame["slots"] == 2
        assert check_hello(frame) is frame

    def test_unknown_role_rejected_at_both_ends(self):
        with pytest.raises(ProtocolError, match="unknown role"):
            hello_frame("observer")
        with pytest.raises(ProtocolError, match="unknown role"):
            check_hello({"type": "hello", "version": PROTOCOL_VERSION,
                         "role": "observer"})

    def test_version_mismatch_rejected(self):
        stale = {"type": "hello", "version": PROTOCOL_VERSION + 1,
                 "role": "client"}
        with pytest.raises(ProtocolError, match="version mismatch"):
            check_hello(stale)

    def test_eof_and_wrong_first_frame_rejected(self):
        with pytest.raises(ProtocolError, match="closed before"):
            check_hello(None)
        with pytest.raises(ProtocolError, match="expected a hello"):
            check_hello({"type": "ping"})


# --------------------------------------------------------------------------- #
# addresses
# --------------------------------------------------------------------------- #
class TestAddresses:
    @pytest.mark.parametrize("text,expected", [
        ("127.0.0.1:7341", ("127.0.0.1", 7341)),
        ("0.0.0.0:0", ("0.0.0.0", 0)),
        ("7341", ("127.0.0.1", 7341)),       # bare port
        (":7341", ("127.0.0.1", 7341)),      # empty host
        ("myhost:65535", ("myhost", 65535)),
    ])
    def test_parse_forms(self, text, expected):
        assert parse_address(text) == expected

    @pytest.mark.parametrize("text", ["host:port", "", "host:", "1:2:x",
                                      "host:70000", "host:-1"])
    def test_parse_rejects_junk(self, text):
        with pytest.raises(ValueError, match="invalid"):
            parse_address(text)

    def test_format_is_the_inverse(self):
        host, port = parse_address("10.0.0.2:8080")
        assert format_address(host, port) == "10.0.0.2:8080"


# --------------------------------------------------------------------------- #
# sync <-> async transport interop (one socketpair, no server needed)
# --------------------------------------------------------------------------- #
class TestTransportInterop:
    def test_sync_send_recv_roundtrip(self):
        a, b = socket.socketpair()
        try:
            for frame in FRAMES:
                send_frame(a, frame)
            a.shutdown(socket.SHUT_WR)
            reader = FrameReader(b)
            received = []
            while True:
                frame = reader.read()
                if frame is None:  # clean EOF at a frame boundary
                    break
                received.append(frame)
            assert received == FRAMES
            assert reader.read() is None  # EOF stays EOF
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("part", ["header", "body"])
    def test_recv_raises_on_mid_frame_eof(self, part):
        # The whole frame before the cut is still delivered.
        pong = encode_frame({"type": "pong"})
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"type": "ping"})
                      + (pong[:3] if part == "header" else pong[:-2]))
            a.close()
            reader = FrameReader(b)
            assert reader.read() == {"type": "ping"}
            with pytest.raises(ProtocolError, match=f"mid frame {part}"):
                reader.read()
        finally:
            b.close()

    def test_async_reader_speaks_the_same_wire_format(self):
        # A sync sender's bytes through the asyncio reader: the two transport
        # layers must interoperate by construction.
        async def scenario():
            reader = asyncio.StreamReader()
            for frame in FRAMES:
                reader.feed_data(encode_frame(frame))
            reader.feed_eof()
            out = []
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                out.append(frame)
            return out

        assert asyncio.run(scenario()) == FRAMES

    def test_async_reader_rejects_mid_frame_eof(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"type": "ping"})[:5])
            reader.feed_eof()
            await read_frame(reader)

        with pytest.raises(ProtocolError, match="mid frame"):
            asyncio.run(scenario())

    def test_frame_types_cover_the_documented_vocabulary(self):
        assert {f["type"] for f in FRAMES} == FRAME_TYPES
