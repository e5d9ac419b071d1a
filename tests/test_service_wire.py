"""The coordinator → client wire, byte for byte.

A warm row is served from its stored bytes: ``ResultStore.row_json`` slices
the row object out of its JSONL line (or encodes a columnar row),
``encode_row_frame`` splices it into the ``row`` frame, and the coordinator
writes every frame one credit grant covers at once.  These tests pin what
that must not change:

* a spliced frame equals ``encode_frame`` of the row's dict, for JSONL and
  columnar-compacted stores and rows whose strings need escapes;
* a raw-socket client granting 1, 3 and 64 credits receives exactly that
  many row frames, then nothing until it grants more;
* rows served from JSONL, two-character-layout and columnar stores equal
  ``run_grid``'s rows;
* a stored line corrupted in place ends the submit with the error frame for
  its key, after exactly the rows before it, and the client raises
  ``ServiceError``.
"""

from __future__ import annotations

import json
import shutil
import socket
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import RunMetrics
from repro.api import GridConfig, ResultStore, grid_row_specs, grid_unit_key, run_grid
from repro.service import ServiceClient, ServiceError, ServiceHarness
from repro.service.protocol import (
    FrameDecoder,
    canonical_json,
    encode_frame,
    encode_row_frame,
    hello_frame,
    parse_address,
    send_frame,
)

CFG = GridConfig(families=["path", "grid"], sizes=[9, 12], seeds_per_size=3,
                 schemes=["lambda", "round_robin"])
UNITS = grid_row_specs(CFG)
TOTAL = len(UNITS)  # 24 rows, fewer than one 64-credit window


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store holding every row of ``CFG`` (JSONL, with sidecars)."""
    root = tmp_path_factory.mktemp("wire") / "store"
    with ResultStore(root) as store:
        rows = run_grid(CFG, store=store)
    return root, rows


def _copy(root: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(root, tmp_path / "store"))


# --------------------------------------------------------------------------- #
# frame bytes
# --------------------------------------------------------------------------- #
_AWKWARD = ['"', "\\", "}", "{", ',"schema":', '"row":', "é", "☃",
            "\U0001f600", "\n", "\x7f", " ", "ok", "error:ValueError"]
_TEXT = st.one_of(
    st.lists(st.sampled_from(_AWKWARD), max_size=6).map("".join),
    st.text(max_size=12),
)
#: Columnar segments hold int64; a larger int keeps its row in JSONL.
_INT64 = st.integers(-2**63, 2**63 - 1)
_INT = st.one_of(_INT64, st.integers(2**63, 2**80), st.integers(-2**80, -2**63 - 1))


@st.composite
def _metrics(draw, ints=_INT):
    optional_ints = st.one_of(st.none(), ints)
    return RunMetrics(
        scheme=draw(_TEXT), family=draw(_TEXT), n=draw(ints),
        source_eccentricity=draw(ints), label_bits=draw(ints),
        distinct_labels=draw(ints), completion_round=draw(optional_ints),
        bound=draw(optional_ints), acknowledgement_round=draw(optional_ints),
        transmissions=draw(ints), collisions=draw(ints),
        total_message_bits=draw(ints), fault=draw(_TEXT), clock=draw(_TEXT),
        backend=draw(_TEXT), status=draw(_TEXT),
    )


def _assert_frames_match(store: ResultStore, keys, rows) -> None:
    for index, (key, row) in enumerate(zip(keys, rows)):
        row_json = store.row_json(key)
        assert row_json == canonical_json(row.as_dict())
        for cached in (True, False):
            assert encode_row_frame(index, key, row_json, cached=cached) == \
                encode_frame({"type": "row", "index": index, "key": key,
                              "row": store.get(key).as_dict(),
                              "cached": cached})


class TestRowFrameBytes:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(_metrics(), min_size=1, max_size=4))
    def test_spliced_frame_equals_encode_frame(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            keys = [f"{i:x}" + "a" * 63 for i in range(len(rows))]
            with ResultStore(Path(tmp) / "s") as store:
                for key, row in zip(keys, rows):
                    store.put(key, row)
                _assert_frames_match(store, keys, rows)
            with ResultStore(Path(tmp) / "s") as reopened:
                _assert_frames_match(reopened, keys, rows)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rows=st.lists(_metrics(ints=_INT64), min_size=1, max_size=4))
    def test_columnar_frame_equals_encode_frame(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            keys = [f"{i:x}" + "a" * 63 for i in range(len(rows))]
            with ResultStore(Path(tmp) / "s") as store:
                for key, row in zip(keys, rows):
                    store.put(key, row)
                store.compact(format="columnar")
                assert store.describe()["formats"]["jsonl"]["segments"] == 0
                _assert_frames_match(store, keys, rows)

    def test_columnar_rows_are_encoded(self, warm_store, tmp_path):
        root, rows = warm_store
        keys = [grid_unit_key(CFG, unit) for unit in UNITS]
        with ResultStore(_copy(root, tmp_path)) as store:
            store.compact(format="columnar")
            assert store.describe()["formats"]["jsonl"]["segments"] == 0
            _assert_frames_match(store, keys, rows)

    def test_lines_not_written_by_put(self, tmp_path):
        # A trace after the row leaves the row's bytes as they are.  A second
        # "row" member however spelt (the parse keeps it), whitespace, a
        # number or a field set ``put`` would not write make the line's row
        # bytes differ from the row ``get`` reads; then that row is encoded.
        row = RunMetrics(scheme="lambda", family="path", n=5,
                         source_eccentricity=4, label_bits=2, distinct_labels=2,
                         completion_round=4, bound=7, acknowledgement_round=None,
                         transmissions=4, collisions=0, total_message_bits=8,
                         backend="vectorized")
        plain = canonical_json(row.as_dict())
        other = canonical_json({**row.as_dict(), "n": 6})
        key = "b" * 64
        head = b'{"key":"%s","row":' % key.encode()
        lines = [
            (head + plain + b',"schema":2,"trace":{}}', plain),
            (head + plain + b',"schema":2,"trace":{"row":{"n":1}}}', plain),
            (head + plain + b',"schema":2,"row":' + other + b"}", other),
            (head + plain + b',"schema":2,"row" :' + other + b"}", other),
            (head + plain + b',"schema":2,"\\u0072ow":' + other + b"}", other),
        ] + [
            (head + plain.replace(old, new) + b',"schema":2}', None)
            for old, new in [(b'"n":5', b'"n": 5'), (b'"n":5', b'"n":5.0'),
                             (b'"n":5', b'"n":-0'), (b'"n":5', b'"n":5,"x":1'),
                             (b'"status":"ok",', b"")]
        ]
        for i, (line, expected) in enumerate(lines):
            root = tmp_path / f"s{i}"
            with ResultStore(root):
                pass
            (root / "segments" / "b.jsonl").write_bytes(line + b"\n")
            with ResultStore(root) as store:
                row_json = store.row_json(key)
                assert row_json == canonical_json(store.get(key).as_dict())
                if expected is not None:
                    assert row_json == expected
                assert store.row_json("c" * 64) is None


# --------------------------------------------------------------------------- #
# credit: exactly as many row frames as granted
# --------------------------------------------------------------------------- #
class _RawClient:
    """A client that speaks the protocol frame by frame over a plain socket."""

    def __init__(self, address: str) -> None:
        self.sock = socket.create_connection(parse_address(address), timeout=10)
        self.decoder = FrameDecoder()
        self.frames: list = []
        send_frame(self.sock, hello_frame("client"))
        assert self.next()["type"] == "welcome"

    def next(self) -> dict:
        while not self.frames:
            chunk = self.sock.recv(1 << 16)
            assert chunk, "coordinator closed the connection"
            self.frames.extend(self.decoder.feed(chunk))
        return self.frames.pop(0)

    def quiet(self, seconds: float = 0.3) -> bool:
        """True when nothing arrives within ``seconds``."""
        if self.frames or self.decoder.pending_bytes:
            return False
        self.sock.settimeout(seconds)
        try:
            return not self.sock.recv(1 << 16, socket.MSG_PEEK)
        except socket.timeout:
            return True
        finally:
            self.sock.settimeout(10)

    def close(self) -> None:
        self.sock.close()


class TestCreditBound:
    def test_row_frames_never_exceed_the_credit_granted(self, warm_store,
                                                        tmp_path):
        root, rows = warm_store
        with ServiceHarness(_copy(root, tmp_path), workers=1) as svc:
            client = _RawClient(svc.address)
            try:
                send_frame(client.sock, {
                    "type": "submit", "config": {
                        "families": ["path", "grid"], "sizes": [9, 12],
                        "seeds_per_size": 3,
                        "schemes": ["lambda", "round_robin"]},
                    "backend": None, "trace_level": "summary",
                    "strict": True, "credit": 1})
                assert client.next() == {"type": "plan", "total": TOTAL,
                                         "cached": TOTAL}
                received = []
                for grant in (1, 3, 64):
                    if grant != 1:
                        send_frame(client.sock, {"type": "credit", "n": grant})
                    expected = min(grant, TOTAL - len(received))
                    for _ in range(expected):
                        frame = client.next()
                        assert frame["type"] == "row"
                        received.append(frame)
                    if len(received) < TOTAL:
                        assert client.quiet(), f"more than {grant} frames"
                done = client.next()
                assert done == {"type": "done", "total": TOTAL,
                                "cached": TOTAL, "computed": 0, "failed": 0}
                assert client.quiet()
            finally:
                client.close()
        assert [f["index"] for f in received] == list(range(TOTAL))
        assert [RunMetrics(**f["row"]) for f in received] == list(rows)


# --------------------------------------------------------------------------- #
# served rows from every store layout
# --------------------------------------------------------------------------- #
def _to_two_character_layout(root: Path) -> None:
    segments = root / "segments"
    lines: dict = {}
    for path in sorted(segments.glob("*.jsonl")):
        for line in path.read_bytes().splitlines(keepends=True):
            lines.setdefault(json.loads(line)["key"][:2], []).append(line)
        path.unlink()
    for path in segments.glob("*.idx"):
        path.unlink()
    for prefix, group in lines.items():
        (segments / f"{prefix}.jsonl").write_bytes(b"".join(group))


class TestServedRows:
    @pytest.mark.parametrize("layout", ["jsonl", "two_character", "columnar"])
    def test_warm_rows_equal_run_grid(self, warm_store, tmp_path, layout):
        root, rows = warm_store
        store_dir = _copy(root, tmp_path)
        if layout == "two_character":
            _to_two_character_layout(store_dir)
        elif layout == "columnar":
            with ResultStore(store_dir) as store:
                store.compact(format="columnar")
        with ServiceHarness(store_dir, workers=1) as svc:
            with ServiceClient(svc.address) as client:
                served = client.submit(CFG)
                summary = dict(client.last_summary)
                queried = client.query()
                lambdas = client.query(schemes=["lambda"], window=1)
            counters = svc.describe()
        assert list(served) == list(rows)
        assert summary == {"total": TOTAL, "cached": TOTAL, "computed": 0,
                           "failed": 0}
        assert counters["served_cached"] == TOTAL and counters["computed"] == 0
        assert sorted(map(repr, queried)) == sorted(map(repr, rows))
        assert sorted(map(repr, lambdas)) == sorted(
            repr(r) for r in rows if r.scheme == "lambda")


# --------------------------------------------------------------------------- #
# a corrupt line ends the stream with its key's error frame
# --------------------------------------------------------------------------- #
class TestCorruptRow:
    def _corrupt(self, root: Path, victim: int) -> str:
        key = grid_unit_key(CFG, UNITS[victim])
        segment = root / "segments" / f"{key[0]}.jsonl"
        data = segment.read_bytes()
        start = data.index(b'{"key":"%s"' % key.encode())
        end = data.index(b"\n", start)
        line = data[start:end].replace(b'"n":', b'"n";', 1)
        segment.write_bytes(data[:start] + line + data[end:])  # same length
        return key

    def test_submit_ends_with_the_key_error_frame(self, warm_store, tmp_path):
        root, rows = warm_store
        store_dir = _copy(root, tmp_path)
        victim = 5
        key = self._corrupt(store_dir, victim)
        with ServiceHarness(store_dir, workers=1) as svc:
            client = _RawClient(svc.address)
            try:
                send_frame(client.sock, {
                    "type": "submit", "config": {
                        "families": ["path", "grid"], "sizes": [9, 12],
                        "seeds_per_size": 3,
                        "schemes": ["lambda", "round_robin"]},
                    "backend": None, "trace_level": "summary",
                    "strict": True, "credit": 64})
                assert client.next()["type"] == "plan"
                frames = [client.next() for _ in range(victim + 1)]
            finally:
                client.close()
        assert [f["type"] for f in frames] == ["row"] * victim + ["error"]
        assert [f["index"] for f in frames[:victim]] == list(range(victim))
        assert frames[-1] == {
            "type": "error", "index": victim, "key": key,
            "message": f"cached row {key} vanished from the store "
                       f"mid-submission",
        }

    def test_client_raises_service_error(self, warm_store, tmp_path):
        root, _rows = warm_store
        store_dir = _copy(root, tmp_path)
        key = self._corrupt(store_dir, 0)
        with ServiceHarness(store_dir, workers=1) as svc:
            with ServiceClient(svc.address) as client:
                with pytest.raises(ServiceError, match=f"cached row {key}"):
                    client.submit(CFG)
                assert client.ping()

