"""Tests for the offset-indexed store substrate.

Covers the sidecar ``.idx`` offset indexes (indexed reopens parse zero JSONL
lines, stale/missing sidecars self-heal from the segments), segment
compaction (duplicate / retired-schema / torn-tail lines dropped, byte-stable
rewrites), concurrent cross-process writers under the per-segment advisory
lock, killed-writer crash consistency, and the scan-semantics regressions
fixed alongside (stale duplicate-key traces, schema-less lines).
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import struct
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mutate_bytes
from repro.analysis import RunMetrics
from repro.analysis.metrics import METRIC_FIELDS
from repro.api import GridConfig, run_grid
from repro.radio.trace import ExecutionTrace
from repro.store import SCHEMA_VERSION, ResultStore, StoreError, compact_store
from repro.store.store import _shard_of


def _row(i: int = 0) -> RunMetrics:
    return RunMetrics(
        scheme="lambda", family="path", n=8 + i, source_eccentricity=7,
        label_bits=2, distinct_labels=2, completion_round=13, bound=13,
        acknowledgement_round=None, transmissions=7, collisions=0,
        total_message_bits=224,
    )


def _key(i: int, shard: str = "aa") -> str:
    return shard + f"{i:062x}"


def _segment(root: Path, shard: str = "aa", suffix: str = ".jsonl") -> Path:
    """The file ``put`` appends the ``_key(i, shard)`` rows to, or its sidecar."""
    return root / "segments" / f"{_shard_of(_key(0, shard))}{suffix}"


def _line(key: str, row: RunMetrics, *, schema=SCHEMA_VERSION, trace=None) -> str:
    doc = {"key": key, "row": row.as_dict()}
    if schema is not None:
        doc["schema"] = schema
    if trace is not None:
        doc["trace"] = trace.to_aggregates()
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _trace() -> ExecutionTrace:
    return ExecutionTrace.from_aggregates(8, 0, level="summary", num_rounds=5,
                                          total_transmissions=7)


# --------------------------------------------------------------------------- #
# sidecar offset indexes
# --------------------------------------------------------------------------- #
class TestSidecarIndex:
    def test_clean_reopen_parses_zero_jsonl_lines(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            for i in range(4):
                store.put(_key(i), _row(i))
            store.put(_key(0, "bb"), _row(9))
        reopened = ResultStore(tmp_path / "s")
        assert reopened.describe()["scanned_lines"] == 0  # fully indexed open
        assert len(reopened) == 5
        assert reopened.keys()[:4] == [_key(i) for i in range(4)]
        assert reopened.get(_key(2)) == _row(2)
        assert _key(0, "bb") in reopened

    def test_sidecars_are_disposable_caches(self, tmp_path):
        # A store written by code that predates the indexes (or whose .idx
        # files were deleted) opens fine from the JSONL alone, and the next
        # close() re-materializes the sidecars.
        with ResultStore(tmp_path / "s") as store:
            for i in range(3):
                store.put(_key(i), _row(i))
        for idx in (tmp_path / "s" / "segments").glob("*.idx"):
            idx.unlink()
        rescan = ResultStore(tmp_path / "s")
        assert rescan.describe()["scanned_lines"] == 3
        assert [k for k, _ in rescan.iter_items()] == [_key(i) for i in range(3)]
        rescan.close()
        assert sorted(p.name for p in (tmp_path / "s" / "segments").glob("*.idx")) \
            == [_segment(tmp_path / "s", suffix=".idx").name]
        assert ResultStore(tmp_path / "s").describe()["scanned_lines"] == 0

    def test_grown_segment_scans_only_the_new_tail(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            for i in range(5):
                store.put(_key(i), _row(i))
        # A second writer appends and is killed before close(): its lines sit
        # beyond the sidecar's covered bytes.
        writer = ResultStore(tmp_path / "s")
        writer.put(_key(5), _row(5))
        writer.put(_key(6), _row(6))  # no close -> sidecar not refreshed
        reopened = ResultStore(tmp_path / "s")
        assert reopened.describe()["scanned_lines"] == 2  # just the tail
        assert len(reopened) == 7
        assert reopened.get(_key(6)) == _row(6)

    def test_rebuild_index_flag_forces_a_full_scan(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            for i in range(4):
                store.put(_key(i), _row(i))
        cold = ResultStore(tmp_path / "s", rebuild_index=True)
        assert cold.describe()["scanned_lines"] == 4
        assert len(cold) == 4

    def test_truncated_segment_invalidates_the_sidecar(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            for i in range(3):
                store.put(_key(i), _row(i))
        segment = _segment(tmp_path / "s")
        segment.write_bytes(segment.read_bytes()[:-10])
        reopened = ResultStore(tmp_path / "s")
        assert reopened.describe()["scanned_lines"] > 0  # sidecar rejected
        assert len(reopened) == 2
        assert reopened.skipped_lines == 1

    def test_corrupt_sidecar_falls_back_to_scanning(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(0), _row(0))
        _segment(tmp_path / "s", suffix=".idx").write_bytes(b"garbage\n")
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get(_key(0)) == _row(0)
        assert reopened.describe()["scanned_lines"] == 1

    def test_reads_self_heal_after_external_compaction(self, tmp_path):
        # Another process compacting the store under us moves every byte
        # offset; the first failed span read must reload and retry.
        with ResultStore(tmp_path / "s") as store:
            store.put(_key(0), _row(0))
        segment = _segment(tmp_path / "s")
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(_line(_key(0), _row(5)) + _line(_key(1), _row(1)))
        reader = ResultStore(tmp_path / "s")
        assert reader.get(_key(0)) == _row(5)
        compact_store(tmp_path / "s")  # rewrites the segment in place
        assert reader.get(_key(1)) == _row(1)
        assert reader.get(_key(0)) == _row(5)

    def test_invalid_keys_are_rejected_at_put(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            for bad in ("", "has,comma", "has\nnewline", "../escape", 42):
                with pytest.raises(StoreError, match="invalid store key"):
                    store.put(bad, _row())


# --------------------------------------------------------------------------- #
# corrupt sidecars: a disposable cache must never take a read down
# --------------------------------------------------------------------------- #
def _sidecar_template(root: Path, *, columnar: bool) -> Path:
    """A store whose every JSONL segment carries a sidecar.

    JSONL-only: the shards of the ``aa`` and ``bb`` keys.  With
    ``columnar``, both are compacted to ``.colseg`` first, then ``bb``'s
    gains newer JSONL rows (a mixed shard) and ``cc``'s is JSONL alone.
    """
    with ResultStore(root) as store:
        for i in range(3):
            store.put(_key(i, "aa"), _row(i))
            store.put(_key(i, "bb"), _row(10 + i), trace=_trace())
    if columnar:
        compact_store(root, format="columnar")
        with ResultStore(root) as store:
            for i in range(3, 5):
                store.put(_key(i, "bb"), _row(10 + i))
            for i in range(3):
                store.put(_key(i, "cc"), _row(20 + i))
    return root


def _set_span(idx: Path, entry: int, *, offset=None, length=None) -> None:
    """Overwrite one (offset, length) pair of a sidecar's span blob."""
    raw = bytearray(idx.read_bytes())
    entries = int(raw.split(b"\n", 2)[1].split()[2])
    start = len(raw) - 16 * (entries - entry)
    if offset is not None:
        struct.pack_into("<q", raw, start, offset)
    if length is not None:
        struct.pack_into("<q", raw, start + 8, length)
    idx.write_bytes(bytes(raw))


@pytest.fixture(scope="module")
def sidecar_templates(tmp_path_factory):
    """``{kind: (root, keys, rows)}``: the rows a rebuilding open holds."""
    out = {}
    for kind in ("jsonl", "mixed"):
        root = _sidecar_template(tmp_path_factory.mktemp(kind) / "s",
                                 columnar=kind == "mixed")
        with ResultStore(root, rebuild_index=True) as truth:
            out[kind] = (root, truth.keys(), list(truth.rows()))
    return out


def _read_everything(root: Path, keys):
    """Open ``root`` and read it every way a caller can: the rows listed,
    the rows fetched by key, and the row count after both."""
    with ResultStore(root) as store:
        len(store)
        store.keys()
        rows = store.rows()
        for name in METRIC_FIELDS:
            rows.column(name)
        listed = list(rows)
        fetched = [store.get(key) for key in keys]
        return listed, fetched, len(store), store.describe()["scanned_lines"]


class TestCorruptSidecars:
    """The loader rejects any sidecar with a negative field or span, or a
    span ending past its covered bytes, and falls back to a full scan."""

    def _copy(self, template: Path, tmp_path: Path) -> Path:
        return Path(shutil.copytree(template, tmp_path / "s"))

    def test_negative_length_in_a_jsonl_only_shard(self, sidecar_templates, tmp_path):
        # -1 is the columnar-slot marker; ``cc`` has no .colseg to serve it.
        template, keys, rows = sidecar_templates["mixed"]
        root = self._copy(template, tmp_path)
        _set_span(_segment(root, "cc", ".idx"), 2, length=-1)
        listed, fetched, _, scanned = _read_everything(root, keys)
        assert listed == rows and fetched == rows
        assert scanned > 0  # the sidecar was rejected

    def test_negative_length_far_offset_in_a_mixed_shard(self, sidecar_templates, tmp_path):
        template, keys, rows = sidecar_templates["mixed"]
        root = self._copy(template, tmp_path)
        _set_span(_segment(root, "bb", ".idx"), 0, offset=10**9, length=-1)
        with ResultStore(root) as store:
            assert list(store.rows()) == rows
            assert [store.get(key) for key in keys] == rows

    def test_huge_length_is_never_read(self, sidecar_templates, tmp_path):
        template, keys, rows = sidecar_templates["jsonl"]
        root = self._copy(template, tmp_path)
        _set_span(_segment(root, suffix=".idx"), 1, length=2**62)
        with ResultStore(root) as store:
            assert store.get(keys[1]) == rows[1]
            assert list(store.rows()) == rows

    def test_negative_covered_bytes_reject_the_sidecar(self, sidecar_templates, tmp_path):
        template, keys, rows = sidecar_templates["jsonl"]
        root = self._copy(template, tmp_path)
        idx = _segment(root, suffix=".idx")
        magic, meta, rest = idx.read_bytes().split(b"\n", 2)
        fields = meta.split()
        idx.write_bytes(b"\n".join([magic, b" ".join([b"-5", *fields[1:]]), rest]))
        with ResultStore(root) as store:
            assert list(store.rows()) == rows

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_sidecars_read_back_the_rebuilt_rows(self, sidecar_templates, data):
        # Arbitrary flips, truncations, overwrites and span values in one
        # sidecar: only StoreError may escape, and whatever is read equals
        # what a full rescan holds (a key the corrupt sidecar misnamed is
        # healed by the first read that meets it, rows() included).
        kind = data.draw(st.sampled_from(sorted(sidecar_templates)))
        template, keys, rows = sidecar_templates[kind]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(shutil.copytree(template, Path(tmp) / "s"))
            sidecars = sorted((root / "segments").glob("*.idx"))
            victim = data.draw(st.sampled_from(sidecars))
            blob = victim.read_bytes()
            entries = int(blob.split(b"\n", 2)[1].split()[2])
            victim.write_bytes(mutate_bytes(data, blob, words=2 * entries))
            try:
                listed, fetched, count, _ = _read_everything(root, keys)
            except StoreError:
                return
            assert listed == rows
            assert fetched == rows
            assert count == len(keys)


# --------------------------------------------------------------------------- #
# scan-semantics regressions
# --------------------------------------------------------------------------- #
class TestScanRegressions:
    def test_duplicate_key_replaces_the_trace_with_the_row(self, tmp_path):
        # Regression: the scanner used to keep a previously attached trace
        # when a newer duplicate line had none, so get_trace() served a trace
        # belonging to a different row generation than get().
        store = ResultStore(tmp_path / "s")
        segment = tmp_path / "s" / "segments" / "aa.jsonl"
        segment.parent.mkdir(exist_ok=True)
        segment.write_text(_line(_key(0), _row(0), trace=_trace())
                           + _line(_key(0), _row(7)))
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get(_key(0)) == _row(7)
        assert reopened.get_trace(_key(0)) is None  # winning line has no trace

    def test_duplicate_key_adopts_the_newer_trace(self, tmp_path):
        store = ResultStore(tmp_path / "s")
        segment = tmp_path / "s" / "segments" / "aa.jsonl"
        segment.parent.mkdir(exist_ok=True)
        segment.write_text(_line(_key(0), _row(0))
                           + _line(_key(0), _row(7), trace=_trace()))
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get(_key(0)) == _row(7)
        assert reopened.get_trace(_key(0)) == _trace()

    def test_schema_less_lines_count_as_stale(self, tmp_path):
        # Regression: a line missing its "schema" field was treated as
        # current-schema and admitted; it now retires like any other
        # pre-versioning row.
        store = ResultStore(tmp_path / "s")
        segment = tmp_path / "s" / "segments" / "aa.jsonl"
        segment.parent.mkdir(exist_ok=True)
        segment.write_text(_line(_key(0), _row(0), schema=None)
                           + _line(_key(1), _row(1)))
        reopened = ResultStore(tmp_path / "s")
        assert reopened.stale_lines == 1
        assert _key(0) not in reopened
        assert len(reopened) == 1


# --------------------------------------------------------------------------- #
# compaction
# --------------------------------------------------------------------------- #
class TestCompaction:
    def _dirty_store(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root).close()
        segment = root / "segments" / "aa.jsonl"
        segment.write_text(
            _line(_key(0), _row(0))                     # superseded duplicate
            + _line(_key(1), _row(1), schema=SCHEMA_VERSION - 1)  # retired
            + _line(_key(2), _row(2), schema=None)      # pre-versioning
            + _line(_key(0), _row(9))                   # winning duplicate
            + _line(_key(3), _row(3))
            + '{"key": "aa123'                          # torn tail
        )
        return root, segment

    def test_compact_drops_dead_lines_and_keeps_winners_verbatim(self, tmp_path):
        root, segment = self._dirty_store(tmp_path)
        stats = compact_store(root)
        assert stats["rows_kept"] == 2
        assert stats["duplicates_dropped"] == 1
        assert stats["stale_dropped"] == 2
        assert stats["junk_dropped"] == 1
        assert stats["segments_rewritten"] == 1
        assert stats["bytes_after"] < stats["bytes_before"]
        text = segment.read_text()
        # Winning lines survive byte-for-byte, in first-appended key order.
        assert text == _line(_key(0), _row(9)) + _line(_key(3), _row(3))
        reopened = ResultStore(root)
        assert reopened.describe()["scanned_lines"] == 0  # fresh sidecar
        assert reopened.skipped_lines == 0 and reopened.stale_lines == 0
        assert reopened.get(_key(0)) == _row(9)

    def test_repeat_compaction_is_byte_stable(self, tmp_path):
        root, segment = self._dirty_store(tmp_path)
        compact_store(root)
        before = segment.read_bytes()
        stats = compact_store(root)
        assert segment.read_bytes() == before
        assert stats["segments_rewritten"] == 0
        assert stats["duplicates_dropped"] == 0
        assert stats["junk_dropped"] == 0

    def test_fully_dead_segments_are_removed(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root).close()
        segment = root / "segments" / "aa.jsonl"
        segment.write_text(_line(_key(0), _row(0), schema=1))
        stats = compact_store(root)
        assert stats["segments_removed"] == 1
        assert not segment.exists()
        assert ResultStore(root).describe()["segments"] == 0

    def test_compact_method_keeps_the_store_usable(self, tmp_path):
        root, _ = self._dirty_store(tmp_path)
        store = ResultStore(root)
        stats = store.compact()
        assert stats["rows_kept"] == 2
        assert store.get(_key(0)) == _row(9)
        assert store.put(_key(4), _row(4)) is True  # writes still land
        store.close()
        reopened = ResultStore(root)
        assert len(reopened) == 3
        assert reopened.get(_key(4)) == _row(4)

    def test_compact_refuses_a_non_store_directory(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            compact_store(tmp_path / "nope")

    def test_compaction_preserves_full_cache_hits(self, tmp_path, monkeypatch):
        # The acceptance bar: a sweep resumed against a compacted store must
        # still hit the cache on every cell (same keys, same rows).
        from repro.backends.reference import ReferenceBackend

        calls = {"n": 0}
        original = ReferenceBackend.run_task

        def counting(self, task, **kwargs):
            calls["n"] += 1
            return original(self, task, **kwargs)

        monkeypatch.setattr(ReferenceBackend, "run_task", counting)
        cfg = GridConfig(families=["path", "grid"], sizes=[9],
                         schemes=["lambda", "round_robin"])
        with ResultStore(tmp_path / "s") as store:
            cold = list(run_grid(cfg, store=store))
        assert calls["n"] == 4
        compact_store(tmp_path / "s")
        with ResultStore(tmp_path / "s") as store:
            warm = list(run_grid(cfg, store=store))
        assert calls["n"] == 4  # zero backend invocations after compaction
        assert warm == cold


# --------------------------------------------------------------------------- #
# cross-process writers
# --------------------------------------------------------------------------- #
def _writer_process(root: str, writer_id: int, n_rows: int, n_shared: int) -> None:
    store = ResultStore(root)
    # Shared keys race across every writer (duplicate puts / lines); private
    # keys are unique per writer.  Everything lands in one segment so the
    # writers genuinely contend on one lock.
    for i in range(n_shared):
        store.put(_key(i), _row(i))
    for i in range(n_rows - n_shared):
        store.put(_key(1000 + writer_id * n_rows + i), _row(i))
    store.close()


class TestMultiWriterSafety:
    def test_concurrent_writers_lose_nothing(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root).close()
        n_writers, n_rows, n_shared = 4, 40, 10
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_writer_process,
                        args=(str(root), w, n_rows, n_shared))
            for w in range(n_writers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        expected = {_key(i) for i in range(n_shared)} | {
            _key(1000 + w * n_rows + i)
            for w in range(n_writers)
            for i in range(n_rows - n_shared)
        }
        store = ResultStore(root)
        # The last writer to close tail-scanned the others' lines under the
        # lock, so its sidecar covers the whole segment.
        assert store.describe()["scanned_lines"] == 0
        assert set(store.keys()) == expected
        assert store.skipped_lines == 0  # no interleaved partial lines
        for key in expected:
            assert store.get(key) is not None
        # Every line in the segment parses cleanly: the lock kept concurrent
        # appends from ever tearing each other.
        segment = _segment(root)
        lines = segment.read_bytes().splitlines()
        assert len(lines) >= len(expected)
        assert all(json.loads(line)["schema"] == SCHEMA_VERSION for line in lines)
        # Shared keys were duplicated across writers; compaction folds them
        # back down to exactly one line per key.
        stats = compact_store(root)
        assert stats["rows_kept"] == len(expected)
        assert stats["duplicates_dropped"] == len(lines) - len(expected)
        reopened = ResultStore(root)
        assert set(reopened.keys()) == expected
        assert reopened.describe()["scanned_lines"] == 0


def _doomed_writer(root: str) -> None:
    store = ResultStore(root)
    i = 0
    while True:
        store.put(_key(i), _row(i))
        i += 1


class TestKilledWriterCrashConsistency:
    def test_sigkill_mid_put_loop(self, tmp_path):
        root = tmp_path / "s"
        ResultStore(root).close()
        segment = _segment(root)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_doomed_writer, args=(str(root),))
        proc.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if segment.exists() and segment.stat().st_size > 4096:
                break
            time.sleep(0.01)
        proc.kill()  # SIGKILL: no close(), no sidecar refresh
        proc.join(timeout=30)
        assert segment.stat().st_size > 4096
        # A hard kill cannot tear a single-write line, so make the torn tail
        # deterministic: chop mid-line the way a dying disk/fs flush would.
        segment.write_bytes(segment.read_bytes()[:-17])
        raw = segment.read_bytes()
        n_complete = raw.count(b"\n")  # every terminated line is intact
        intact = raw[:raw.rfind(b"\n") + 1]

        reopened = ResultStore(root)
        assert reopened.describe()["scanned_lines"] > 0  # index rebuilt
        assert reopened.skipped_lines == 1  # exactly the torn tail
        assert len(reopened) == n_complete
        assert reopened.get(_key(0)) == _row(0)
        assert reopened.get(_key(n_complete - 1)) == _row(n_complete - 1)
        reopened.close()

        stats = compact_store(root)
        assert stats["junk_dropped"] == 1
        assert stats["rows_kept"] == n_complete
        first = segment.read_bytes()
        assert first == intact  # intact lines kept verbatim, junk gone
        compact_store(root)
        assert segment.read_bytes() == first  # byte-stable
        final = ResultStore(root)
        assert final.skipped_lines == 0
        assert final.describe()["scanned_lines"] == 0
        assert len(final) == n_complete


# --------------------------------------------------------------------------- #
# concurrent reader: streaming rows() while a writer appends and compacts
# --------------------------------------------------------------------------- #
class TestConcurrentReaderStreaming:
    """The service coordinator streams query results from the same store its
    sweeps append to — and ``repro store compact`` may rewrite the segments
    underneath either.  A reader caught mid-iteration must keep serving only
    whole, valid rows (its stale spans self-heal by reloading the view)."""

    def test_reader_mid_iteration_survives_appends_and_compaction(
        self, tmp_path
    ):
        root = tmp_path / "s"
        n_initial = 120
        with ResultStore(root) as seed:
            for i in range(n_initial):
                seed.put(_key(i), _row(i))

        reader = ResultStore(root)
        stream = reader.iter_docs()
        seen = [next(stream) for _ in range(40)]  # caught mid-iteration

        # A concurrent writer (the coordinator) appends new cells; racing
        # writers also re-append lines for keys they could not yet see
        # (exactly what TestMultiWriterSafety produces), then compaction
        # rewrites the segment — every span the reader holds goes stale,
        # because dropping the superseded lines shifts all later offsets.
        with ResultStore(root) as writer:
            for i in range(60):
                writer.put(_key(1000 + i), _row(1000 + i))
        segment = _segment(root)
        with open(segment, "a", encoding="utf-8") as handle:
            for i in range(0, 40):
                handle.write(_line(_key(i), _row(i)))
        stats = compact_store(root)
        assert stats["duplicates_dropped"] > 0  # the rewrite really happened

        seen.extend(stream)  # drain the rest across the rewrite
        # Only whole valid rows, in the order of the reader's opening view:
        # no torn lines, no half-written JSON, no rows silently dropped.
        assert [doc["key"] for doc in seen] == [_key(i) for i in range(n_initial)]
        for i, doc in enumerate(seen):
            assert doc["row"] == _row(i).as_dict()

        # Point reads from the same handle still serve whole rows, and after
        # refreshing the view the handle sees the concurrently-added cells.
        assert reader.get(_key(0)) == _row(0)
        reader._reload()
        assert reader.get(_key(1000)) == _row(1000)
        assert len(reader.rows()) == n_initial + 60
        reader.close()

    def test_stale_spans_self_heal_after_external_compaction(self, tmp_path):
        # Here the reader has loaded its view but holds no segment file
        # handles yet when compaction rewrites the segment — so its very
        # first reads hit rewritten offsets.  Every such stale span must
        # heal by reloading, never surfacing a torn or mismatched row.
        root = tmp_path / "s"
        n = 30
        with ResultStore(root) as seed:
            for i in range(n):
                seed.put(_key(i), _row(i))
        segment = _segment(root)
        with open(segment, "a", encoding="utf-8") as handle:
            for i in range(10):
                handle.write(_line(_key(i), _row(i)))

        reader = ResultStore(root)  # winning spans point at the tail lines
        stats = compact_store(root)
        assert stats["duplicates_dropped"] == 10

        assert reader.get(_key(0)) == _row(0)  # stale span -> reload -> whole
        docs = list(reader.iter_docs())
        assert sorted(d["key"] for d in docs) == sorted(_key(i) for i in range(n))
        for doc in docs:
            assert doc["row"]["n"] == 8 + int(doc["key"][2:], 16)
        reader.close()

    def test_reader_sees_rows_appended_after_open_via_reload(self, tmp_path):
        root = tmp_path / "s"
        with ResultStore(root) as seed:
            seed.put(_key(0), _row(0))
        reader = ResultStore(root)
        with ResultStore(root) as writer:
            writer.put(_key(1), _row(1))
        assert reader.get(_key(0)) == _row(0)
        # The new key is invisible until something forces a reload...
        compact_store(root)
        reader._reload()
        assert reader.get(_key(1)) == _row(1)  # ...then served whole
        reader.close()
