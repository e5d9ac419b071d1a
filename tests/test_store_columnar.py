"""Tests for the binary columnar segment format and streaming aggregation.

The contract under test (ISSUE 10 acceptance):

* ``compact(format="columnar")`` round-trips every stored document
  bit-for-bit: the JSONL a columnar store expands back to is byte-identical
  to compacting the original store directly, and every read surface
  (``get``/``in``/``iter_docs``/``rows``) agrees with a pure-JSONL copy;
* JSONL and columnar segments coexist in one store — appends stay JSONL
  and win over columnar rows on load;
* a torn columnar rewrite is quarantined like a torn JSONL tail, and
  compaction drops it;
* a warm ``run_grid`` resume against a columnar-compacted store computes
  nothing; and
* the streaming aggregator, the eager ``ResultSet`` path and the shared
  statistics kernel return identical numbers for the same rows.
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import mutate_bytes
from repro.analysis import RunMetrics
from repro.analysis.metrics import METRIC_FIELDS
from repro.analysis.stream import (
    StreamAggregator,
    aggregate_result_set,
    compute_stats,
    filter_result_set,
    resolve_column,
    resolve_group_columns,
    status_matches,
    stream_aggregate,
)
from repro.api import GridConfig, run_grid
from repro.store import (
    COLUMNAR_MAGIC,
    ColumnarError,
    ColumnarSegment,
    ResultSet,
    ResultStore,
    StoreError,
    compact_store,
    write_columnar_segment,
)
from repro.radio.trace import ExecutionTrace
from repro.store.columnar import COLUMNAR_SUFFIX
from repro.store.store import _shard_of

CFG = GridConfig(families=["path", "grid"], sizes=[9, 12], seeds_per_size=1,
                 schemes=["lambda", "round_robin"])


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _filled_store(path, cfg=CFG, **grid_kwargs):
    store = ResultStore(path)
    run_grid(cfg, store=store, **grid_kwargs)
    store.close()
    return path


def _segment_files(root: Path):
    return sorted(p.name for p in (root / "segments").iterdir()
                  if p.suffix in (".jsonl", COLUMNAR_SUFFIX))


# --------------------------------------------------------------------------- #
# the round-trip contract
# --------------------------------------------------------------------------- #
class TestColumnarRoundTrip:
    def test_documents_survive_bit_for_bit(self, tmp_path):
        _filled_store(tmp_path / "s", trace_level="summary")
        with ResultStore(tmp_path / "s") as store:
            before = [_canonical(d) for d in store.iter_docs()]
            rows_before = store.rows().to_dicts()
            stats = store.compact(format="columnar")
            after = [_canonical(d) for d in store.iter_docs()]
            assert store.rows().to_dicts() == rows_before
        assert after == before
        assert stats["format"] == "columnar"
        assert stats["rows_kept"] == len(before)
        assert stats["segments_unconverted"] == 0
        # Every shard became a .colseg; no JSONL remains.
        assert all(name.endswith(COLUMNAR_SUFFIX)
                   for name in _segment_files(tmp_path / "s"))

    def test_expanding_back_to_jsonl_matches_plain_compaction(self, tmp_path):
        _filled_store(tmp_path / "a", trace_level="summary")
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        # a: jsonl -> columnar -> jsonl; b: jsonl -> jsonl (reference).
        compact_store(tmp_path / "a", format="columnar")
        compact_store(tmp_path / "a", format="jsonl")
        compact_store(tmp_path / "b", format="jsonl")
        files_a, files_b = _segment_files(tmp_path / "a"), _segment_files(tmp_path / "b")
        assert files_a == files_b
        for name in files_a:
            if not name.endswith(".jsonl"):
                continue
            assert ((tmp_path / "a" / "segments" / name).read_bytes()
                    == (tmp_path / "b" / "segments" / name).read_bytes())

    def test_traces_survive_columnar_compaction(self, tmp_path):
        # run_grid never persists traces, so attach one explicitly: trace
        # sidecars are JSONL-only and must ride through a columnar rewrite.
        from repro.api import get_scheme
        from repro.backends import VectorizedBackend
        from repro.graphs import generate_family

        scheme = get_scheme("lambda_ack")
        graph = generate_family("grid", 9, 1)
        info = scheme.build_labels(graph, 0)
        task = scheme.build_task(graph, info, 0, payload="MSG",
                                 max_rounds=scheme.default_budget(graph, info),
                                 trace_level="summary", fault_model=None,
                                 clock_model=None)
        trace = VectorizedBackend().run_batch([task])[0].simulation.trace

        _filled_store(tmp_path / "s")
        key = "cd" + "0" * 62
        with ResultStore(tmp_path / "s") as store:
            store.put(key, store.get(store.keys()[0]), trace=trace)
            assert store.get_trace(key) == trace
            store.compact(format="columnar")
            assert store.get_trace(key) == trace
        reopened = ResultStore(tmp_path / "s")
        assert reopened.get_trace(key) == trace

    def test_repeat_columnar_compaction_is_stable(self, tmp_path):
        _filled_store(tmp_path / "s")
        compact_store(tmp_path / "s", format="columnar")
        first = {p.name: p.read_bytes()
                 for p in (tmp_path / "s" / "segments").iterdir()}
        stats = compact_store(tmp_path / "s", format="columnar")
        second = {p.name: p.read_bytes()
                  for p in (tmp_path / "s" / "segments").iterdir()}
        assert first == second
        assert stats["segments_rewritten"] == 0

    def test_writer_rejects_foreign_documents(self, tmp_path):
        with pytest.raises(ColumnarError):
            write_columnar_segment(tmp_path / "x.colseg",
                                   [{"key": "ab", "schema": 2,
                                     "row": {"scheme": "lambda"}}])
        assert not (tmp_path / "x.colseg").exists()


# --------------------------------------------------------------------------- #
# mixed-format stores: JSONL and columnar coexist
# --------------------------------------------------------------------------- #
class TestMixedFormatStores:
    def test_mixed_store_agrees_with_pure_jsonl_copy(self, tmp_path):
        cfg_more = replace(CFG, sizes=[9, 12, 15])
        _filled_store(tmp_path / "a", trace_level="summary")
        # Columnar-compact the first grid, then append a second wave so the
        # store holds both formats at once.
        compact_store(tmp_path / "a", format="columnar")
        with ResultStore(tmp_path / "a") as store:
            run_grid(cfg_more, store=store, trace_level="summary")
            formats = store.describe()["formats"]
        assert formats["columnar"]["segments"] > 0
        assert formats["jsonl"]["segments"] > 0
        # The pure-JSONL twin: same grids, no columnar step.
        _filled_store(tmp_path / "b", trace_level="summary")
        with ResultStore(tmp_path / "b") as store:
            run_grid(cfg_more, store=store, trace_level="summary")
        with ResultStore(tmp_path / "a") as mixed, \
                ResultStore(tmp_path / "b") as plain:
            assert set(mixed.keys()) == set(plain.keys())
            for key in plain.keys():
                assert key in mixed
                assert _canonical(mixed._load_doc(key)) == \
                    _canonical(plain._load_doc(key))
            assert mixed.get(plain.keys()[0]) == plain.get(plain.keys()[0])
            mixed_docs = {_canonical(d) for d in mixed.iter_docs()}
            plain_docs = {_canonical(d) for d in plain.iter_docs()}
            assert mixed_docs == plain_docs
            mixed_rows = sorted(map(repr, mixed.rows().to_rows()))
            plain_rows = sorted(map(repr, plain.rows().to_rows()))
            assert mixed_rows == plain_rows

    def test_jsonl_appends_win_over_columnar_rows(self, tmp_path):
        _filled_store(tmp_path / "s")
        compact_store(tmp_path / "s", format="columnar")
        with ResultStore(tmp_path / "s") as store:
            key = store.keys()[0]
            doc = store._load_doc(key)
            newer = dict(doc, row=dict(doc["row"], status="error:Injected"))
            # Append a newer generation for the same key straight to the
            # shard's JSONL file, like a foreign writer would.
            seg = Path(store.root) / "segments" / f"{_shard_of(key)}.jsonl"
            with open(seg, "ab") as handle:
                handle.write((_canonical(newer) + "\n").encode())
        with ResultStore(tmp_path / "s") as store:
            assert store.get(key).status == "error:Injected"
            # rows() serves the JSONL winner too, not the columnar slot.
            by_status = store.rows().groupby("status")
            assert "error:Injected" in by_status

    def test_describe_reports_per_format_counts(self, tmp_path):
        _filled_store(tmp_path / "s")
        with ResultStore(tmp_path / "s") as store:
            desc = store.describe()
            assert desc["formats"]["jsonl"]["segments"] == desc["segments"]
            assert desc["formats"]["columnar"] == {"segments": 0, "bytes": 0}
            assert desc["quarantined_segments"] == 0
            store.compact(format="columnar")
            desc = store.describe()
            assert desc["formats"]["jsonl"] == {"segments": 0, "bytes": 0}
            assert desc["formats"]["columnar"]["segments"] == desc["segments"]
            assert desc["formats"]["columnar"]["bytes"] > 0

    def test_warm_resume_computes_nothing_after_columnar_compaction(
            self, tmp_path, monkeypatch):
        from repro.backends import ReferenceBackend

        _filled_store(tmp_path / "s")
        compact_store(tmp_path / "s", format="columnar")
        calls = []
        original = ReferenceBackend.run_task

        def counting(self, task):
            calls.append(task)
            return original(self, task)

        monkeypatch.setattr(ReferenceBackend, "run_task", counting)
        baseline = run_grid(CFG)
        n_local = len(calls)
        with ResultStore(tmp_path / "s") as store:
            progress = []
            resumed = run_grid(CFG, store=store,
                               on_chunk=progress.append)
        assert resumed == baseline
        assert len(calls) == n_local  # zero backend invocations on resume
        assert progress[-1].cached_rows == len(resumed)
        assert progress[-1].computed_rows == 0


# --------------------------------------------------------------------------- #
# corruption: quarantine on load, drop at compaction
# --------------------------------------------------------------------------- #
class TestQuarantine:
    def _truncate_one(self, root: Path) -> Path:
        victim = sorted((root / "segments").glob(f"*{COLUMNAR_SUFFIX}"))[0]
        data = victim.read_bytes()
        victim.write_bytes(data[:len(data) - 16])
        return victim

    def test_truncated_columnar_tail_is_quarantined(self, tmp_path):
        _filled_store(tmp_path / "s")
        compact_store(tmp_path / "s", format="columnar")
        with ResultStore(tmp_path / "s") as store:
            total = len(store)
        victim = self._truncate_one(tmp_path / "s")
        with ResultStore(tmp_path / "s") as store:
            # The torn segment's rows vanish from the view, like torn JSONL
            # lines; every other segment still serves.
            assert store.describe()["quarantined_segments"] == 1
            assert 0 < len(store) < total
            for key in store.keys():
                assert store.get(key) is not None
        # Compaction drops the quarantined segment entirely.
        stats = compact_store(tmp_path / "s", format="columnar")
        assert stats["junk_dropped"] >= 1
        assert not victim.exists()
        with ResultStore(tmp_path / "s") as store:
            assert store.describe()["quarantined_segments"] == 0

    def test_foreign_magic_is_not_columnar(self, tmp_path):
        path = tmp_path / "x.colseg"
        path.write_bytes(b"repro-colseg 9\n" + b"\x00" * 64)
        with pytest.raises(ColumnarError, match="magic"):
            ColumnarSegment(path)
        assert not path.read_bytes().startswith(COLUMNAR_MAGIC)


# --------------------------------------------------------------------------- #
# corrupt segments: quarantined at open or typed errors on read
# --------------------------------------------------------------------------- #
def _row(i: int) -> RunMetrics:
    return RunMetrics(
        scheme="lambda", family="path", n=8 + i, source_eccentricity=7,
        label_bits=2, distinct_labels=2, completion_round=13, bound=13,
        acknowledgement_round=None if i % 2 else i, transmissions=7,
        collisions=0, total_message_bits=224,
    )


def _key(i: int, shard: str = "aa") -> str:
    return shard + f"{i:062x}"


def _colseg(root: Path) -> Path:
    """The columnar segment :func:`_columnar_shard` compacts its rows into."""
    return root / "segments" / f"{_shard_of(_key(0))}{COLUMNAR_SUFFIX}"


def _columnar_shard(root: Path, *, jsonl_row: bool = True) -> Path:
    """The ``aa`` keys' shard as one 4-row .colseg (two rows with traces),
    plus one JSONL row in the ``bb`` keys' shard unless ``jsonl_row`` is
    False."""
    trace = ExecutionTrace.from_aggregates(8, 0, level="summary", num_rounds=5,
                                           total_transmissions=7)
    with ResultStore(root) as store:
        for i in range(4):
            store.put(_key(i), _row(i), trace=trace if i % 2 else None)
    compact_store(root, format="columnar")
    if jsonl_row:
        with ResultStore(root) as store:
            store.put(_key(0, "bb"), _row(9))
    return root


def _header(path: Path):
    """A segment's bytes (mutable) and its parsed JSON header."""
    raw = bytearray(path.read_bytes())
    (size,) = struct.unpack_from("<q", raw, len(COLUMNAR_MAGIC))
    start = len(COLUMNAR_MAGIC) + 8
    return raw, json.loads(raw[start:start + size])


def _column(header, name):
    return next(c for c in header["columns"] if c["name"] == name)


@pytest.fixture(scope="module")
def colseg_template(tmp_path_factory):
    return _columnar_shard(tmp_path_factory.mktemp("colseg") / "s")


class TestCorruptSegments:
    def test_bad_first_key_offset_is_quarantined(self, tmp_path):
        root = _columnar_shard(tmp_path / "s")
        victim = _colseg(root)
        raw, header = _header(victim)
        struct.pack_into("<q", raw, _column(header, "key")["offsets"][0], 7)
        victim.write_bytes(bytes(raw))
        with ResultStore(root) as store:
            assert store.describe()["quarantined_segments"] == 1
            assert store.keys() == [_key(0, "bb")]
            assert list(store.rows()) == [_row(9)]

    def test_ill_typed_header_is_quarantined(self, tmp_path):
        # Same-length edit: a column kind becomes a JSON list (unhashable).
        root = _columnar_shard(tmp_path / "s")
        victim = _colseg(root)
        raw = victim.read_bytes()
        assert raw.count(b'"kind":"str"') >= 1
        victim.write_bytes(raw.replace(b'"kind":"str"', b'"kind":["t"]', 1))
        with pytest.raises(ColumnarError, match="corrupt columnar header"):
            ColumnarSegment(victim)
        with ResultStore(root) as store:
            assert store.describe()["quarantined_segments"] == 1
            assert store.get(_key(0, "bb")) == _row(9)

    def test_undecodable_string_column_raises_columnar_error(self, tmp_path):
        root = _columnar_shard(tmp_path / "s", jsonl_row=False)
        victim = _colseg(root)
        raw, header = _header(victim)
        raw[_column(header, "scheme")["offsets"][1]] = 0xFF  # not UTF-8
        victim.write_bytes(bytes(raw))
        with ResultStore(root) as store:
            with pytest.raises(ColumnarError, match="not UTF-8"):
                store.rows().column("scheme")
            with pytest.raises(StoreError):
                store.get(_key(0))

    def test_bad_string_offsets_raise_columnar_error(self, tmp_path):
        root = _columnar_shard(tmp_path / "s", jsonl_row=False)
        victim = _colseg(root)
        raw, header = _header(victim)
        struct.pack_into("<q", raw, _column(header, "family")["offsets"][0] + 8, -3)
        victim.write_bytes(bytes(raw))
        with ResultStore(root) as store:
            assert len(store) == 4  # the key column is intact: the segment loads
            with pytest.raises(ColumnarError, match="corrupt offsets"):
                store.rows().column("family")

    @pytest.mark.parametrize("fmt", ["columnar", "jsonl"])
    @pytest.mark.parametrize("column, word, value", [("key", 0, 7), ("family", 1, -3)])
    def test_compaction_drops_a_segment_that_does_not_decode(
        self, tmp_path, fmt, column, word, value
    ):
        # A bad first key offset fails the loader's key decode; a negative
        # family offset fails only the row decode.  Either way compaction
        # removes the segment as junk instead of keeping it (to be
        # quarantined again on every open) or raising.
        root = _columnar_shard(tmp_path / "s")
        victim = _colseg(root)
        raw, header = _header(victim)
        struct.pack_into("<q", raw, _column(header, column)["offsets"][0] + 8 * word, value)
        victim.write_bytes(bytes(raw))
        stats = compact_store(root, format=fmt)
        assert stats["junk_dropped"] == 1
        assert stats["rows_kept"] == 1
        assert not victim.exists()
        with ResultStore(root) as store:
            assert store.describe()["quarantined_segments"] == 0
            assert store.keys() == [_key(0, "bb")]
            assert store.get(_key(0, "bb")) == _row(9)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_segments_load_or_quarantine(self, colseg_template, data):
        # Checksums are out of scope: a flipped number may read back wrong,
        # but nothing may escape except StoreError or ColumnarError, and the
        # store always opens.  Compaction in either format raises nothing
        # and leaves no segment to quarantine.
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(shutil.copytree(colseg_template, Path(tmp) / "s"))
            victim = _colseg(root)
            victim.write_bytes(mutate_bytes(data, victim.read_bytes()))
            with ResultStore(root) as store:
                assert len(store.keys()) == len(store)
                assert store.get(_key(0, "bb")) == _row(9)
                try:
                    rows = store.rows()
                except (StoreError, ColumnarError):
                    rows = None
                for name in METRIC_FIELDS if rows is not None else ():
                    try:
                        rows.column(name)
                    except (StoreError, ColumnarError):
                        pass
                for key in [_key(i) for i in range(4)]:
                    try:
                        store.get(key)
                    except StoreError:
                        pass
            for fmt in ("columnar", "jsonl"):
                compacted = Path(shutil.copytree(root, Path(tmp) / fmt))
                compact_store(compacted, format=fmt)
                with ResultStore(compacted) as store:
                    assert store.describe()["quarantined_segments"] == 0
                    assert store.get(_key(0, "bb")) == _row(9)


# --------------------------------------------------------------------------- #
# a self-healing reload keeps the segments its readers still use
# --------------------------------------------------------------------------- #
class TestReloadKeepsSegmentsAlive:
    def test_lazy_set_survives_a_reload(self, tmp_path):
        with ResultStore(_columnar_shard(tmp_path / "s", jsonl_row=False)) as store:
            rows = store.rows()
            store._reload()
            assert rows.column("n").tolist() == [8, 9, 10, 11]

    def test_reload_with_a_column_view_alive(self, tmp_path):
        with ResultStore(_columnar_shard(tmp_path / "s", jsonl_row=False)) as store:
            rows = store.rows()
            rows.column("n")  # the set now caches a view over the segment's map
            store._reload()
            assert len(store) == 4
            assert rows.column("n").tolist() == [8, 9, 10, 11]

    def test_get_self_heals_with_a_view_held(self, tmp_path):
        root = _columnar_shard(tmp_path / "s", jsonl_row=False)
        with ResultStore(root) as store:
            rows = store.rows()
            before = rows.column("n")
            store.put(_key(0, "bb"), _row(9))
            # Another process compacts the store: bb's JSONL file is replaced
            # by a segment, so this handle's span for the new row is stale.
            compact_store(root, format="columnar")
            assert store.get(_key(0, "bb")) == _row(9)
            assert rows.column("n").tolist() == before.tolist()


# --------------------------------------------------------------------------- #
# laziness: reads proportional to the columns touched
# --------------------------------------------------------------------------- #
class TestLazyReads:
    def test_aggregate_touches_only_its_columns(self, tmp_path, monkeypatch):
        _filled_store(tmp_path / "s")
        compact_store(tmp_path / "s", format="columnar")
        touched = []
        original = ColumnarSegment.get_column

        def spying(self, name):
            touched.append(name)
            return original(self, name)

        monkeypatch.setattr(ColumnarSegment, "get_column", spying)
        with ResultStore(tmp_path / "s") as store:
            rows = store.rows()
            assert touched == []  # opening the set reads no column blocks
            agg = aggregate_result_set(rows, "rounds", ("scheme",))
        assert set(touched) <= {"scheme", "completion_round"}
        assert sum(g["stats"]["count"] for g in agg) == len(rows)

    def test_filter_then_column_stays_columnar(self, tmp_path):
        _filled_store(tmp_path / "s")
        compact_store(tmp_path / "s", format="columnar")
        with ResultStore(tmp_path / "s") as store:
            rows = store.rows()
            lam = filter_result_set(rows, schemes=["lambda"], status="ok")
            values = lam.column("completion_round")
            assert len(lam) == len(values) == len(rows) // 2
            assert set(lam.column("scheme").tolist()) == {"lambda"}
            # Sequence protocol still materializes real rows.
            assert lam[0].scheme == "lambda"


# --------------------------------------------------------------------------- #
# streaming aggregation: one kernel, three surfaces
# --------------------------------------------------------------------------- #
class TestStreamingAggregation:
    def test_stream_equals_eager_equals_resultset(self, tmp_path):
        _filled_store(tmp_path / "s")
        with ResultStore(tmp_path / "s") as store:
            rows = store.rows()
            eager = aggregate_result_set(rows, "rounds", ("scheme", "n"),
                                         ci=True)
            streamed = stream_aggregate(store.iter_docs(), "rounds",
                                        ("scheme", "n"), ci=True)
        assert streamed == eager
        # The ungrouped stream answer equals ResultSet.aggregate directly.
        flat = stream_aggregate((r.as_dict() for r in rows.to_rows()),
                                "completion_round")
        assert flat == [{"by": {}, "stats": rows.aggregate("completion_round")}]

    def test_kernel_handles_empty_and_ci(self):
        empty = compute_stats(np.empty(0, dtype=np.int64), ci=True)
        assert empty["count"] == 0
        assert all(np.isnan(v) for k, v in empty.items() if k != "count")
        stats = compute_stats(np.arange(100), ci=True)
        assert stats["count"] == 100
        assert stats["p05"] < stats["median"] < stats["p95"]
        assert stats["ci95_low"] <= stats["mean"] <= stats["ci95_high"]
        # Seeded bootstrap: deterministic for a given value order.
        assert stats == compute_stats(np.arange(100), ci=True)

    def test_aggregator_groups_in_first_seen_order(self):
        agg = StreamAggregator("completion_round", ("scheme",))
        for scheme, value in [("b", 4), ("a", 2), ("b", 6), ("a", None)]:
            agg.add({"scheme": scheme, "completion_round": value})
        out = agg.result()
        assert [g["by"]["scheme"] for g in out] == ["b", "a"]
        assert out[0]["stats"]["mean"] == 5.0
        assert out[1]["stats"]["count"] == 1  # None cells are skipped
        assert agg.rows_seen == 4

    def test_column_resolution_and_aliases(self):
        assert resolve_column("rounds") == "completion_round"
        assert resolve_column("bits") == "total_message_bits"
        assert resolve_group_columns("scheme, n") == ("scheme", "n")
        assert resolve_group_columns(None) == ()
        with pytest.raises(KeyError, match="unknown numeric column"):
            resolve_column("scheme")  # strings are not aggregatable
        with pytest.raises(KeyError, match="unknown column"):
            resolve_group_columns("nope")

    def test_status_prefix_semantics(self):
        assert status_matches("error:ValueError", "error")
        assert status_matches("error:ValueError", "error:ValueError")
        assert status_matches("ok", "ok")
        assert not status_matches("ok", "error")
        assert not status_matches("error:ValueError", "error:TypeError")
        assert not status_matches("errors", "error")

    def test_filter_result_set_status_class(self):
        rows = ResultSet.from_dicts([
            dict(scheme="lambda", family="path", n=9, source_eccentricity=1,
                 label_bits=1, distinct_labels=1, completion_round=5, bound=9,
                 acknowledgement_round=None, transmissions=1, collisions=0,
                 total_message_bits=8, fault="none", clock="sync", backend="",
                 status=status)
            for status in ["ok", "error:ValueError", "error:TypeError", "ok"]
        ])
        assert len(filter_result_set(rows, status="error")) == 2
        assert len(filter_result_set(rows, status="error:TypeError")) == 1
        assert len(filter_result_set(rows, status="ok")) == 2
        assert len(filter_result_set(rows, schemes=["nope"])) == 0
