"""Tests for repro.store: keys, the columnar ResultSet and the on-disk store."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.analysis import RunMetrics, metrics_to_csv, metrics_to_json
from repro.api import GridConfig, grid_row_specs, grid_unit_key, run_grid
from repro.backends import VectorizedBackend
from repro.radio.trace import ExecutionTrace, TraceLevelError
from repro.store import (
    SCHEMA_VERSION,
    ResultSet,
    ResultStore,
    StoreError,
    unit_key,
)
from repro.store.store import _shard_of

BASE_KEY_FIELDS = dict(
    scheme="lambda", family="path", size=16, seed=123, source_rule="zero",
    payload="MSG", fault_spec=None, clock_spec=None, backend=None,
    trace_level="summary",
)


def _segment(root, key: str, suffix: str = ".jsonl"):
    """The segment file ``put`` appends ``key``'s row to, or its sidecar."""
    return root / "segments" / f"{_shard_of(key)}{suffix}"


def _rows(n=6) -> list:
    cfg = GridConfig(families=["path", "grid"], sizes=[9], seeds_per_size=1,
                     schemes=["lambda", "round_robin"],
                     faults=[None, "drop:0.3:2"])
    return list(run_grid(cfg))[:n]


# --------------------------------------------------------------------------- #
# content-addressed keys
# --------------------------------------------------------------------------- #
class TestKeys:
    def test_key_is_stable(self):
        assert unit_key(**BASE_KEY_FIELDS) == unit_key(**BASE_KEY_FIELDS)
        assert len(unit_key(**BASE_KEY_FIELDS)) == 64  # sha256 hex

    @pytest.mark.parametrize("field,value", [
        ("scheme", "round_robin"),
        ("family", "grid"),
        ("size", 17),
        ("seed", 124),
        ("source_rule", "last"),
        ("payload", "OTHER"),
        ("fault_spec", {"kind": "drop", "prob": 0.1, "seed": 7}),
        ("clock_spec", {"kind": "offset", "offsets": {}, "default": 3}),
        ("backend", "vectorized"),
        ("trace_level", "none"),
        ("schema_version", SCHEMA_VERSION + 1),
    ])
    def test_every_field_is_load_bearing(self, field, value):
        changed = dict(BASE_KEY_FIELDS)
        changed[field] = value
        assert unit_key(**changed) != unit_key(**BASE_KEY_FIELDS)

    def test_non_json_payloads_fall_back_to_str(self):
        from repro.store import canonical_payload

        assert canonical_payload({1, 2}) == json.dumps(str({1, 2}))
        assert canonical_payload("MSG") == '"MSG"'
        # The key still hashes cleanly with an exotic payload.
        assert len(unit_key(**{**BASE_KEY_FIELDS, "payload": {3, 4}})) == 64

    def test_backend_instances_reduce_to_names(self):
        by_name = unit_key(**{**BASE_KEY_FIELDS, "backend": "vectorized"})
        by_instance = unit_key(**{**BASE_KEY_FIELDS,
                                  "backend": VectorizedBackend()})
        assert by_name == by_instance
        # None means the reference default.
        assert unit_key(**BASE_KEY_FIELDS) == unit_key(
            **{**BASE_KEY_FIELDS, "backend": "reference"})

    def test_grid_unit_key_covers_every_row(self):
        cfg = GridConfig(families=["path"], sizes=[8, 9], seeds_per_size=2,
                         schemes=["lambda", "round_robin"],
                         faults=[None, "drop:0.2:5"])
        units = grid_row_specs(cfg)
        keys = {grid_unit_key(cfg, u) for u in units}
        assert len(keys) == len(units)  # all distinct


# --------------------------------------------------------------------------- #
# the columnar ResultSet
# --------------------------------------------------------------------------- #
class TestResultSet:
    def test_list_compatibility(self):
        rows = _rows()
        rs = ResultSet(rows)
        assert len(rs) == len(rows)
        assert rs == rows and rows == rs
        assert list(rs) == rows
        assert rs[0] == rows[0] and rs[-1] == rows[-1]
        assert isinstance(rs[1:3], ResultSet) and rs[1:3] == rows[1:3]
        assert ResultSet([]) == []
        with pytest.raises(IndexError):
            rs[len(rows)]

    def test_round_trip_is_lossless(self):
        rows = _rows()
        rs = ResultSet(rows)
        assert rs.to_rows() == rows
        assert ResultSet.from_dicts(rs.to_dicts()) == rows
        assert ResultSet.from_jsonl(rs.to_jsonl()) == rows
        # Optional ints survive (lambda under heavy drops may not complete).
        assert any(r.completion_round is None for r in rows) or True

    def test_exports_match_legacy_renderers(self):
        rows = _rows()
        rs = ResultSet(rows)
        assert rs.to_csv() == metrics_to_csv(rows)
        assert rs.to_json() == metrics_to_json(rows)
        assert json.loads(rs.to_json()) == [r.as_dict() for r in rows]

    def test_typed_columns(self):
        rs = ResultSet(_rows())
        assert rs.column("n").dtype == np.int64
        assert rs.column("scheme").dtype.kind == "U"
        completion = rs.column("completion_round")
        assert completion.dtype == np.float64
        values, mask = rs.column_with_mask("completion_round")
        assert values.dtype == np.int64 and mask.dtype == bool
        assert np.isnan(completion[~mask]).all()
        with pytest.raises(KeyError):
            rs.column("bogus")
        with pytest.raises(KeyError):
            rs.column_with_mask("n")

    def test_filter_and_groupby(self):
        rs = ResultSet(_rows())
        lam = rs.filter(scheme="lambda")
        assert all(r.scheme == "lambda" for r in lam)
        assert rs.filter(scheme="lambda", fault="none") == [
            r for r in rs if r.scheme == "lambda" and r.fault == "none"]
        assert rs.filter(lambda r: r.n > 8) == [r for r in rs if r.n > 8]
        incomplete = rs.filter(completion_round=None)
        assert all(r.completion_round is None for r in incomplete)
        groups = rs.groupby("scheme")
        assert set(groups) == {r.scheme for r in rs}
        assert sum(len(g) for g in groups.values()) == len(rs)
        pair_groups = rs.groupby("family", "scheme")
        assert all(isinstance(k, tuple) for k in pair_groups)
        with pytest.raises(KeyError):
            rs.filter(bogus=1)
        with pytest.raises(ValueError):
            rs.groupby()

    def test_aggregate(self):
        rs = ResultSet(_rows())
        agg = rs.aggregate("transmissions")
        values = [r.transmissions for r in rs]
        assert agg["count"] == len(values)
        assert agg["min"] == min(values) and agg["max"] == max(values)
        with pytest.raises(TypeError):
            rs.aggregate("scheme")
        assert ResultSet([]).aggregate("transmissions")["count"] == 0


# --------------------------------------------------------------------------- #
# the on-disk store
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_round_trip_bit_identical(self, tmp_path):
        rows = _rows()
        keys = [f"{i:02x}" + "0" * 62 for i in range(len(rows))]
        with ResultStore(tmp_path / "s") as store:
            for key, row in zip(keys, rows):
                assert store.put(key, row)
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == len(rows)
        assert [reopened.get(k) for k in keys] == rows
        assert reopened.rows() == rows
        assert reopened.keys() == keys
        assert list(reopened.iter_items()) == list(zip(keys, rows))
        assert reopened.get("ff" * 32) is None
        described = reopened.describe()
        assert described["rows"] == len(rows)
        assert described["schema_version"] == SCHEMA_VERSION
        assert described["skipped_lines"] == 0

    def test_put_is_idempotent(self, tmp_path):
        row = _rows(1)[0]
        with ResultStore(tmp_path / "s") as store:
            assert store.put("ab" + "0" * 62, row)
            assert not store.put("ab" + "0" * 62, row)
        assert len(ResultStore(tmp_path / "s")) == 1

    def test_segments_are_sharded_by_key_prefix(self, tmp_path):
        rows = _rows(3)
        with ResultStore(tmp_path / "s") as store:
            store.put("aa" + "0" * 62, rows[0])
            store.put("aa" + "1" * 62, rows[1])
            store.put("bb" + "0" * 62, rows[2])
        segments = sorted(p.name for p in (tmp_path / "s" / "segments").glob("*"))
        # close() leaves one sidecar offset index next to each segment
        a, b = _shard_of("aa" + "0" * 62), _shard_of("bb" + "0" * 62)
        assert segments == [f"{a}.idx", f"{a}.jsonl", f"{b}.idx", f"{b}.jsonl"]
        assert ResultStore(tmp_path / "s").describe()["segments"] == 2
        # Hex keys shard by their first digit: 256 random ones fill exactly
        # the 16 segments there are.
        rng = random.Random(23)
        keys = [f"{rng.getrandbits(256):064x}" for _ in range(256)]
        with ResultStore(tmp_path / "r") as store:
            for key in keys:
                store.put(key, rows[0])
        segments = tmp_path / "r" / "segments"
        assert len(list(segments.glob("*.jsonl"))) == 16
        assert len(list(segments.glob("*.idx"))) == 16
        reopened = ResultStore(tmp_path / "r")
        assert reopened.describe()["segments"] == 16
        assert reopened.describe()["scanned_lines"] == 0
        assert sorted(reopened.keys()) == sorted(keys)

    def test_truncated_final_line_is_skipped(self, tmp_path):
        rows = _rows(2)
        with ResultStore(tmp_path / "s") as store:
            store.put("aa" + "0" * 62, rows[0])
            store.put("aa" + "1" * 62, rows[1])
        segment = _segment(tmp_path / "s", "aa" + "0" * 62)
        text = segment.read_text()
        segment.write_text(text[: len(text) - 25])  # simulate a hard kill
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.get("aa" + "0" * 62) == rows[0]
        assert reopened.skipped_lines == 1

    def test_require_existing(self, tmp_path):
        with pytest.raises(StoreError, match="no result store"):
            ResultStore.open(tmp_path / "missing", require_existing=True)
        ResultStore(tmp_path / "s").close()
        assert len(ResultStore.open(tmp_path / "s", require_existing=True)) == 0

    def test_foreign_directories_rejected(self, tmp_path):
        (tmp_path / "notastore").mkdir()
        (tmp_path / "notastore" / "data.txt").write_text("hello")
        with pytest.raises(StoreError, match="refusing"):
            ResultStore(tmp_path / "notastore")
        (tmp_path / "other").mkdir()
        (tmp_path / "other" / "store.json").write_text('{"format": "else"}')
        with pytest.raises(StoreError, match="not a repro result store"):
            ResultStore(tmp_path / "other")
        (tmp_path / "afile").write_text("plain file")
        with pytest.raises(StoreError, match="not a directory"):
            ResultStore(tmp_path / "afile")

    def test_stale_schema_lines_are_retired_on_load(self, tmp_path):
        rows = _rows(2)
        with ResultStore(tmp_path / "s") as store:
            store.put("aa" + "0" * 62, rows[0])
        segment = _segment(tmp_path / "s", "aa" + "0" * 62)
        # Forge a row written under an older schema version: its key can
        # never match again, and it must not resurface through rows().
        stale = json.loads(segment.read_text().splitlines()[0])
        stale.update(key="aa" + "1" * 62, schema=SCHEMA_VERSION - 1)
        with open(segment, "a") as handle:
            handle.write(json.dumps(stale) + "\n")
        reopened = ResultStore(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.get("aa" + "1" * 62) is None
        assert reopened.stale_lines == 1
        assert reopened.describe()["stale_lines"] == 1


# --------------------------------------------------------------------------- #
# trace aggregates survive the store (satellite fix)
# --------------------------------------------------------------------------- #
def _batched_trace(trace_level="summary") -> ExecutionTrace:
    """A real batched-backend trace, built via ExecutionTrace.from_aggregates."""
    from repro.api import get_scheme
    from repro.graphs import generate_family

    scheme = get_scheme("lambda_ack")
    graph = generate_family("grid", 9, 1)
    info = scheme.build_labels(graph, 0)
    task = scheme.build_task(graph, info, 0, payload="MSG",
                             max_rounds=scheme.default_budget(graph, info),
                             trace_level=trace_level, fault_model=None,
                             clock_model=None)
    result = VectorizedBackend().run_batch([task])[0]
    return result.simulation.trace


class TestTraceAggregatesRoundTrip:
    def test_to_aggregates_round_trips_through_json(self):
        trace = _batched_trace()
        doc = json.loads(json.dumps(trace.to_aggregates()))
        clone = ExecutionTrace.from_aggregates_doc(doc)
        assert clone == trace  # compares every aggregate field
        # The batched-backend fields the store must preserve, explicitly:
        assert clone.transmissions_by_kind() == trace.transmissions_by_kind()
        assert clone.total_message_bits() == trace.total_message_bits()
        assert clone.informed_by_round() == trace.informed_by_round()
        assert clone.first_ack_at(0) == trace.first_ack_at(0)
        assert clone.last_ack_at(0) == trace.last_ack_at(0)
        assert clone.broadcast_completion_round() == trace.broadcast_completion_round()
        assert clone.num_rounds == trace.num_rounds

    def test_store_preserves_trace_attachments(self, tmp_path):
        trace = _batched_trace()
        row = _rows(1)[0]
        key = "cd" + "0" * 62
        with ResultStore(tmp_path / "s") as store:
            store.put(key, row, trace=trace)
        reopened = ResultStore(tmp_path / "s")
        restored = reopened.get_trace(key)
        assert restored == trace
        assert reopened.get_trace("ee" + "0" * 62) is None
        # The row itself is still intact next to its trace.
        assert reopened.get(key) == row

    def test_full_traces_refuse_aggregate_serialization(self):
        trace = ExecutionTrace(3, 0, level="full")
        with pytest.raises(TraceLevelError):
            trace.to_aggregates()

    def test_json_native_metadata_round_trips_verbatim(self):
        trace = ExecutionTrace.from_aggregates(
            3, 0, level="summary", num_rounds=2,
            informed_first={1: 1, 2: 2},
            metadata={"batch": 3, "note": "x", "ratio": 0.5},
        )
        doc = json.loads(json.dumps(trace.to_aggregates()))
        clone = ExecutionTrace.from_aggregates_doc(doc)
        assert clone == trace
        assert clone.metadata == {"batch": 3, "note": "x", "ratio": 0.5}


# --------------------------------------------------------------------------- #
# stores written when rows were sharded by the key's first byte
# --------------------------------------------------------------------------- #
def _to_two_character_layout(root) -> None:
    """Lay ``root`` out as stores were before one-digit shards: every line
    moved to ``segments/<key[:2]>.jsonl``, and no sidecars."""
    segments = root / "segments"
    lines = {}
    for path in sorted(segments.glob("*.jsonl")):
        for line in path.read_bytes().splitlines(keepends=True):
            lines.setdefault(json.loads(line)["key"][:2], []).append(line)
        path.unlink()
    for path in segments.glob("*.idx"):
        path.unlink()
    for prefix, group in lines.items():
        (segments / f"{prefix}.jsonl").write_bytes(b"".join(group))


class TestTwoCharacterLayout:
    CFG = GridConfig(families=["path", "grid"], sizes=[9, 12], seeds_per_size=2,
                     schemes=["lambda", "round_robin"])

    @pytest.fixture
    def old_store(self, tmp_path):
        """``(root, rows by key, traces by key, cold grid rows)`` of a store
        in the old layout."""
        root = tmp_path / "s"
        trace = _batched_trace()
        with ResultStore(root) as store:
            cold = list(run_grid(self.CFG, store=store))
            for i in range(3):
                store.put(f"{i}{i}" + "e" * 62, cold[i], trace=trace)
            rows, traces = self._contents(store)
        _to_two_character_layout(root)
        names = [p.stem for p in (root / "segments").glob("*.jsonl")]
        # Several old segments share a first digit: their rows all map to
        # one new shard, which must not merge or shadow them.
        assert all(len(name) == 2 for name in names)
        assert len(names) > len({name[0] for name in names})
        return root, rows, traces, cold

    @staticmethod
    def _contents(store):
        return ({key: store.get(key) for key in store.keys()},
                {key: store.get_trace(key) for key in store.keys()})

    def test_opens_with_every_row_and_trace(self, old_store):
        root, rows, traces, _ = old_store
        with ResultStore(root) as store:
            assert self._contents(store) == (rows, traces)
            assert store.describe()["skipped_lines"] == 0
        # close() indexed the old segments where they are.
        with ResultStore(root) as store:
            assert store.describe()["scanned_lines"] == 0
            assert self._contents(store) == (rows, traces)

    def test_resume_computes_no_cell(self, old_store):
        root, _, _, cold = old_store
        progress = []
        with ResultStore.open(root, require_existing=True) as store:
            resumed = list(run_grid(self.CFG, store=store, on_chunk=progress.append))
        assert progress[-1].computed_rows == 0
        assert progress[-1].cached_rows == len(cold)
        assert resumed == cold

    def test_new_rows_land_in_one_character_shards(self, old_store):
        root, rows, traces, cold = old_store
        before = {p.name: p.read_bytes() for p in (root / "segments").glob("*.jsonl")}
        key = "f" * 64
        with ResultStore(root) as store:
            assert store.put(key, cold[0])
        assert _segment(root, key).name == "f.jsonl"
        assert json.loads(_segment(root, key).read_bytes())["key"] == key
        for name, data in before.items():
            assert (root / "segments" / name).read_bytes() == data
        with ResultStore(root) as store:
            assert self._contents(store) == (
                {**rows, key: cold[0]}, {**traces, key: None})

    @pytest.mark.parametrize("fmt", ["jsonl", "columnar"])
    def test_compaction_keeps_every_row(self, old_store, fmt):
        root, rows, traces, cold = old_store
        with ResultStore(root) as store:
            store.put("f" * 64, cold[0])
        rows, traces = {**rows, "f" * 64: cold[0]}, {**traces, "f" * 64: None}
        with ResultStore(root) as store:
            stats = store.compact(format=fmt)
            assert stats["rows_kept"] == len(rows)
            assert stats["duplicates_dropped"] == stats["junk_dropped"] == 0
            assert self._contents(store) == (rows, traces)
        with ResultStore(root) as store:
            assert self._contents(store) == (rows, traces)


# --------------------------------------------------------------------------- #
# crash hygiene: truncated segment tails must never shadow later rows
# --------------------------------------------------------------------------- #
class TestTruncatedTailRepair:
    def _put_one(self, store, key):
        row = _rows(1)[0]
        store.put(key, row)
        return row

    def test_truncated_tail_is_skipped_and_repaired_on_append(self, tmp_path):
        key = "ab" + "0" * 62
        with ResultStore(tmp_path / "s") as store:
            row = self._put_one(store, key)
        segment = _segment(tmp_path / "s", key)
        # Simulate a hard kill mid-write: chop the final line in half.
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) // 2])

        with ResultStore(tmp_path / "s") as store:
            assert store.skipped_lines == 1
            assert store.get(key) is None  # the half-written row never existed
            # The recomputed row appends to the same segment.  Without tail
            # repair it would be glued onto the truncated junk, making the
            # *good* line unparseable too.
            store.put(key, row)
            assert store.get(key) == row

        with ResultStore(tmp_path / "s") as reopened:
            assert reopened.get(key) == row
            assert reopened.skipped_lines == 1  # only the original junk line

    def test_repair_only_touches_files_with_partial_tails(self, tmp_path):
        key = "cd" + "0" * 62
        with ResultStore(tmp_path / "s") as store:
            row = self._put_one(store, key)
        segment = _segment(tmp_path / "s", key)
        size_before = segment.stat().st_size
        other = "cd" + "1" * 62
        with ResultStore(tmp_path / "s") as store:
            store.put(other, row)
        # No spurious blank line was inserted before the second row.
        text = segment.read_text()
        assert "\n\n" not in text
        assert segment.stat().st_size > size_before
        with ResultStore(tmp_path / "s") as reopened:
            assert reopened.get(key) == row and reopened.get(other) == row


# --------------------------------------------------------------------------- #
# keep-going sweeps against a store: error rows are recomputed, never served
# --------------------------------------------------------------------------- #
class TestKeepGoingResume:
    def _flaky_lambda(self, monkeypatch, fail_after=1):
        from repro.api.schemes import LambdaScheme

        original = LambdaScheme.build_task
        state = {"calls": 0}

        def flaky(self, *args, **kwargs):
            state["calls"] += 1
            if state["calls"] > fail_after:
                raise RuntimeError("injected failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LambdaScheme, "build_task", flaky)
        return state

    def test_error_rows_recomputed_on_keep_going_resume(self, tmp_path, monkeypatch):
        from repro.backends import ReferenceBackend

        cfg = GridConfig(families=["path", "grid"], sizes=[9, 12],
                         schemes=["lambda", "round_robin"])
        baseline = run_grid(cfg)
        self._flaky_lambda(monkeypatch)
        with ResultStore(tmp_path / "s") as store:
            first = run_grid(cfg, strict=False, store=store)
            failed = [r for r in first if r.status != "ok"]
            assert failed and len(store) == len(first) - len(failed)
        monkeypatch.undo()  # the flaw is fixed; resume, still with --keep-going

        calls = []
        original = ReferenceBackend.run_task

        def counting(self, task):
            calls.append(task)
            return original(self, task)

        monkeypatch.setattr(ReferenceBackend, "run_task", counting)
        with ResultStore(tmp_path / "s") as store:
            healed = run_grid(cfg, strict=False, store=store)
        # Exactly the previously failed cells were recomputed — error rows
        # were never served from the cache — and every row is now healthy.
        assert len(calls) == len(failed)
        assert healed == baseline
        assert all(r.status == "ok" for r in healed)

    def test_partial_flush_then_error_never_shadows_the_good_row(
        self, tmp_path, monkeypatch
    ):
        # A keep-going sweep whose process dies *mid-append* after flushing a
        # prefix of a row's line: the resumed pass must recompute that cell
        # and its freshly appended row must be served afterwards.
        cfg = GridConfig(families=["path"], sizes=[9, 12], schemes=["lambda"])
        with ResultStore(tmp_path / "s") as store:
            run_grid(cfg, store=store)
            keys = store.keys()
        segments = sorted((tmp_path / "s" / "segments").glob("*.jsonl"))
        victim = segments[-1]
        data = victim.read_bytes()
        victim.write_bytes(data[:-10])  # hard-kill truncation of the tail row

        with ResultStore(tmp_path / "s") as store:
            assert store.skipped_lines == 1
            resumed = run_grid(cfg, store=store)
        assert resumed == run_grid(cfg)
        with ResultStore(tmp_path / "s") as reopened:
            assert set(reopened.keys()) == set(keys)
            assert reopened.skipped_lines == 1


# --------------------------------------------------------------------------- #
# ResultSet edge cases: empty grids, all-error grids, fully masked columns
# --------------------------------------------------------------------------- #
class TestResultSetEdgeCases:
    def _assert_no_numpy_warnings(self):
        import contextlib
        import warnings

        @contextlib.contextmanager
        def guard():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                yield

        return guard()

    def test_empty_grid_yields_an_empty_result_set(self):
        cfg = GridConfig(families=[], sizes=[], schemes=["lambda"])
        with self._assert_no_numpy_warnings():
            rows = run_grid(cfg)
            assert isinstance(rows, ResultSet) and len(rows) == 0
            agg = rows.aggregate("completion_round")
        assert agg["count"] == 0
        assert np.isnan(agg["mean"])
        # An empty set still exports a CSV header (concatenable downstream).
        assert rows.to_csv().startswith("scheme,family,n,")
        assert rows.to_csv().count("\n") == 1
        assert rows.to_dicts() == []
        assert rows.filter(scheme="lambda") == []
        assert rows.groupby("scheme") == {}

    def test_all_error_grid_masks_are_fully_false(self):
        # Payloads too long for the bit-signalling length header fail on
        # every backend, so every cell records an error row.
        cfg = GridConfig(families=["path"], sizes=[9, 12],
                         schemes=["collision_detection"], payload="x" * 9000)
        with self._assert_no_numpy_warnings():
            rows = run_grid(cfg, strict=False)
            assert len(rows) == 2
            assert all(r.status != "ok" for r in rows)
            values, mask = rows.column_with_mask("completion_round")
            assert not mask.any()
            agg = rows.aggregate("completion_round")
            groups = rows.groupby("status")
        assert agg["count"] == 0 and np.isnan(agg["min"])
        assert all(len(g) > 0 for g in groups.values())
        # The float view is all-NaN, never a bogus zero.
        assert np.isnan(rows.column("completion_round")).all()

    def test_aggregate_and_groupby_over_masked_only_columns(self):
        rows = ResultSet([
            RunMetrics(scheme="lambda", family="path", n=9,
                       source_eccentricity=8, label_bits=2, distinct_labels=3,
                       completion_round=None, bound=None,
                       acknowledgement_round=None, transmissions=0,
                       collisions=0, total_message_bits=0)
            for _ in range(3)
        ])
        with self._assert_no_numpy_warnings():
            agg = rows.aggregate("acknowledgement_round")
            grouped = rows.groupby("scheme", "family")
            sub = grouped[("lambda", "path")]
            sub_agg = sub.aggregate("bound")
        assert set(agg) == {"count", "mean", "std", "min", "p05", "median",
                            "p95", "max"}
        assert agg["count"] == 0
        # An all-masked optional column aggregates to NaN across every
        # statistic — percentiles included — instead of raising on an empty
        # percentile input.
        assert all(np.isnan(agg[stat]) for stat in agg if stat != "count")
        assert np.isnan(agg["mean"]) and np.isnan(sub_agg["max"])
        assert np.isnan(sub_agg["p95"]) and np.isnan(sub_agg["std"])
        assert len(sub) == 3
        # filter on a None-valued optional column selects via the mask.
        assert len(rows.filter(completion_round=None)) == 3
        assert len(rows.filter(completion_round=5)) == 0
