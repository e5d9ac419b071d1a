"""Self-tests of the benchmark code (small grids, a few seconds in total).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from repro.api import GridConfig, run_grid  # noqa: E402
from repro.store import ResultStore  # noqa: E402

TINY = GridConfig(families=["path", "grid"], sizes=[9], seeds_per_size=2,
                  schemes=["lambda", "lambda_ack", "round_robin"])


def _rows(config: GridConfig = TINY):
    return list(run_grid(config, backend=wl.BACKEND, jobs=1))


def test_metric_names_are_well_formed_and_match_the_manifest():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, emitted in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[section]}
        assert declared == emitted, section
        for name in declared:
            assert pattern.fullmatch(name) and len(name) <= 64, name
    assert [w["name"] for w in manifest["workloads"]] == list(wl.WORKLOADS)
    assert all(w["why"] == wl.WORKLOADS[w["name"]].why for w in manifest["workloads"])


def test_self_time_subtracts_the_union_of_children():
    S = spans.Span
    tree = [
        S(1, 0, "pass", "bench", "t", 0, 100),
        S(2, 1, "labels", "core", "t", 10, 50),
        S(3, 2, "sequences", "core", "t", 20, 40),
        S(4, 1, "put", "store", "t", 45, 60),   # overlaps span 2 by 5
        S(5, 1, "engine", "backends", "t", 90, 120),  # runs past its parent
        S(6, 3, "dominating", "core", "t", 25, 30),
    ]
    own = spans.self_times(tree)
    assert own == {1: 100 - 50 - 10, 2: 40 - 20, 3: 20 - 5, 4: 15, 5: 30, 6: 5}
    layers = spans.layer_self_seconds(tree)
    assert round(layers["core"] * 1e9) == 20 + 15 + 5
    assert round(layers["bench"] * 1e9) == 40
    assert spans.union_length([(0, 10), (5, 15), (20, 30)], 0, 25) == 20


def test_tracer_records_parents_counts_and_restores_patches():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    tracer = spans.Tracer()
    tracer.timed(Owner, "work", "inner", "core")
    result = tracer.call("outer", "bench", lambda: Owner.work(1), (), {}, "pass-0")
    tracer.restore()
    assert result == 2 and Owner.work(1) == 2
    assert "work" in Owner.__dict__ and tracer.span_count("inner") == 1
    outer, inner = sorted(tracer.spans, key=lambda s: s.id)
    assert inner.parent == outer.id and inner.trace == "pass-0"


def test_each_pass_is_rescaled_by_the_speed_probes_either_side():
    ref = speed.REFERENCE_SECONDS
    walls = (5.0, 1.0, 3.0, 2.0, 4.0)
    passes = wl.Passes(rows_per_pass=10, times=[(w, w / 10) for w in walls],
                       speeds=[(ref, ref)] * 6)
    assert passes.latencies() == pytest.approx(list(walls))
    metrics = run.end_to_end_metrics(passes, [0.3, 0.2, 0.4])
    assert metrics["rows_per_s"] == pytest.approx(10 / 3.0)
    assert metrics["cpu_ms_per_row"] == pytest.approx(1000 * 0.3 / 10)
    assert metrics["submit_p50_ms"] == pytest.approx(3000.0)
    assert metrics["submit_p90_ms"] == pytest.approx(1000 * (4.0 + 0.6 * 1.0))
    assert metrics["setup_s"] == 0.3
    # probes of 1x and 3x the reference around a pass: it counts half
    slow = wl.Passes(rows_per_pass=1, times=[(2.0, 1.0)],
                     speeds=[(ref, ref), (3 * ref, 7 * ref)])
    assert slow.samples() == pytest.approx([(1.0, 0.25)])
    # one probe before the first pass and one after every pass
    counted = wl.measure(wl.Passes(rows_per_pass=1),
                         lambda p: p.times.append((0.0, 0.0)), 0.0, 3)
    assert len(counted.times) == 3 and len(counted.speeds) == 4


def test_digest_check_rejects_one_perturbed_row():
    rows = _rows()
    checker = wl.RowChecker(TINY, wl.rows_digest(rows))
    assert checker.check(rows) == 0
    # Provenance is not part of the digest: a different engine tag passes.
    relabeled = [dataclasses.replace(rows[0], backend="reference")] + rows[1:]
    assert checker.check(relabeled) == 0
    perturbed = list(rows)
    perturbed[3] = dataclasses.replace(rows[3], transmissions=rows[3].transmissions + 1)
    assert checker.check(perturbed) == len(rows)
    assert checker.failed == len(rows) and checker.problems


def test_row_invariants():
    rows = _rows()
    assert wl.failing_rows(rows, TINY) == []
    bad = dataclasses.replace(rows[0], label_bits=3)  # a λ row must be 2-bit
    late = dataclasses.replace(rows[1], completion_round=2 * rows[1].n)
    failing = wl.failing_rows([bad, late] + rows[2:], TINY)
    assert [index for index, _ in failing] == [0, 1]
    assert [i for i, _ in wl.failing_rows(rows[:-1], TINY)] == [-1]


def test_warm_serve_fails_loudly_when_a_row_is_computed(tmp_path):
    partial = dataclasses.replace(TINY, seeds_per_size=1)
    with ResultStore(tmp_path / "store") as store:
        run_grid(partial, backend=wl.BACKEND, jobs=1, store=store)
    service = wl.WarmService(tmp_path / "store", TINY, _rows()).start()
    try:
        checker = wl.RowChecker(TINY, None)
        wl.warm_pass(service, wl.Passes(rows_per_pass=len(service.reference)),
                     checker)
    finally:
        service.close()
    computed = len(service.reference) // 2
    assert checker.failed == computed
    assert any("computed instead of served" in p for p in checker.problems)
