"""The repository benchmark: one workload per run, checked rows, named metrics.

    python3 perfbench/run.py --workload small_sweep --seed 2019 --seconds 45 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``paper_cold``,
``small_sweep`` and ``warm_serve``.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it spends a third of ``--seconds``
untraced and the rest traced, and reports the per-layer metrics (per pass),
the layer self-time split and the tracing overhead.  Every row of every pass
is checked; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--record-digests`` recomputes the row digests of the default seed into
``digests.json`` (run it only on a tree whose rows are known good).
Everything the run writes stays under ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Fewest measured passes per untraced run, however long a pass takes.
MIN_PASSES = 5

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "cpu_ms_per_row": "ms",
    "submit_p50_ms": "ms",
    "submit_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.labels_s": "s",
    "core.sequences_s": "s",
    "core.dominating_s": "s",
    "core.sequence_builds": "count",
    "core.label_builds": "count",
    "graphs.generate_s": "s",
    "graphs.instances": "count",
    "backends.engine_s": "s",
    "backends.tasks": "count",
    "backends.rounds": "count",
    "backends.native_ratio": "ratio",
    "api.task_s": "s",
    "api.derive_s": "s",
    "analysis.metrics_s": "s",
    "store.key_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.get_s": "s",
    "store.gets": "count",
    "store.hit_ratio": "ratio",
    "service.submit_self_s": "s",
    "service.served_cached": "count",
    "service.computed": "count",
    "graphs.self_s": "s",
    "core.self_s": "s",
    "api.self_s": "s",
    "backends.self_s": "s",
    "analysis.self_s": "s",
    "store.self_s": "s",
    "service.self_s": "s",
    "bench.uncovered_share": "ratio",
    "trace.rows_per_s": "1/s",
    "trace.untraced_rows_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


def provenance() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def run_probe(workload: Any, seed: int, target: Path, *extra: str) -> float:
    """Run ``probe.py`` in a fresh interpreter; returns its wall time."""
    start = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "--workload", workload.name,
         "--seed", str(seed), "--dir", str(target), *extra],
        stdin=subprocess.DEVNULL,
    )
    # A blocking wait, not wait(timeout): the latter polls with sleeps of
    # up to 50 ms, which would quantize the measurement.
    watchdog = threading.Timer(120, probe.kill)
    watchdog.start()
    try:
        code = probe.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"probe.py {' '.join(extra)} for {workload.name} "
                           f"exited with {code}")
    return elapsed


def setup_seconds(workload: Any, seed: int, store_dir: Path) -> List[float]:
    """Time ``SETUP_REPEATS`` fresh-interpreter set-ups (see ``probe.py``),
    each rescaled by a speed probe taken just before it."""
    import speed

    times = []
    for i in range(SETUP_REPEATS):
        target = store_dir if workload.serve else WORK / workload.name / f"probe-{i}"
        box = speed.probe()[0]
        times.append(run_probe(workload, seed, target) * speed.REFERENCE_SECONDS / box)
        if not workload.serve:
            shutil.rmtree(target, ignore_errors=True)
    return times


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    import spans
    import workloads as wl

    workload = wl.WORKLOADS[workload_name]
    config = workload.config(seed)
    digest_name = workload.digest_of or workload.name
    expected = wl.load_digests(DIGESTS).get(f"{digest_name}@{seed}")
    checker = wl.RowChecker(config, expected)
    base = WORK / workload.name
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    service = None
    if workload.serve:
        fill = run_probe(workload, seed, base / "store", "--fill")
        service = wl.WarmService.over(base / "store", config)
        print(f"fill: {len(service.reference)} rows in {fill:.3f} s")
        checker.check(service.reference, label="setup fill")
    setups = setup_seconds(workload, seed, base / "store")
    print(f"setup: {len(setups)} fresh-interpreter set-ups, rescaled: "
          f"{', '.join(f'{s:.3f}' for s in setups)} s")

    pass_count = 0

    def new_passes() -> Any:
        return wl.Passes(rows_per_pass=checker.expected_rows)

    try:
        if service is not None:
            service.start()
            wl.warm_pass(service, new_passes(), checker)  # connection warm-up
            counters = service.counters()

            def one_pass(passes: Any, tracer: Any = None) -> None:
                wl.warm_pass(service, passes, checker, tracer)
        else:
            wl.run_grid(workload.smoke_config(seed), backend=wl.BACKEND, jobs=1)

            def one_pass(passes: Any, tracer: Any = None) -> None:
                nonlocal pass_count
                pass_count += 1
                wl.cold_pass(config, base / f"pass-{pass_count}", passes,
                             checker, tracer)

        if not trace:
            passes = wl.measure(new_passes(), one_pass, seconds, MIN_PASSES)
            metrics = end_to_end_metrics(passes, setups)
            report_end_to_end(passes, metrics)
        else:
            untraced = wl.measure(new_passes(), one_pass, seconds / 3, 1)
            tracer = spans.Tracer()
            before = service.counters() if service is not None else None
            spans.instrument(tracer, wl.BACKEND)
            try:
                traced = wl.measure(new_passes(),
                                    lambda passes: one_pass(passes, tracer),
                                    seconds * 2 / 3, 1)
            finally:
                tracer.restore()
            after = service.counters() if service is not None else None
            own = spans.layer_self_seconds(tracer.spans)
            metrics = layer_metrics(tracer, own, traced, untraced, checker,
                                    before, after)
            report_layers(own, traced, metrics)
            out = WORK / f"spans-{workload.name}.jsonl"
            tracer.dump(out)
            print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        if service is not None:
            computed = service.counters()["computed"] - counters["computed"]
            if computed:
                checker.note(f"the coordinator computed {computed} cells "
                             f"instead of serving them from the store")
    finally:
        if service is not None:
            service.close()

    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    units = END_TO_END if not trace else PER_LAYER
    return {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def end_to_end_metrics(passes: Any, setups: List[float]) -> Dict[str, float]:
    import workloads as wl

    latencies_ms = [1000.0 * s for s in passes.latencies()]
    return {
        "setup_s": statistics.median(setups),
        "rows_per_s": passes.rows_per_s(),
        "cpu_ms_per_row": passes.cpu_ms_per_row(),
        "submit_p50_ms": statistics.median(latencies_ms),
        "submit_p90_ms": wl.quantile(latencies_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_end_to_end(passes: Any, metrics: Dict[str, float]) -> None:
    import speed

    probes = statistics.median(wall for wall, _ in passes.speeds)
    print(f"passes (latency samples): {len(passes.times)} in {passes.wall:.3f} s "
          f"({passes.rows_per_pass} rows each); speed probe median "
          f"{1000 * probes:.2f} ms, figures rescaled to "
          f"{1000 * speed.REFERENCE_SECONDS:.0f} ms")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {metrics[name]:>14.4f} {unit}")


def layer_metrics(tracer: Any, own: Dict[str, float], traced: Any, untraced: Any,
                  checker: Any, before: Any, after: Any) -> Dict[str, float]:
    """Per-pass layer totals from the traced passes (see README.md).

    ``own`` is each layer's self time over all traced passes.
    """
    import spans

    n = len(traced.times)
    roots = sum(s.end - s.start for s in tracer.spans if s.parent == 0) / 1e9
    contains = tracer.span_count("store.contains")
    served = computed = 0.0
    if before is not None:
        served = after["served_cached"] - before["served_cached"]
        computed = after["computed"] - before["computed"]
    m = {
        "core.labels_s": tracer.total_seconds("core.build_labels") / n,
        "core.sequences_s": tracer.total_seconds("core.build_sequences") / n,
        "core.dominating_s": tracer.total_seconds("core.dominating") / n,
        "core.sequence_builds": tracer.span_count("core.build_sequences") / n,
        "core.label_builds": tracer.span_count("core.build_labels") / n,
        "graphs.generate_s": tracer.total_seconds("graphs.generate") / n,
        "graphs.instances": tracer.span_count("graphs.materialize") / n,
        "backends.engine_s": own["backends"] / n,
        "backends.tasks": tracer.counts["backends.tasks"] / n,
        "backends.rounds": tracer.counts["backends.rounds"] / n,
        "backends.native_ratio": checker.native / max(1, checker.attempted),
        "api.task_s": tracer.total_seconds("api.build_task") / n,
        "api.derive_s": tracer.total_seconds("api.derive_outcome") / n,
        "analysis.metrics_s": tracer.total_seconds("analysis.metrics_from_run") / n,
        "store.key_s": tracer.total_seconds("store.grid_unit_key") / n,
        "store.put_s": tracer.total_seconds("store.put") / n,
        "store.puts": tracer.span_count("store.put") / n,
        "store.get_s": tracer.total_seconds("store.get") / n,
        "store.gets": tracer.span_count("store.get") / n,
        "store.hit_ratio": tracer.counts["store.hits"] / contains if contains else 0.0,
        "service.submit_self_s": tracer.self_seconds_of("service.submit") / n,
        "service.served_cached": served / n,
        "service.computed": computed / n,
        "bench.uncovered_share": own[spans.ROOT_LAYER] / roots if roots else 0.0,
        "trace.rows_per_s": traced.rows_per_s(),
        "trace.untraced_rows_per_s": untraced.rows_per_s(),
        "trace.overhead_ratio": untraced.rows_per_s() / traced.rows_per_s(),
    }
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = own[layer] / n
    return m


def report_layers(own: Dict[str, float], traced: Any, metrics: Dict[str, float]) -> None:
    import spans

    total = sum(own.values()) or 1.0
    print(f"traced passes: {len(traced.times)} in {traced.wall:.3f} s; "
          f"self time per layer (share of traced wall time):")
    for layer in spans.LAYERS + (spans.ROOT_LAYER,):
        label = "uncovered" if layer == spans.ROOT_LAYER else layer
        print(f"  {label:<10} {own[layer]:>10.4f} s  {100 * own[layer] / total:6.2f} %")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<26} {metrics[name]:>14.6f} {unit}")


def record_digests() -> int:
    import workloads as wl

    digests = {}
    for workload in wl.WORKLOADS.values():
        if workload.digest_of is not None:
            continue
        rows = wl.run_grid(workload.config(wl.DEFAULT_SEED), backend=wl.BACKEND, jobs=1)
        digests[f"{workload.name}@{wl.DEFAULT_SEED}"] = wl.rows_digest(rows)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    scratch = WORK / "tmp"
    scratch.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    if args.record_digests:
        return record_digests()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    digest_key = f"{workload.digest_of or workload.name}@{args.seed}"
    info = provenance()
    info.update(seed=args.seed, held_out=digest_key not in wl.load_digests(DIGESTS))
    print(f"provenance: {json.dumps(info, sort_keys=True)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
