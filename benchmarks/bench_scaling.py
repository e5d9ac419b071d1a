"""E10 — Section 5: the algorithm runs in O(n) rounds; scheme construction cost.

The paper notes that the algorithms are not optimised for time and run in
O(n) rounds.  This benchmark measures (a) how the completion round grows with
n for the worst-case path and for "good" families (where it tracks the source
eccentricity rather than n), (b) the cost of computing the labeling scheme
itself as n grows (the sequence construction is the dominant part),
(c) the reference-vs-vectorized backend comparison and (d) the
many-small-instances sweep throughput of one stacked ``run_batch`` call
against per-task ``run_task`` dispatch — both emitted into machine-readable
``BENCH_scaling.json`` at the repository root (each section updates its own
key, so the benchmarks can run independently) so future optimisation PRs
have a perf trajectory to compare against.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.analysis import format_table
from repro.api import get_scheme
from repro.core import build_sequences, lambda_scheme
from repro.graphs import generate_family, path_graph
from conftest import report

SIZES = [32, 64, 128, 256, 512]

#: Where the machine-readable backend comparison lands (repo root).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"


def _machine_provenance() -> dict:
    """The recording machine's capabilities, stamped on every section.

    Numbers recorded on a small box look like regressions on real hardware
    unless the recording machine is machine-readable next to them.
    """
    import os

    return {"cpu_count": os.cpu_count() or 1}


def _merge_bench_json(key: str, rows) -> None:
    """Update one section of BENCH_scaling.json, preserving the others.

    Each section is ``{"machine": {...}, "rows": [...]}`` — the rows wrapped
    with the recording machine's provenance.
    """
    doc = {}
    if BENCH_JSON.exists():
        try:
            doc = json.loads(BENCH_JSON.read_text())
        except ValueError:
            doc = {}
    doc[key] = {"machine": _machine_provenance(), "rows": rows}
    BENCH_JSON.write_text(json.dumps(doc, indent=2) + "\n")


#: (family, n) cells of the backend comparison.  gnp_sparse at n=2048 covers
#: the "n >= 2000 plain broadcast" acceptance point; the path cell stays at
#: 512 because the reference engine needs Θ(n) Python work per round for
#: 2n−3 rounds (~30 s at n=2048 — the very bottleneck the vectorized backend
#: removes; its own path-2048 number is reported separately below).
BACKEND_CELLS = [("path", 512), ("gnp_sparse", 2048), ("geometric", 2048)]


def _round_growth():
    rows = []
    for family in ("path", "grid", "gnp_sparse", "geometric"):
        for n in SIZES:
            graph = generate_family(family, n, seed=1)
            outcome = get_scheme("lambda").run(graph, 0)
            rows.append({
                "family": family,
                "n": graph.n,
                "ecc(source)": None,
                "completion": outcome.completion_round,
                "completion / n": round(outcome.completion_round / graph.n, 3),
            })
    return rows


def bench_completion_round_growth(benchmark):
    """Completion rounds stay ≤ 2n−3 and scale with eccentricity on good families."""
    rows = benchmark.pedantic(_round_growth, rounds=1, iterations=1)
    for row in rows:
        assert row["completion"] <= 2 * row["n"] - 3
    # On the path the ratio tends to 2; on dense random graphs it collapses.
    path_ratios = [r["completion / n"] for r in rows if r["family"] == "path"]
    gnp_ratios = [r["completion / n"] for r in rows if r["family"] == "gnp_sparse"]
    assert min(path_ratios) > 1.5
    assert max(gnp_ratios) < 1.0
    report("E10 — completion-round growth with n (O(n) overall, O(ℓ) per instance)",
           format_table(rows))


@pytest.mark.parametrize("n", [64, 256, 512])
def bench_labeling_construction_cost_path(benchmark, n):
    """Time λ construction on the worst-case path (ℓ = n stages)."""
    graph = path_graph(n)
    labeling = benchmark(lambda_scheme, graph, 0)
    assert labeling.length == 2


@pytest.mark.parametrize("family", ["gnp_sparse", "geometric", "grid"])
def bench_labeling_construction_cost_families(benchmark, family):
    """Time λ construction on 256-node instances of the main random families."""
    graph = generate_family(family, 256, seed=2)
    labeling = benchmark(lambda_scheme, graph, 0)
    assert labeling.length == 2


@pytest.mark.parametrize("n", [128, 512])
def bench_sequence_construction_only(benchmark, n):
    """Time the raw Section 2.1 sequence construction."""
    graph = generate_family("gnp_sparse", n, seed=4)
    seq = benchmark(build_sequences, graph, 0)
    assert seq.ell <= graph.n


@pytest.mark.parametrize("n", [128, 512])
def bench_simulation_only(benchmark, n):
    """Time one Algorithm B execution with a precomputed labeling."""
    graph = generate_family("geometric", n, seed=6)
    labeling = lambda_scheme(graph, 0)
    outcome = benchmark(get_scheme("lambda").run, graph, 0, labeling=labeling)
    assert outcome.completed


def _time_backend(graph, labeling, backend: str, repeats: int = 3):
    """Best-of-N wall time of one plain-broadcast run on ``backend``."""
    best, outcome = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = get_scheme("lambda").run(
            graph, 0, labeling=labeling, backend=backend, trace_level="summary"
        )
        best = min(best, time.perf_counter() - start)
    return best, outcome


def bench_backend_scaling():
    """Reference vs vectorized plain broadcast; emits BENCH_scaling.json.

    Acceptance: the vectorized backend is ≥ 5× faster at n ≥ 2000 (it is two
    orders of magnitude faster in practice, because the reference engine pays
    a Python ``decide`` call per node per round).
    """
    rows = []
    for family, n in BACKEND_CELLS:
        graph = generate_family(family, n, seed=1)
        labeling = lambda_scheme(graph, 0)
        cell = {}
        for backend in ("reference", "vectorized"):
            # The reference engine is only timed once: at these sizes one run
            # costs seconds and best-of-1 noise is irrelevant next to ~50×.
            repeats = 1 if backend == "reference" else 3
            wall, outcome = _time_backend(graph, labeling, backend, repeats=repeats)
            assert outcome.completed
            rounds = outcome.trace.num_rounds
            cell[backend] = wall
            rows.append({
                "family": family,
                "n": graph.n,
                "backend": backend,
                "rounds": rounds,
                "rounds_per_sec": round(rounds / wall, 1),
                "wall_time_s": round(wall, 6),
                "speedup_vs_reference": None,
            })
        rows[-1]["speedup_vs_reference"] = round(
            cell["reference"] / cell["vectorized"], 1
        )
    # The vectorized backend alone also handles the worst case the reference
    # engine cannot touch interactively: the 2n−3-round path at n = 2048.
    graph = generate_family("path", 2048, seed=1)
    labeling = lambda_scheme(graph, 0)
    wall, outcome = _time_backend(graph, labeling, "vectorized")
    rows.append({
        "family": "path",
        "n": graph.n,
        "backend": "vectorized",
        "rounds": outcome.trace.num_rounds,
        "rounds_per_sec": round(outcome.trace.num_rounds / wall, 1),
        "wall_time_s": round(wall, 6),
        "speedup_vs_reference": None,
    })

    for row in rows:
        speedup = row["speedup_vs_reference"]
        if speedup is not None and row["n"] >= 2000:
            assert speedup >= 5.0, (
                f"vectorized backend must be >= 5x faster at n >= 2000, got "
                f"{speedup}x on {row['family']} n={row['n']}"
            )

    _merge_bench_json("rows", rows)
    report(
        "E10b — backend scaling (reference vs vectorized, plain broadcast)",
        format_table(rows) + f"\nwritten to {BENCH_JSON}",
    )


def bench_batched_small_graph_sweep():
    """Many small instances, one kernel loop: stacked vs per task vs reference.

    The statistical sweeps behind the paper's family-level claims run
    thousands of small instances, exactly where per-instance NumPy dispatch
    overhead dominates the vectorized backend.  This benchmark times the
    *engine* on a 256-instance n=32 sweep workload (tasks prebuilt, so
    labeling/metrics cost — identical in every path — is excluded): the
    reference engine task by task, the vectorized engine task by task
    (``run_task``, a batch of one) and one vectorized ``run_batch`` over the
    stacked batch.  Rows are keyed by ``mode`` (``reference`` /
    ``per_task`` / ``stacked``).  Acceptance: stacking sustains ≥ 3× the
    per-task throughput (≥ 2× asserted, to absorb shared-CI noise) with
    bit-identical results, and stays ahead at every (n ≤ 64, k ≥ 256) cell.
    """
    from repro.backends import ReferenceBackend, VectorizedBackend

    scheme = get_scheme("lambda")
    engine, reference = VectorizedBackend(), ReferenceBackend()
    rows = []
    for family, n, k in [("gnp_sparse", 32, 256), ("geometric", 64, 256)]:
        tasks = []
        for i in range(k):
            graph = generate_family(family, n, seed=i)
            info = scheme.build_labels(graph, 0)
            tasks.append(scheme.build_task(
                graph, info, 0, payload="MSG",
                max_rounds=scheme.default_budget(graph, info),
                trace_level="summary", fault_model=None, clock_model=None,
            ))

        def best_of(fn, repeats=3):
            best, out = float("inf"), None
            for _ in range(repeats):
                start = time.perf_counter()
                out = fn()
                best = min(best, time.perf_counter() - start)
            return best, out

        wall_ref, outs_ref = best_of(
            lambda: [reference.run_task(t) for t in tasks], repeats=1
        )
        wall_task, outs_task = best_of(lambda: [engine.run_task(t) for t in tasks])
        wall_stack, outs_stack = best_of(lambda: engine.run_batch(tasks))
        for ref_out, task_out, stack_out in zip(outs_ref, outs_task, outs_stack):
            assert stack_out.trace == task_out.trace == ref_out.trace
            assert stack_out.derived == task_out.derived
            assert stack_out.backend == task_out.backend == "vectorized"
        rounds = sum(out.trace.num_rounds for out in outs_stack)
        for mode, wall in [("reference", wall_ref), ("per_task", wall_task),
                           ("stacked", wall_stack)]:
            rows.append({
                "family": family,
                "n": n,
                "instances": k,
                "mode": mode,
                "rounds": rounds,
                "rounds_per_sec": round(rounds / wall, 1),
                "wall_time_s": round(wall, 6),
                "speedup_vs_per_task": round(wall_task / wall, 2),
            })
        assert wall_stack < wall_task, (
            f"stacked run_batch must beat per-task run_task at n={n}, k={k}, "
            f"got {wall_stack:.4f}s vs {wall_task:.4f}s"
        )
    headline = next(r for r in rows if r["mode"] == "stacked" and r["n"] == 32)
    assert headline["speedup_vs_per_task"] >= 2.0, (
        f"stacked run_batch should be >= 2x per-task run_task on the "
        f"256-instance n=32 sweep, got {headline['speedup_vs_per_task']}x"
    )
    _merge_bench_json("batched_sweep", rows)
    report(
        "E10d — stacked multi-instance sweep (256 small graphs per cell)",
        format_table(rows) + f"\nwritten to {BENCH_JSON}",
    )


#: Sizes of the grid-stacking benchmark, on both sides of ``STACK_NODES``;
#: ``--quick`` skips the last.
STACKING_SIZES = [32, 128, 512, 4096]
STACKING_SEEDS = 16

#: One cold ``run_grid`` in a fresh interpreter, so ``ru_maxrss`` is this
#: cell's peak alone: λ and λ_ack on 16 seeds of one (family, n) on the
#: vectorized engine, best of ``repeats`` runs, plus a digest of the rows.
#: Mode ``alone`` sets ``STACK_NODES = 0``: one instance per kernel call.
_STACKING_PROBE = """
import hashlib, json, resource, sys, time
import repro.api.grid as grid
from repro.api import GridConfig, run_grid

family, n, mode, seeds, repeats = sys.argv[1:6]
config = GridConfig(families=[family], sizes=[int(n)], seeds_per_size=int(seeds),
                    schemes=["lambda", "lambda_ack"])
if mode == "alone":
    grid.STACK_NODES = 0
best = float("inf")
for _ in range(int(repeats)):
    start = time.perf_counter()
    rows = run_grid(config, backend="vectorized")
    best = min(best, time.perf_counter() - start)
blob = json.dumps([row.as_dict() for row in rows], sort_keys=True)
print(json.dumps({"rows": len(rows), "seconds": best,
                  "digest": hashlib.sha256(blob.encode()).hexdigest(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def bench_grid_stacking(request):
    """Cold grid sweeps, stacked by default vs one instance per kernel call.

    The vectorized engine stacks consecutive whole instances of a grid while
    their requested sizes sum to at most ``STACK_NODES``; an instance that
    large runs alone.  This benchmark runs the same grid (λ and λ_ack, 16
    seeds) that way and with ``STACK_NODES = 0`` (one instance per call), at
    sizes on both sides of the cap.  Each run is a
    fresh interpreter and records rows/s (best of its repeats) and its
    ``ru_maxrss``.  Asserts identical rows in every cell and stacked ≥
    per-instance rows/s at n = 32.  ``--quick`` skips n = 4096.
    """
    import os
    import subprocess
    import sys

    from repro.api.grid import STACK_NODES

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    sizes = STACKING_SIZES[:-1] if request.config.getoption("--quick") else STACKING_SIZES

    def run(family: str, n: int, mode: str) -> dict:
        repeats = 1 if n > STACK_NODES else 3
        out = subprocess.run(
            [sys.executable, "-c", _STACKING_PROBE, family, str(n), mode,
             str(STACKING_SEEDS), str(repeats)],
            env=env, check=True, capture_output=True, text=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    rows = []
    for family in ("gnp_sparse", "geometric"):
        for n in sizes:
            alone = run(family, n, "alone")
            stacked = run(family, n, "stacked")
            assert stacked["digest"] == alone["digest"], (family, n)
            rows.append({
                "family": family,
                "n": n,
                "rows": stacked["rows"],
                "instances_per_call": min(STACKING_SEEDS, max(1, STACK_NODES // n)),
                "rows_match": stacked["digest"] == alone["digest"],
                "per_instance_rows_per_s": round(alone["rows"] / alone["seconds"], 1),
                "stacked_rows_per_s": round(stacked["rows"] / stacked["seconds"], 1),
                "speedup": round(alone["seconds"] / stacked["seconds"], 2),
                "per_instance_peak_rss_mb": round(alone["peak_rss_mb"], 1),
                "stacked_peak_rss_mb": round(stacked["peak_rss_mb"], 1),
            })
    for row in rows:
        if row["n"] == 32:
            assert row["stacked_rows_per_s"] >= row["per_instance_rows_per_s"], row
    _merge_bench_json("grid_stacking", rows)
    report(
        "E10j — cold grid sweeps, stacked windows vs one instance per call",
        format_table(rows) + f"\nwritten to {BENCH_JSON}",
    )


#: (family, n, SHA-256 of the canonical CSR at seed 1) cells of the graph
#: generation benchmark.  The pinned digests make every cell a check that
#: generation still yields exactly the same graph.  The 10⁶ grid is the cell
#: ``--quick`` skips.
GRAPH_CELLS = [
    ("geometric", 4096,
     "bad49354e04350c083dacb711d3ff283e03b4feb508f172195784414d2ff8fa4"),
    ("gnp_sparse", 4096,
     "408340ea7e5fcd57c56ecdfeaca896af9da1330168a1b5164d7e23c53e01bafa"),
    ("grid", 317 * 317,
     "0c5f15c445238ea386d661f19a0a3d61a4b5041e9c2b263a237e283b1bf0100d"),
    ("path", 20_000,
     "18746f6a15e2dab0d66c835e05b8eb37c9cede959b68c72582ccb4b57a1dc5ed"),
    ("series_parallel", 2000,
     "32a4abb5ef06053c804570ee5213f47818cf747caa17459abb7acf4baf39be85"),
]
GRAPH_LARGE_CELL = (
    "grid", 1000 * 1000,
    "2d7f56dd8e30ec59d3051aab6449de5f258b92427e388efb241754f207d18602")

#: One generation cell in a fresh interpreter, so ``ru_maxrss`` is this
#: graph's peak alone: generate at seed 1, then digest the CSR.
_GRAPH_PROBE = """
import hashlib, json, resource, sys, time
from repro.graphs import generate_family

start = time.perf_counter()
graph = generate_family(sys.argv[1], int(sys.argv[2]), 1)
seconds = time.perf_counter() - start
indptr, indices = graph.csr()
digest = hashlib.sha256(indptr.astype("<i8").tobytes() + indices.astype("<i8").tobytes())
print(json.dumps({"n": graph.n, "m": graph.num_edges, "seconds": seconds,
                  "digest": digest.hexdigest(),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def bench_graph_rows(request):
    """Graph generation alone at large n; emits the ``graph_rows`` section.

    Each cell generates one family member at seed 1 in its own interpreter
    and records the generation seconds, the process's peak RSS and the
    SHA-256 of ``indptr`` and ``indices`` as little-endian int64.  Asserts
    that every digest equals the pinned one.  With ``--quick`` the n = 10⁶
    grid is skipped.
    """
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cells = list(GRAPH_CELLS)
    if not request.config.getoption("--quick"):
        cells.append(GRAPH_LARGE_CELL)
    rows = []
    for family, n, digest in cells:
        out = subprocess.run(
            [sys.executable, "-c", _GRAPH_PROBE, family, str(n)],
            env=env, check=True, capture_output=True, text=True,
        )
        cell = json.loads(out.stdout.strip().splitlines()[-1])
        assert cell["digest"] == digest, (family, n, cell["digest"])
        rows.append({
            "family": family,
            "n": cell["n"],
            "m": cell["m"],
            "seconds": round(cell["seconds"], 4),
            "peak_rss_mb": round(cell["peak_rss_mb"], 1),
            "csr_sha256": cell["digest"][:16],
            "digest_match": cell["digest"] == digest,
        })
    _merge_bench_json("graph_rows", rows)
    report(
        "E10k — graph generation alone (one interpreter per cell, seed 1)",
        format_table(rows) + f"\nwritten to {BENCH_JSON}",
    )


#: (family, n) cells of the real-λ labeling benchmark; the 10⁶ grid is the
#: cell ``--quick`` skips.
LABELING_CELLS = [("grid", 10_000), ("grid", 317 * 317), ("path", 20_000),
                  ("geometric", 4096)]
LABELING_LARGE_CELL = ("grid", 1000 * 1000)

#: One labeling cell in a fresh interpreter, so ``ru_maxrss`` is this cell's
#: peak alone: generate the graph, then time λ from source 0.
_LABELING_PROBE = """
import json, resource, sys, time
from repro.core import lambda_scheme
from repro.graphs import generate_family

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

graph = generate_family(sys.argv[1], int(sys.argv[2]), 1)
graph_peak = peak_mb()
start = time.perf_counter()
labeling = lambda_scheme(graph, 0)
seconds = time.perf_counter() - start
print(json.dumps({"n": graph.n, "ell": labeling.construction.ell,
                  "label_bits": labeling.length, "seconds": seconds,
                  "graph_peak_rss_mb": graph_peak, "peak_rss_mb": peak_mb()}))
"""


def bench_labeling_rows(request):
    """Real λ labels on large instances; emits the ``labeling_rows`` section.

    Each cell runs in its own interpreter and records λ's wall time (the
    Section 2.1 construction plus the label bits) and the process's peak
    RSS, next to the peak after graph generation alone.  The path is the
    worst case for the construction (ℓ = n stages).  With ``--quick`` the
    n = 10⁶ grid is skipped.
    """
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cells = list(LABELING_CELLS)
    if not request.config.getoption("--quick"):
        cells.append(LABELING_LARGE_CELL)
    rows = []
    for family, n in cells:
        out = subprocess.run(
            [sys.executable, "-c", _LABELING_PROBE, family, str(n)],
            env=env, check=True, capture_output=True, text=True,
        )
        cell = json.loads(out.stdout.strip().splitlines()[-1])
        assert cell["label_bits"] == 2 and cell["ell"] <= cell["n"], cell
        rows.append({
            "family": family,
            "n": cell["n"],
            "ell": cell["ell"],
            "seconds": round(cell["seconds"], 4),
            "graph_peak_rss_mb": round(cell["graph_peak_rss_mb"], 1),
            "peak_rss_mb": round(cell["peak_rss_mb"], 1),
        })
    _merge_bench_json("labeling_rows", rows)
    report(
        "E10i — real λ labels on large instances (one interpreter per cell)",
        format_table(rows) + f"\nwritten to {BENCH_JSON}",
    )


#: (scheme, family, n, round budget) cells of the large-instance benchmark:
#: real λ to completion on three grids and the worst-case path, whose rounds
#: all stay far below the channel's sparse cut-off; the G²-colouring TDMA
#: to completion on the 100,489-node grid, whose later rounds reach most of
#: the grid and so sit on the dense side of it; and the round-robin
#: baseline's fixed 600-round budget on the 504,100-node grid, where only
#: the source is informed and its slot never comes, so the kernel runs round
#: 1, jumps to the budget and spends its time reading the labels.  The 10⁶
#: grid is the cell ``--quick`` skips.
LARGE_CELLS = [("lambda", "grid", 317 * 317, "default"),
               ("lambda", "grid", 710 * 710, "default"),
               ("lambda", "path", 20_000, "default"),
               ("coloring_tdma", "grid", 317 * 317, "default"),
               ("round_robin", "grid", 710 * 710, "600")]
LARGE_QUICK_SKIP = ("lambda", "grid", 1000 * 1000, "default")

#: One large-instance cell in a fresh interpreter: build the task, then time
#: the vectorized engine (best of 2) with the channel's sparse branch forced
#: off, with it forced on, and with the per-round choice.
_LARGE_PROBE = """
import json, sys, time
from unittest import mock
from repro.api import get_scheme
from repro.backends import VectorizedBackend, batched
from repro.graphs import generate_family

scheme_name, family, n, budget = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
graph = generate_family(family, n, 1)
scheme = get_scheme(scheme_name)
info = scheme.build_labels(graph, 0)
task = scheme.build_task(
    graph, info, 0, payload="MSG",
    max_rounds=scheme.default_budget(graph, info) if budget == "default" else int(budget),
    trace_level="summary", fault_model=None, clock_model=None,
)
engine = VectorizedBackend()

def best_of_two():
    best, out = float("inf"), None
    for _ in range(2):
        start = time.perf_counter()
        out = engine.run_task(task)
        best = min(best, time.perf_counter() - start)
    assert out.backend == "vectorized", "the kernels must run, not the fallback"
    return best, (out.trace, out.derived, out.simulation.stop_round)

with mock.patch.object(batched, "_SPARSE_MIN_NODES", 1 << 62):
    dense_s, dense = best_of_two()
with mock.patch.multiple(batched, _SPARSE_MIN_NODES=0, _SPARSE_FACTOR=0):
    sparse_s, sparse = best_of_two()
switched_s, switched = best_of_two()
executed = 0
resolve = batched._Channel.resolve

def counting(self, tx_ids):
    global executed
    executed += 1
    return resolve(self, tx_ids)

with mock.patch.object(batched._Channel, "resolve", counting):
    engine.run_task(task)
print(json.dumps({
    "n": graph.n, "rounds": switched[2], "executed_rounds": executed,
    "dense_s": dense_s, "sparse_s": sparse_s, "switched_s": switched_s,
    "traces_equal": dense == sparse == switched,
}))
"""


def bench_large_rows(request):
    """One large instance per cell, channel forced dense, forced sparse, switched.

    Emits the ``large_rows`` section of BENCH_scaling.json: engine seconds
    per cell with the sparse branch forced off, forced on, and with the
    per-round choice, one interpreter per cell, plus the rounds simulated
    and the rounds the kernel executed (channel resolutions; the rest are
    silent rounds it jumped over).  Asserts equal traces, derived values and
    stop rounds in every cell; that switching beats forced-dense for real λ
    on every grid of at least 10⁵ nodes; that it beats forced-sparse on the
    TDMA grid, whose late rounds reach most nodes; and that the round-robin
    cell, whose 600 rounds all wait for the source's slot, executes at most
    2 of them.  With ``--quick`` the n = 10⁶ grid is skipped.
    """
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cells = list(LARGE_CELLS)
    if not request.config.getoption("--quick"):
        cells.append(LARGE_QUICK_SKIP)
    rows = []
    for scheme, family, n, budget in cells:
        out = subprocess.run(
            [sys.executable, "-c", _LARGE_PROBE, scheme, family, str(n), budget],
            env=env, check=True, capture_output=True, text=True,
        )
        cell = json.loads(out.stdout.strip().splitlines()[-1])
        assert cell["traces_equal"], (scheme, family, n)
        if scheme == "lambda" and family == "grid":
            assert cell["switched_s"] < cell["dense_s"], cell
        if scheme == "coloring_tdma":
            assert cell["switched_s"] < cell["sparse_s"], cell
        if scheme == "round_robin":
            assert cell["executed_rounds"] <= 2, cell
        rows.append({
            "scheme": scheme,
            "family": family,
            "n": cell["n"],
            "rounds": cell["rounds"],
            "executed_rounds": cell["executed_rounds"],
            "dense_s": round(cell["dense_s"], 3),
            "sparse_s": round(cell["sparse_s"], 3),
            "switched_s": round(cell["switched_s"], 3),
            "speedup": round(cell["dense_s"] / cell["switched_s"], 2),
            "traces_equal": cell["traces_equal"],
        })
    _merge_bench_json("large_rows", rows)
    report(
        "E10f — one large instance, channel forced dense / forced sparse / switched",
        format_table(rows) + f"\nwritten to {BENCH_JSON}",
    )


#: The cold grids of the repository benchmark's ``paper_cold`` and
#: ``small_sweep`` workloads (``perfbench/workloads.py``) at its default seed.
KERNEL_ROUNDS_GRIDS = {
    "paper_cold": dict(families=["gnp_sparse", "geometric"], sizes=[128, 256],
                       seeds_per_size=8, schemes=["lambda", "lambda_ack", "lambda_arb"]),
    "small_sweep": dict(families=["path", "gnp_sparse", "geometric", "grid"],
                        sizes=[32, 64], seeds_per_size=32,
                        schemes=["lambda", "lambda_ack", "round_robin"]),
}
KERNEL_ROUNDS_SEED = 2019


def _grid_batches(axes: dict) -> dict:
    """Each kernel's stacked task batches in one cold vectorized ``run_grid``."""
    from unittest import mock

    from repro.api import GridConfig, run_grid
    from repro.backends import batched

    kernels = dict(batched._BATCH_KERNELS)
    batches = {}

    def recording(protocol):
        def kernel(tasks):
            batches.setdefault(protocol, []).append(list(tasks))
            return kernels[protocol](tasks)
        return kernel

    with mock.patch.dict(batched._BATCH_KERNELS,
                         {protocol: recording(protocol) for protocol in kernels}):
        run_grid(GridConfig(**axes, base_seed=KERNEL_ROUNDS_SEED), backend="vectorized")
    return batches


def bench_kernel_rounds(request):
    """Executed rounds and cost per round of each stacked kernel.

    Emits the ``kernel_rounds`` section of BENCH_scaling.json.  For the
    stacked batches one cold ``run_grid`` of the ``paper_cold`` and
    ``small_sweep`` grids hands each kernel (seed 2019), it records per
    (grid, kernel): the rounds simulated (each batch runs to its instances'
    last stop round), the rounds executed (channel resolutions, counted by a
    spy on ``_Channel.resolve``; the others are silent rounds the kernel
    jumped over) and their jumped share, the kernel's milliseconds over all
    its batches (best of 5 passes, 1 with ``--quick``) and the µs per
    executed and per simulated round.  Asserts that no kernel executes more
    rounds than it simulates.
    """
    from unittest import mock

    from repro.backends import batched

    repeats = 1 if request.config.getoption("--quick") else 5
    rows = []
    for grid_name, axes in KERNEL_ROUNDS_GRIDS.items():
        for protocol, batches in _grid_batches(axes).items():
            kernel = batched._BATCH_KERNELS[protocol]
            executed = 0
            resolve = batched._Channel.resolve

            def counting(self, tx_ids):
                nonlocal executed
                executed += 1
                return resolve(self, tx_ids)

            with mock.patch.object(batched._Channel, "resolve", counting):
                simulated = sum(max(out.simulation.stop_round for out in kernel(tasks))
                                for tasks in batches)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                for tasks in batches:
                    kernel(tasks)
                best = min(best, time.perf_counter() - start)
            assert executed <= simulated, (grid_name, protocol, executed, simulated)
            rows.append({
                "grid": grid_name,
                "kernel": protocol,
                "batches": len(batches),
                "instances": sum(len(tasks) for tasks in batches),
                "simulated_rounds": simulated,
                "executed_rounds": executed,
                "jumped_share": round(1 - executed / simulated, 3),
                "kernel_ms": round(best * 1e3, 1),
                "us_per_executed_round": round(best * 1e6 / executed, 1),
                "us_per_simulated_round": round(best * 1e6 / simulated, 1),
            })
    _merge_bench_json("kernel_rounds", rows)
    report(
        "E10k — stacked kernels on the repository benchmark's cold grids: "
        "executed vs simulated rounds",
        format_table(rows) + f"\nwritten to {BENCH_JSON}",
    )


def bench_parallel_sweep_executor():
    """Multi-instance sweeps fan out over processes, results independent of jobs.

    The wall-clock speedup is asserted only on multi-core machines (process
    pools cannot beat serial execution on a single CPU); determinism is
    asserted everywhere.
    """
    import os

    from repro.api import GridConfig, run_grid

    cfg = GridConfig(families=["path"], sizes=[192], seeds_per_size=8,
                     schemes=["lambda"])
    cores = os.cpu_count() or 1
    jobs = min(4, cores)
    start = time.perf_counter()
    serial_rows = run_grid(cfg, jobs=1)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel_rows = run_grid(cfg, jobs=jobs)
    parallel_wall = time.perf_counter() - start
    assert parallel_rows == serial_rows, "rows must be independent of --jobs"
    if cores >= 4:
        assert parallel_wall < serial_wall / 2, (
            f"expected ~{jobs}x speedup on {cores} cores, got "
            f"{serial_wall / parallel_wall:.2f}x"
        )
    report(
        "E10c — parallel sweep executor",
        f"{len(serial_rows)} rows; jobs=1: {serial_wall:.2f}s, "
        f"jobs={jobs}: {parallel_wall:.2f}s on {cores} core(s); "
        f"rows identical: True",
    )


def bench_store_backed_sweep():
    """Cold vs warm store-backed sweep; emits the ``store_sweep`` section.

    The result store makes re-running a grid incremental by construction:
    the warm pass serves every row from the content-addressed store without
    a single backend invocation.  Asserted here with an invocation counter
    and reported as cold/warm wall clock so later PRs can track the store's
    overhead (key hashing + JSONL append) against the compute it saves.
    """
    import tempfile

    from repro.api import GridConfig, run_grid
    from repro.backends import ReferenceBackend
    from repro.store import ResultStore

    cfg = GridConfig(families=["path", "gnp_sparse"], sizes=[64, 128],
                     seeds_per_size=4, schemes=["lambda", "round_robin"])
    invocations = []
    original = ReferenceBackend.run_task

    def counting(self, task):
        invocations.append(1)
        return original(self, task)

    with tempfile.TemporaryDirectory() as tmp:
        ReferenceBackend.run_task = counting
        try:
            with ResultStore(Path(tmp) / "store") as store:
                start = time.perf_counter()
                cold_rows = run_grid(cfg, store=store)
                cold_wall = time.perf_counter() - start
                cold_calls = len(invocations)
                start = time.perf_counter()
                warm_rows = run_grid(cfg, store=store)
                warm_wall = time.perf_counter() - start
                warm_calls = len(invocations) - cold_calls
        finally:
            ReferenceBackend.run_task = original
    assert warm_rows == cold_rows, "warm rows must be bit-identical"
    assert cold_calls == len(cold_rows), "cold pass computes every cell"
    assert warm_calls == 0, "warm pass must not touch a backend"
    _merge_bench_json("store_sweep", [{
        "rows": len(cold_rows),
        "cold_seconds": round(cold_wall, 4),
        "warm_seconds": round(warm_wall, 4),
        "cold_backend_calls": cold_calls,
        "warm_backend_calls": warm_calls,
        "speedup": round(cold_wall / warm_wall, 1) if warm_wall else None,
    }])
    report(
        "E10d — store-backed resumable sweep",
        f"{len(cold_rows)} rows; cold: {cold_wall:.2f}s "
        f"({cold_calls} backend calls), warm: {warm_wall:.3f}s "
        f"(0 backend calls, 100% cache hits)",
    )


def bench_store_index(request):
    """Offset-indexed store opens and O(1) lookups at scale; ``store_index``.

    Builds a >=10^5-row store (2*10^4 under ``--quick``), then compares an
    indexed reopen (sidecar ``.idx`` offset maps, zero JSONL lines parsed)
    against a forced full rescan (``rebuild_index=True``, the pre-index code
    path), and measures warm random ``get``/``__contains__`` latency.  The
    numbers land in the ``store_index`` section so later PRs can track open
    time and lookup latency as stores grow.
    """
    import hashlib
    import random
    import tempfile

    from repro.analysis import RunMetrics
    from repro.store import ResultStore

    quick = request.config.getoption("--quick")
    n_rows = 20_000 if quick else 100_000
    row = RunMetrics(
        scheme="lambda", family="path", n=64, source_eccentricity=63,
        label_bits=2, distinct_labels=2, completion_round=125, bound=125,
        acknowledgement_round=None, transmissions=63, collisions=0,
        total_message_bits=2016,
    )
    keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n_rows)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        start = time.perf_counter()
        with ResultStore(root) as store:
            for key in keys:
                store.put(key, row)
        build_wall = time.perf_counter() - start

        cold_open = min(
            _timed(lambda: ResultStore(root, rebuild_index=True))
            for _ in range(3)
        )
        indexed_open = min(_timed(lambda: ResultStore(root)) for _ in range(3))

        store = ResultStore(root)
        described = store.describe()
        assert described["scanned_lines"] == 0, "open must be indexed"
        assert len(store) == n_rows
        sample = random.Random(0).sample(keys, 2000)
        contains_s = _timed(lambda: all(key in store for key in sample))
        lookups = _timed(lambda: [store.get(key) for key in sample])
        assert store.get(sample[0]) == row
        store.close()

    speedup = cold_open / indexed_open if indexed_open else float("inf")
    assert speedup >= 5, (
        f"indexed open must be well ahead of a full rescan "
        f"(cold {cold_open:.3f}s vs indexed {indexed_open:.3f}s)"
    )
    _merge_bench_json("store_index", [{
        "rows": n_rows,
        "segments": described["segments"],
        "build_seconds": round(build_wall, 3),
        "cold_open_seconds": round(cold_open, 4),
        "indexed_open_seconds": round(indexed_open, 4),
        "open_speedup": round(speedup, 1),
        "warm_get_us": round(lookups / len(sample) * 1e6, 2),
        "contains_us": round(contains_s / len(sample) * 1e6, 3),
    }])
    report(
        "E10e — offset-indexed store opens",
        f"{n_rows} rows / {described['segments']} segments; full rescan "
        f"open: {cold_open:.3f}s, indexed open: {indexed_open:.4f}s "
        f"({speedup:.0f}x); warm get: "
        f"{lookups / len(sample) * 1e6:.1f}us, contains: "
        f"{contains_s / len(sample) * 1e6:.2f}us per key",
    )


def bench_analytics_rows(request):
    """Columnar one-column aggregate vs full JSONL parse; ``analytics_rows``.

    Builds a >=10^5-row store (2*10^4 under ``--quick``), columnar-compacts a
    copy, then answers the same single-column aggregate from both: the JSONL
    path must ``json.loads`` every stored document before the first statistic
    exists, while the columnar path mmaps the segments and touches exactly one
    int64 column.  Acceptance: identical statistics and a >= 5x open+aggregate
    speedup for the columnar store.  The numbers land in the
    ``analytics_rows`` section so later PRs can track the analytics path as
    stores grow.
    """
    import hashlib
    import shutil
    import tempfile
    from dataclasses import replace

    from repro.analysis import RunMetrics
    from repro.store import ResultStore, compact_store

    quick = request.config.getoption("--quick")
    n_rows = 20_000 if quick else 100_000
    base = RunMetrics(
        scheme="lambda", family="path", n=64, source_eccentricity=63,
        label_bits=2, distinct_labels=2, completion_round=125, bound=125,
        acknowledgement_round=None, transmissions=63, collisions=0,
        total_message_bits=2016,
    )
    schemes = ("lambda", "round_robin")
    with tempfile.TemporaryDirectory() as tmp:
        jsonl_root = Path(tmp) / "jsonl"
        start = time.perf_counter()
        with ResultStore(jsonl_root) as store:
            for i in range(n_rows):
                key = hashlib.sha256(str(i).encode()).hexdigest()
                store.put(key, replace(
                    base, scheme=schemes[i % 2], n=32 * (1 + i % 4),
                    completion_round=100 + i % 50,
                ))
        build_wall = time.perf_counter() - start
        columnar_root = Path(tmp) / "columnar"
        shutil.copytree(jsonl_root, columnar_root)
        start = time.perf_counter()
        stats = compact_store(columnar_root, format="columnar")
        compact_wall = time.perf_counter() - start
        assert stats["segments_unconverted"] == 0

        def best_of(fn, repeats=3):
            best, out = float("inf"), None
            for _ in range(repeats):
                t0 = time.perf_counter()
                out = fn()
                best = min(best, time.perf_counter() - t0)
            return best, out

        def open_and_aggregate(root):
            with ResultStore(root) as store:
                return store.rows().aggregate("completion_round")

        jsonl_wall, jsonl_agg = best_of(lambda: open_and_aggregate(jsonl_root))
        col_wall, col_agg = best_of(lambda: open_and_aggregate(columnar_root))
        with ResultStore(columnar_root) as store:
            formats = store.describe()["formats"]

    assert col_agg == jsonl_agg, "both formats must answer identically"
    assert jsonl_agg["count"] == n_rows
    speedup = round(jsonl_wall / col_wall, 1)
    assert speedup >= 5.0, (
        f"columnar open+aggregate must be >= 5x the full JSONL parse at "
        f"{n_rows} rows, got {speedup}x ({col_wall:.3f}s vs {jsonl_wall:.3f}s)"
    )
    _merge_bench_json("analytics_rows", [{
        "rows": n_rows,
        "column": "completion_round",
        "build_seconds": round(build_wall, 3),
        "columnar_compact_seconds": round(compact_wall, 3),
        "jsonl_aggregate_seconds": round(jsonl_wall, 4),
        "columnar_aggregate_seconds": round(col_wall, 4),
        "speedup": speedup,
        "columnar_bytes": formats.get("columnar", {}).get("bytes", 0),
    }])
    report(
        "E10h — columnar analytics (one-column aggregate at scale)",
        f"{n_rows} rows; JSONL full parse: {jsonl_wall:.3f}s, columnar "
        f"open+aggregate: {col_wall:.4f}s ({speedup}x); compact to columnar "
        f"once: {compact_wall:.2f}s; written to {BENCH_JSON}",
    )


def bench_service_sweep(request):
    """A grid over the wire: coordinator + 2 workers; ``service_sweep``.

    The sweep-as-a-service topology end to end, in process: an asyncio
    coordinator on a real localhost socket, two workers, a blocking
    ``ServiceClient``.  The cold pass fans every cell out to the workers;
    the warm resubmission must be answered 100% from the coordinator's
    store with **zero backend invocations** (workers run thread pools in
    the harness precisely so a patched ``ReferenceBackend`` in this process
    counts every call), and both passes must be bit-identical to a local
    ``run_grid``.  Records rows/s over the wire for both passes and the
    per-row warm-serve latency; ``--quick`` shrinks the grid.
    """
    import tempfile

    from repro.api import GridConfig, run_grid
    from repro.backends import ReferenceBackend
    from repro.service import ServiceClient, ServiceHarness

    quick = request.config.getoption("--quick")
    cfg = GridConfig(
        families=["path", "gnp_sparse"],
        sizes=[32] if quick else [32, 64],
        seeds_per_size=2 if quick else 8,
        schemes=["lambda", "round_robin"],
    )
    invocations = []
    original = ReferenceBackend.run_task

    def counting(self, task):
        invocations.append(1)
        return original(self, task)

    with tempfile.TemporaryDirectory() as tmp:
        ReferenceBackend.run_task = counting
        try:
            with ServiceHarness(Path(tmp) / "svc", workers=2) as svc:
                with ServiceClient(svc.address) as client:
                    start = time.perf_counter()
                    cold_rows = client.submit(cfg)
                    cold_wall = time.perf_counter() - start
                    cold_calls = len(invocations)
                    start = time.perf_counter()
                    warm_rows = client.submit(cfg)
                    warm_wall = time.perf_counter() - start
                    warm_calls = len(invocations) - cold_calls
                    warm_summary = dict(client.last_summary)
        finally:
            ReferenceBackend.run_task = original
        local_rows = run_grid(cfg)

    total = len(cold_rows)
    assert list(cold_rows) == list(local_rows), "remote rows must equal local"
    assert list(warm_rows) == list(local_rows)
    assert cold_calls == total, "cold pass computes every cell via workers"
    assert warm_calls == 0, "warm pass must not touch a backend"
    assert warm_summary["computed"] == 0 and warm_summary["cached"] == total
    _merge_bench_json("service_sweep", [{
        "rows": total,
        "workers": 2,
        "cold_seconds": round(cold_wall, 4),
        "warm_seconds": round(warm_wall, 4),
        "cold_rows_per_sec": round(total / cold_wall, 1),
        "warm_rows_per_sec": round(total / warm_wall, 1),
        "warm_serve_us_per_row": round(warm_wall / total * 1e6, 1),
        "cold_backend_calls": cold_calls,
        "warm_backend_calls": warm_calls,
    }])
    report(
        "E10g — sweep-as-a-service (coordinator + 2 workers over localhost)",
        f"{total} rows; cold: {cold_wall:.2f}s "
        f"({total / cold_wall:.0f} rows/s over the wire, {cold_calls} backend "
        f"calls), warm: {warm_wall:.3f}s ({total / warm_wall:.0f} rows/s, "
        f"0 backend calls, {warm_wall / total * 1e6:.0f}us/row served "
        f"from cache)",
    )


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start
