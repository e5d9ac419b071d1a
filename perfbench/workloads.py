"""The benchmark's workloads, their row checks and their measured passes.

Every workload runs one grid through the public API in this process with
``jobs=1``.  A *pass* is one request for the whole grid, timed whole:

* ``paper_cold`` / ``small_sweep``: one ``run_grid`` into a fresh
  ``ResultStore``.
* ``warm_serve``: one ``ServiceClient.submit`` to a ``ServiceHarness`` whose
  store already holds every row (a closed loop with one client).

The box-speed probe of ``speed.py`` runs before the first pass and after
every pass, and each pass's times are rescaled by the mean of the probes on
either side of it.  A run reports medians over its rescaled passes, so how
many passes fit into a run does not bias them.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import speed
from repro.api import GridConfig, run_grid
from repro.service import ServiceClient, ServiceHarness
from repro.store import ResultStore

#: The seed the recorded row digests belong to (``GridConfig.base_seed``).
DEFAULT_SEED = 2019
#: The engine every workload requests.
BACKEND = "vectorized"
#: Label width each paper scheme must produce.
PAPER_LABEL_BITS = {"lambda": 2, "lambda_ack": 3, "lambda_arb": 3}
#: The column excluded from row digests: execution provenance, compare=False.
PROVENANCE_COLUMN = "backend"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    families: Tuple[str, ...]
    sizes: Tuple[int, ...]
    seeds_per_size: int
    schemes: Tuple[str, ...]
    serve: bool = False
    #: The workload whose recorded digest this one's rows must match.
    digest_of: Optional[str] = None

    def config(self, seed: int) -> GridConfig:
        return GridConfig(families=list(self.families), sizes=list(self.sizes),
                          seeds_per_size=self.seeds_per_size,
                          schemes=list(self.schemes), base_seed=int(seed))

    def smoke_config(self, seed: int) -> GridConfig:
        """One small instance per scheme: first calls without the grid's cost."""
        return GridConfig(families=[self.families[0]], sizes=[16],
                          seeds_per_size=1, schemes=list(self.schemes),
                          base_seed=int(seed))


_SMALL = dict(families=("path", "gnp_sparse", "geometric", "grid"),
              sizes=(32, 64), seeds_per_size=32,
              schemes=("lambda", "lambda_ack", "round_robin"))

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="paper_cold",
        why="the paper's three schemes on 96 rows at n=128/256, computed "
            "cold: the Section 2.1 construction (core) is the largest layer",
        families=("gnp_sparse", "geometric"), sizes=(128, 256),
        seeds_per_size=8, schemes=("lambda", "lambda_ack", "lambda_arb"),
    ),
    Workload(
        name="small_sweep",
        why="768 small rows computed cold: per-call engine overhead dominates "
            "and the store takes one put per row",
        **_SMALL,
    ),
    Workload(
        name="warm_serve",
        why="the small_sweep grid re-served from a full store over localhost: "
            "store reads plus the frame protocol, zero compute",
        serve=True, digest_of="small_sweep", **_SMALL,
    ),
)}


# --------------------------------------------------------------------------- #
# row checks
# --------------------------------------------------------------------------- #
def row_problems(row: Any, expected_scheme: str, expected_family: str) -> List[str]:
    """Every invariant one row breaks (empty when the row is correct)."""
    problems = []
    if row.status != "ok":
        problems.append(f"status {row.status!r}")
    if row.scheme != expected_scheme or row.family != expected_family:
        problems.append(f"row is {row.scheme}/{row.family}, expected "
                        f"{expected_scheme}/{expected_family}")
    bits = PAPER_LABEL_BITS.get(row.scheme)
    if bits is not None:
        if row.label_bits != bits:
            problems.append(f"label_bits {row.label_bits} != {bits}")
        bound = max(1, 2 * row.n - 3)
        if row.bound != bound:
            problems.append(f"bound {row.bound} != 2n-3 = {bound}")
        if row.completion_round is None or row.completion_round > bound:
            problems.append(f"completion_round {row.completion_round} "
                            f"exceeds 2n-3 = {bound}")
        if row.scheme == "lambda_ack" and row.acknowledgement_round is None:
            problems.append("lambda_ack row without acknowledgement_round")
    elif row.completion_round is None:
        problems.append("baseline row never completed")
    return problems


def failing_rows(rows: Sequence[Any], config: GridConfig) -> List[Tuple[int, List[str]]]:
    """``(index, problems)`` of every row breaking an invariant.

    A missing or extra row counts as failing too (index ``-1``).
    """
    from repro.api.grid import grid_row_specs

    units = grid_row_specs(config)
    out = []
    for index, (row, unit) in enumerate(zip(rows, units)):
        problems = row_problems(row, unit[5], unit[0])
        if problems:
            out.append((index, problems))
    if len(rows) != len(units):
        out.extend((-1, [f"{len(rows)} rows, expected {len(units)}"])
                   for _ in range(abs(len(units) - len(rows))))
    return out


def canonical_rows(rows: Sequence[Any]) -> List[Dict[str, Any]]:
    """Row dicts without the provenance column, in grid order."""
    out = []
    for row in rows:
        doc = asdict(row)
        doc.pop(PROVENANCE_COLUMN, None)
        out.append(doc)
    return out


def rows_digest(rows: Sequence[Any]) -> str:
    blob = json.dumps(canonical_rows(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def load_digests(path: Path) -> Dict[str, str]:
    """Recorded digests, keyed ``"<workload>@<seed>"``."""
    return json.loads(path.read_text())


class RowChecker:
    """Counts rows attempted and failed, and why.

    ``expected_digest`` is the recorded digest for this (workload, seed), or
    ``None`` for a held-out seed; then every pass must reproduce the first
    pass's digest instead.
    """

    def __init__(self, config: GridConfig, expected_digest: Optional[str]) -> None:
        from repro.api.grid import grid_row_specs

        self.config = config
        self.expected_rows = len(grid_row_specs(config))
        self.expected_digest = expected_digest
        self.attempted = 0
        self.failed = 0
        #: rows whose provenance names the requested engine
        self.native = 0
        self.problems: List[str] = []

    def check(self, rows: Sequence[Any], *, reference: Optional[Sequence[Any]] = None,
              computed: int = 0, label: str = "pass") -> int:
        """Check one pass's rows; returns how many failed.

        ``reference`` rows (warm serving) must be equal row by row;
        ``computed`` rows (served by computing instead of from the store)
        all count as failed.
        """
        expected = self.expected_rows
        failing = failing_rows(rows, self.config)
        bad = {index for index, _ in failing if index >= 0}
        missing = max(0, expected - len(rows))
        for index, problems in failing[:3]:
            self.note(f"{label}: row {index}: {'; '.join(problems)}")
        if reference is not None:
            differing = {i for i, (a, b) in enumerate(zip(rows, reference)) if a != b}
            if differing:
                self.note(f"{label}: {len(differing)} rows differ from the rows "
                          f"the setup wrote")
            bad |= differing
        digest = rows_digest(rows)
        if self.expected_digest is None:
            self.expected_digest = digest
        elif digest != self.expected_digest:
            self.note(f"{label}: row digest {digest[:16]} != expected "
                      f"{self.expected_digest[:16]}")
            bad = set(range(len(rows)))
        failed = min(expected, max(len(bad) + missing, computed))
        self.attempted += expected
        self.failed += failed
        self.native += sum(1 for row in rows if row.backend == BACKEND)
        return failed

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


# --------------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------------- #
@dataclass
class Passes:
    """Whole-pass timings of one measured phase, rescaled by box speed."""

    rows_per_pass: int
    #: (wall_s, cpu_s) per pass, in order
    times: List[Tuple[float, float]] = field(default_factory=list)
    #: (wall_s, cpu_s) of the speed probe before the first pass and after
    #: every pass
    speeds: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(w for w, _ in self.times)

    def samples(self) -> List[Tuple[float, float]]:
        """Per pass, its (wall, cpu) rescaled by the probes either side."""
        ref = speed.REFERENCE_SECONDS
        return [(wall * 2 * ref / (before[0] + after[0]),
                 cpu * 2 * ref / (before[1] + after[1]))
                for (wall, cpu), before, after
                in zip(self.times, self.speeds, self.speeds[1:])]

    def rows_per_s(self) -> float:
        return self.rows_per_pass / statistics.median(w for w, _ in self.samples())

    def cpu_ms_per_row(self) -> float:
        return 1000.0 * statistics.median(c for _, c in self.samples()) / self.rows_per_pass

    def latencies(self) -> List[float]:
        """Request latencies (s): a request is one pass."""
        return [wall for wall, _ in self.samples()]


def _clock() -> Tuple[float, float]:
    return time.perf_counter(), time.process_time()


def _timed_pass(passes: Passes, tracer: Any, body: Any, label: str) -> Any:
    start = _clock()
    if tracer is not None:
        result = tracer.call("bench.pass", "bench", body, (), {}, label)
    else:
        result = body()
    end = _clock()
    passes.times.append((end[0] - start[0], end[1] - start[1]))
    return result


def cold_pass(config: GridConfig, store_dir: Path, passes: Passes,
              checker: RowChecker, tracer: Any = None) -> None:
    """One cold ``run_grid`` of the whole grid into a fresh store."""

    def body() -> Any:
        with ResultStore(store_dir) as store:
            return run_grid(config, backend=BACKEND, jobs=1, store=store)

    rows = _timed_pass(passes, tracer, body, f"pass-{len(passes.times)}")
    checker.check(rows, label=f"pass {len(passes.times)}")
    shutil.rmtree(store_dir, ignore_errors=True)


class WarmService:
    """A harness over a filled store, one client connection, and the rows
    the fill wrote (the reference every served row must equal)."""

    def __init__(self, store_dir: Path, config: GridConfig,
                 reference: Sequence[Any]) -> None:
        self.store_dir = store_dir
        self.config = config
        self.reference = list(reference)
        self.harness: Optional[ServiceHarness] = None
        self.client: Optional[ServiceClient] = None

    @classmethod
    def over(cls, store_dir: Path, config: GridConfig) -> "WarmService":
        """A service over a store already filled with ``config``'s grid; the
        reference is the stored row of every grid key."""
        from repro.api.grid import grid_row_specs, grid_unit_key

        with ResultStore(store_dir) as store:
            rows = [store.get(grid_unit_key(config, unit, backend=BACKEND))
                    for unit in grid_row_specs(config)]
        missing = sum(1 for row in rows if row is None)
        if missing:
            raise RuntimeError(f"the fill left {missing} grid rows out of the store")
        return cls(store_dir, config, rows)

    def start(self) -> "WarmService":
        self.harness = ServiceHarness(self.store_dir, workers=2, backend=BACKEND)
        self.harness.start()
        self.client = ServiceClient(self.harness.address)
        return self

    def counters(self) -> Dict[str, int]:
        stats = self.harness.describe()
        return {"served_cached": int(stats["served_cached"]),
                "computed": int(stats["computed"])}

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.harness is not None:
            self.harness.stop()
            self.harness = None


def warm_pass(service: WarmService, passes: Passes, checker: RowChecker,
              tracer: Any = None) -> None:
    """One closed-loop submit of the whole grid to the warm service."""
    client = service.client

    def submit() -> Any:
        return client.submit(service.config, backend=BACKEND)

    body = submit
    if tracer is not None:
        def body() -> Any:
            return tracer.call("service.submit", "service", submit, (), {})
    rows = _timed_pass(passes, tracer, body, f"submit-{len(passes.times)}")
    computed = int(client.last_summary.get("computed", 0))
    if computed:
        checker.note(f"submit {len(passes.times)}: {computed} rows were "
                     f"computed instead of served from the store")
    checker.check(rows, reference=service.reference, computed=computed,
                  label=f"submit {len(passes.times)}")


def measure(passes: Passes, run_one: Any, seconds: float, min_passes: int) -> Passes:
    """Call ``run_one(passes)`` until ``seconds`` of wall time have gone by
    and there are at least ``min_passes``; probe the box's speed before the
    first pass and after every pass."""
    started = time.perf_counter()
    passes.speeds.append(speed.probe())
    while len(passes.times) < min_passes or time.perf_counter() - started < seconds:
        run_one(passes)
        passes.speeds.append(speed.probe())
    return passes


def quantile(samples: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples (never beyond the
    largest, which the default method does for a handful of samples)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
