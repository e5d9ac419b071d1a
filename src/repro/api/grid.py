"""Grid experiments: streaming, resumable sessions behind ``run_grid``.

A :class:`GridConfig` describes the sweep grid (families × sizes × seeds ×
schemes) plus two channel axes — **fault models** and **clock models**, as
declarative specs (see :mod:`repro.api.specs`).  The execution surface is
layered:

* :func:`iter_grid` is the streaming core: a generator yielding
  :class:`~repro.analysis.metrics.RunMetrics` rows as worker chunks complete
  — out of order across the pool by default, deterministically ordered with
  ``ordered=True`` — with ``on_cell`` / ``on_chunk`` progress callbacks
  instead of silent multi-minute blocking.  Handing it a
  :class:`~repro.store.ResultStore` makes the grid **incremental**: every
  cell whose content-addressed key (scheme, family, n, seed, source rule,
  payload, fault, clock, backend, trace level, schema version — see
  :mod:`repro.store.keys`) is already stored is served from disk, and every
  freshly computed row is flushed to the store before it is yielded, so an
  interrupted sweep resumes exactly where it died.
* :func:`run_grid` drains ``iter_grid(..., ordered=True)`` into a columnar
  :class:`~repro.store.ResultSet` (list-compatible, so existing consumers of
  the old ``List[RunMetrics]`` return type keep working).

The unit of work is one **row**: one scheme run on one
(family, size, rep, fault, clock) cell.  Row order is the stable sweep order
(instance → fault → clock → scheme) for any job count and chunk size; with
``jobs > 1`` cells fan out over a process pool as plain serializable specs
the workers rematerialize.

``strict=False`` records a failing cell as a row with an ``"error:..."``
status instead of aborting the sweep; in strict mode the failure surfaces as
a :class:`~repro.analysis.executor.GridExecutionError` naming the cell spec
*and* its store key.

One runner executes every unit: ``build_task`` → ``SimulationBackend.run_batch``
→ ``derive_outcome``, a window of consecutive whole instances at a time.
Units of a window sharing a (scheme, fault spec, clock spec, trace level)
compatibility key share one ``run_batch`` call — on the ``vectorized``
engine one block-diagonal kernel invocation — with rows guaranteed
identical to running them one by one.  One rule sets the windows: the
``vectorized`` engine stacks instances while their requested sizes sum to
at most :data:`STACK_NODES` (an instance that large runs alone), and every
other engine runs one instance per window.  A window's Section 2.1
constructions are built in stacked passes of at most
:data:`~repro.core.sequences.CONSTRUCTION_PASS_NODES` nodes, and a group's
tasks and results are released before the next group's engine call, so a
window's peak memory is its graphs, labels and constructions plus one
group's run.
"""

from __future__ import annotations

from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..analysis.metrics import RunMetrics, metrics_from_run
from ..analysis.sweep import instance_seed
from ..backends import BACKEND_NAMES, resolve_backend
from ..core.sequences import ConstructionCache
from ..graphs.generators import family_names
from ..graphs.properties import source_radius
from ..store import ResultSet, ResultStore, StoreError, unit_key
from .scenario import SOURCE_RULES
from .schemes import get_scheme, scheme_names
from .specs import (
    ClockSpec,
    FaultSpec,
    clock_model_from_spec,
    fault_model_from_spec,
    normalize_clock_spec,
    normalize_fault_spec,
    spec_label,
)

__all__ = [
    "GridConfig",
    "GridProgress",
    "STACK_NODES",
    "grid_cell_specs",
    "grid_row_specs",
    "grid_unit_key",
    "iter_grid",
    "run_grid",
]

#: One grid cell: ``(family, size, rep, fault_spec, clock_spec)`` — all plain
#: picklable data; workers rematerialize the graph and the channel models.
CellSpec = Tuple[str, int, int, Optional[Dict[str, Any]], Optional[Dict[str, Any]]]

#: One work unit — one row of the result: a cell plus the scheme to run on it.
UnitSpec = Tuple[str, int, int, Optional[Dict[str, Any]], Optional[Dict[str, Any]], str]


@dataclass
class GridConfig:
    """Declarative description of a grid experiment.

    ``families`` / ``sizes`` / ``seeds_per_size`` span the instances (see
    :func:`~repro.analysis.sweep.materialize_instance` for seeds and the
    ``source_rule``), ``schemes`` are registry names, ``faults`` / ``clocks``
    the channel-perturbation axes and ``payload`` the source message.  Every
    axis entry must be serializable spec data.  Malformed axes (a bare
    string, an unknown family, a size that is not a positive int, a
    negative seed count, an unknown source rule) raise :class:`ValueError`
    naming the field; values are stored as given.
    """

    families: Sequence[str]
    sizes: Sequence[int]
    seeds_per_size: int = 1
    schemes: Sequence[str] = ("lambda",)
    source_rule: Union[int, str] = "zero"
    base_seed: int = 2019
    faults: Sequence[FaultSpec] = (None,)
    clocks: Sequence[ClockSpec] = (None,)
    payload: Any = "MSG"

    def __post_init__(self) -> None:
        for name in ("families", "schemes", "sizes"):
            axis = getattr(self, name)
            if isinstance(axis, (str, bytes)) or not isinstance(axis, Sequence):
                raise ValueError(f"{name} must be a list, got {axis!r}")
        known = family_names()
        unknown = [f for f in self.families if f not in known]
        if unknown:
            raise ValueError(f"families: unknown {unknown}; known: {known}")
        bad = [s for s in self.sizes if not _is_int(s) or s < 1]
        if bad:
            raise ValueError(f"sizes must be positive ints, got {bad}")
        if not _is_int(self.seeds_per_size) or self.seeds_per_size < 0:
            raise ValueError(f"seeds_per_size must be an int >= 0, "
                             f"got {self.seeds_per_size!r}")
        rule = self.source_rule
        if rule not in SOURCE_RULES and not (_is_int(rule) and rule >= 0):
            raise ValueError(f"source_rule must be one of {SOURCE_RULES} or "
                             f"a node id, got {rule!r}")
        self.faults = tuple(normalize_fault_spec(f) for f in self.faults) or (None,)
        self.clocks = tuple(normalize_clock_spec(c) for c in self.clocks) or (None,)


def _is_int(value: Any) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def grid_cell_specs(config: GridConfig) -> List[CellSpec]:
    """Every grid cell in stable sweep order (instance → fault → clock)."""
    return [
        (family, size, rep, fault, clock)
        for family in config.families
        for size in config.sizes
        for rep in range(config.seeds_per_size)
        for fault in config.faults
        for clock in config.clocks
    ]


def grid_row_specs(config: GridConfig) -> List[UnitSpec]:
    """Every result row's work unit, in stable row order.

    Row order is instance → fault → clock → scheme: exactly the order
    ``run_grid`` rows come back in (and have since the unified API landed).
    """
    return [
        (family, size, rep, fault, clock, scheme)
        for family in config.families
        for size in config.sizes
        for rep in range(config.seeds_per_size)
        for fault in config.faults
        for clock in config.clocks
        for scheme in config.schemes
    ]


def grid_unit_key(
    config: GridConfig,
    unit: UnitSpec,
    *,
    backend: Any = None,
    trace_level: str = "summary",
) -> str:
    """The content-addressed result-store key of one grid row."""
    family, size, rep, fault_spec, clock_spec, scheme = unit
    return unit_key(
        scheme=scheme,
        family=family,
        size=size,
        seed=instance_seed(config.base_seed, family, size, rep),
        source_rule=config.source_rule,
        payload=config.payload,
        fault_spec=fault_spec,
        clock_spec=clock_spec,
        backend=backend,
        trace_level=trace_level,
    )


def _validate_schemes(config: GridConfig) -> None:
    unknown = [s for s in config.schemes if s not in scheme_names()]
    if unknown:
        raise ValueError(f"unknown schemes {unknown}; known: {scheme_names()}")


def _cell_error(
    exc: BaseException,
    scheme_name: str,
    instance: Any,
    fault_spec: Any,
    clock_spec: Any,
    store_key: Optional[str] = None,
):
    """Wrap a cell failure so it names the failing scenario spec.

    Workers ship whole chunks across the pool boundary; without this, a
    failure surfaces as a bare traceback with no hint of which
    (scheme, graph, seed) cell died.  ``store_key`` additionally names the
    result-store entry the cell would have filled, so store-backed sweeps
    can be resumed or diffed by key.
    """
    from ..analysis.executor import GridExecutionError  # local: avoids cycle

    fault_tag = spec_label(fault_spec, default="none")
    clock_tag = spec_label(clock_spec, default="sync")
    spec = {
        "scheme": scheme_name,
        "family": instance.family,
        "n": instance.n,
        "seed": instance.seed,
        "source": instance.source,
        "fault": fault_tag,
        "clock": clock_tag,
    }
    key_note = f" store_key={store_key}" if store_key else ""
    return GridExecutionError(
        f"grid cell failed: scheme={scheme_name!r} graph={instance.family}:"
        f"{instance.n} seed={instance.seed} source={instance.source} "
        f"fault={fault_tag!r} clock={clock_tag!r}:{key_note} "
        f"{type(exc).__name__}: {exc}",
        spec,
        store_key,
    )


def _failure_row(
    scheme_name: str,
    family: str,
    n: int,
    fault_spec: Any,
    clock_spec: Any,
    exc: BaseException,
) -> RunMetrics:
    """The ``strict=False`` record of a failed cell: zeroed measurements,
    ``status="error:<ExceptionName>"``."""
    return RunMetrics(
        scheme=scheme_name,
        family=family,
        n=int(n),
        source_eccentricity=0,
        label_bits=0,
        distinct_labels=0,
        completion_round=None,
        bound=None,
        acknowledgement_round=None,
        transmissions=0,
        collisions=0,
        total_message_bits=0,
        fault=spec_label(fault_spec, default="none"),
        clock=spec_label(clock_spec, default="sync"),
        status=f"error:{type(exc).__name__}",
    )


#: Requested nodes per stacked window.  The ``vectorized`` engine stacks
#: consecutive whole instances while their requested sizes sum to at most
#: this, so an instance this large or larger runs alone.  A kernel round
#: costs mostly NumPy dispatch, so a wider window runs fewer rounds per
#: row: on a 2-core box ``paper_cold``'s B_arb ran 2 batches and 173 rounds
#: of about 130 µs at 4096, against 12 batches and 686 rounds of about
#: 72 µs at 512, and took half the time.  8192 ran ``paper_cold`` about 5 %
#: faster again but put ``small_sweep``'s cold peak RSS about 5 % above
#: 512's (4096: +2.1 to +2.7 %), the benchmark's bound.  A window's graphs,
#: labels and constructions are alive together; its Section 2.1
#: constructions are built in passes of at most
#: :data:`~repro.core.sequences.CONSTRUCTION_PASS_NODES` nodes.
STACK_NODES = 4096


def _unit_windows(units: Sequence[UnitSpec], *, backend: Any) -> List[List[int]]:
    """Positions of ``units`` (in row order) split into windows of
    consecutive whole instances.

    The ``vectorized`` engine takes instances while their requested sizes
    sum to at most :data:`STACK_NODES`; every other engine takes one.
    """
    stacks = getattr(backend, "name", backend) == "vectorized"
    windows: List[List[int]] = []
    load = 0
    for _, group in groupby(range(len(units)), key=lambda i: units[i][:3]):
        positions = list(group)
        size = int(units[positions[0]][1])
        if not windows or not stacks or load + size > STACK_NODES:
            windows.append([])
            load = 0
        windows[-1].extend(positions)
        load += size
    return windows


def _run_units(
    config: GridConfig,
    units: Sequence[UnitSpec],
    *,
    backend: Any,
    trace_level: str,
    strict: bool = True,
    retries: int = 0,
) -> List[RunMetrics]:
    """Run a contiguous span of work units: the grid's one unit runner.

    Every unit goes ``build_task`` → ``run_batch`` → ``derive_outcome``, one
    window of whole instances at a time (see :func:`_unit_windows`): each
    instance is materialized once and peak memory stays bounded by the
    window.  Within a window, units sharing a (scheme, fault spec, clock
    spec) compatibility key share one ``run_batch`` call.  Rows come back in
    stable row order either way: backends guarantee stacked results are
    bit-identical to per-task execution.  ``backend=None`` is the reference
    engine.

    ``retries`` is one rule however many units share a call: a unit that
    fails anywhere from its labels to its row is re-run alone, with fresh
    fault/clock models, up to ``retries`` more times.  A unit that ran
    alone counts that run as its first try; a failed stacked batch replays
    each of its units alone on the full budget.  A deterministic failure
    fails again, a transient one (OOM, a signal) heals.  Then ``strict``
    applies: a :class:`~repro.analysis.executor.GridExecutionError` naming
    the unit's spec and store key, or an error-status row.
    """
    rows: List[RunMetrics] = []
    for window in _unit_windows(units, backend=backend):
        rows.extend(_run_unit_window(
            config, [units[i] for i in window], backend=backend,
            trace_level=trace_level, strict=strict, retries=retries))
    return rows


def _run_unit_window(
    config: GridConfig,
    units: Sequence[UnitSpec],
    *,
    backend: Any,
    trace_level: str,
    strict: bool,
    retries: int,
) -> List[RunMetrics]:
    """One window of :func:`_run_units`: materialize, group, run, derive."""
    from ..analysis.sweep import materialize_instance  # local: avoids cycle

    rows: List[Optional[RunMetrics]] = [None] * len(units)
    instances: Dict[Tuple[str, int, int], Any] = {}
    groups: Dict[Tuple[str, str, str], List[Tuple[int, UnitSpec]]] = {}
    # The window's Section 2.1 constructions: every root a unit labels from
    # is registered here and built in stacked passes of bounded size, all
    # inside the first labeler that asks for one.
    constructions = ConstructionCache()
    for index, unit in enumerate(units):
        ikey = unit[:3]
        if ikey not in instances:
            try:
                instances[ikey] = materialize_instance(config, *ikey)
            except Exception as exc:
                if strict:
                    raise
                instances[ikey] = exc
        if isinstance(instances[ikey], BaseException):
            rows[index] = _failure_row(unit[5], unit[0], unit[1], unit[3],
                                       unit[4], instances[ikey])
        else:
            groups.setdefault((unit[5], repr(unit[3]), repr(unit[4])),
                              []).append((index, unit))
            instance = instances[ikey]
            root = get_scheme(unit[5]).construction_root(instance.graph, instance.source)
            if root is not None and root in instance.graph:
                constructions.register(instance.graph, root)

    # Labels and schedules are pure functions of (graph, source, payload):
    # built once per (scheme, instance) and reused across its fault/clock
    # rows.  Through ``_constructions`` λ and λ_ack label from one
    # construction of the source and λ_arb from one of its coordinator;
    # ``payload`` reaches the one labeler sized by the payload (bit
    # signalling).  The other schemes swallow both.
    labels: Dict[Tuple[str, Tuple[str, int, int]], Any] = {}
    # The source's radius, one BFS per instance for all of its rows.
    radii: Dict[Tuple[str, int, int], int] = {}

    def task_of(unit: UnitSpec) -> Any:
        instance, scheme = instances[unit[:3]], get_scheme(unit[5])
        scheme.validate_source(instance.graph, instance.source)
        lkey = (unit[5], unit[:3])
        if lkey not in labels:
            labels[lkey] = scheme.build_labels(
                instance.graph, instance.source,
                payload=config.payload,
                _constructions=constructions,
                **scheme.grid_options(instance.graph, instance.source),
            )
        return scheme.build_task(
            instance.graph, labels[lkey], instance.source,
            payload=config.payload,
            max_rounds=scheme.default_budget(instance.graph, labels[lkey]),
            trace_level=trace_level,
            # Fresh model objects per run (and per retry): fault models
            # memoise coin flips, so sharing one would couple units.
            fault_model=fault_model_from_spec(unit[3]),
            clock_model=clock_model_from_spec(unit[4], instance.graph.n),
        )

    def row_of(unit: UnitSpec, task: Any, result: Any) -> RunMetrics:
        instance = instances[unit[:3]]
        outcome = get_scheme(unit[5]).derive_outcome(
            instance.graph, task, result, labels[unit[5], unit[:3]])
        if result.backend is not None:
            outcome.extras.setdefault("executed_by", result.backend)
        if unit[:3] not in radii:
            radii[unit[:3]] = source_radius(instance.graph, instance.source)
        return metrics_from_run(
            instance.graph, outcome, family=instance.family,
            source=instance.source,
            fault=spec_label(unit[3], default="none"),
            clock=spec_label(unit[4], default="sync"),
            source_eccentricity=radii[unit[:3]],
        )

    def run_batch(tasks: List[Any]) -> List[Any]:
        # Resolved per call, so a bad backend spec fails units like any
        # other unit failure.
        return resolve_backend(backend).run_batch(tasks)

    def retry_alone(index: int, unit: UnitSpec, error: Exception, tries: int) -> None:
        """Re-run a failed unit by itself up to ``tries`` times, then apply
        ``strict`` to its last error."""
        for _ in range(tries):
            try:
                task = task_of(unit)
                rows[index] = row_of(unit, task, run_batch([task])[0])
                return
            except Exception as exc:
                error = exc
        instance = instances[unit[:3]]
        if strict:
            raise _cell_error(
                error, unit[5], instance, unit[3], unit[4],
                grid_unit_key(config, unit, backend=backend,
                              trace_level=trace_level),
            ) from error
        rows[index] = _failure_row(unit[5], unit[0], instance.n, unit[3],
                                   unit[4], error)

    def run_group(members: List[Tuple[int, UnitSpec]]) -> None:
        built = []
        for index, unit in members:
            try:
                built.append((index, unit, task_of(unit)))
            except Exception as exc:
                retry_alone(index, unit, exc, retries)
        if not built:
            return
        try:
            results = run_batch([task for _, _, task in built])
        except Exception as exc:
            # A unit that ran alone has had its first try; the units of a
            # failed stacked batch each replay alone on the full budget.
            tries = retries if len(built) == 1 else retries + 1
            for index, unit, _ in built:
                retry_alone(index, unit, exc, tries)
            return
        for (index, unit, task), result in zip(built, results):
            try:
                rows[index] = row_of(unit, task, result)
            except Exception as exc:
                retry_alone(index, unit, exc, retries)

    # The window already caps how many instances share a call.  A group's
    # tasks and results (summary traces hold per-node dicts) die with its
    # call, so they are gone before the next group's kernel runs.
    for members in groups.values():
        run_group(members)
    return rows  # type: ignore[return-value]


#: One work unit chunk crossing the pool boundary: the grid config (as a
#: dict), a list of unit specs and the execution knobs — all plain picklable
#: data.
_ChunkPayload = Tuple[dict, List[UnitSpec], Optional[str], str, bool, int]


def _run_grid_chunk(payload: _ChunkPayload) -> List[RunMetrics]:
    """Worker entry point: rematerialize each unit's cell and run its scheme."""
    config_dict, chunk, backend, trace_level, strict, retries = payload
    return _run_units(GridConfig(**config_dict), chunk, backend=backend,
                      trace_level=trace_level, strict=strict, retries=retries)


@dataclass(frozen=True)
class GridProgress:
    """A progress snapshot handed to ``iter_grid``'s ``on_chunk`` callback.

    One snapshot is emitted before execution starts (announcing the plan:
    how many rows the store already holds) and one after every completed
    chunk.  ``computed_rows`` counts fresh successful rows, ``failed_rows``
    the error-status rows a non-strict sweep recorded.
    """

    total_rows: int
    cached_rows: int
    computed_rows: int = 0
    failed_rows: int = 0
    total_chunks: int = 0
    completed_chunks: int = 0

    @property
    def done_rows(self) -> int:
        """Rows available so far (cached + computed + failed)."""
        return self.cached_rows + self.computed_rows + self.failed_rows

    @property
    def remaining_rows(self) -> int:
        """Rows still to compute."""
        return self.total_rows - self.done_rows


def iter_grid(
    config: GridConfig,
    *,
    backend: Any = None,
    trace_level: str = "summary",
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    ordered: bool = False,
    store: Optional[ResultStore] = None,
    strict: bool = True,
    retries: int = 0,
    on_cell: Optional[Callable[[RunMetrics], None]] = None,
    on_chunk: Optional[Callable[[GridProgress], None]] = None,
) -> Iterator[RunMetrics]:
    """Stream grid rows as they complete instead of blocking for the full grid.

    Returns a generator over :class:`RunMetrics` rows.  By default rows are
    yielded **as soon as their chunk completes** — out of order across the
    pool — which makes the first rows observable long before the pool
    drains; ``ordered=True`` buffers just enough to emit rows in the stable
    grid order instead (the order ``run_grid`` returns).  At ``jobs=1`` a
    chunk is one window (see :func:`_unit_windows`), so rows stream window
    by window: per instance on the reference engine, per stack of small
    instances on the ``vectorized`` engine.  An unknown scheme or backend
    spec raises here, before any instance is built.

    Parameters beyond :func:`run_grid`'s:

    ordered:
        ``True`` yields rows in stable grid row order; ``False`` (default)
        yields them in completion order.
    store:
        A :class:`~repro.store.ResultStore`.  Rows whose content-addressed
        key is already stored are served from disk without touching a
        backend; every freshly computed ``"ok"`` row is flushed to the store
        *before* it is yielded, so interrupting the consumer (or the
        process) never loses completed work and a re-run resumes exactly
        where it died.  Error-status rows are never stored — a resumed sweep
        retries them.
    strict:
        ``True`` aborts on the first failing cell with a
        :class:`~repro.analysis.executor.GridExecutionError` (naming the
        cell spec and store key); ``False`` records failures as
        ``status="error:..."`` rows and keeps going.
    retries:
        Extra attempts for transient failures before the ``strict`` handling
        applies, at two levels: each failing *cell* is re-run alone with fresh
        fault/clock models (one rule however many units share an engine
        call; see :func:`_run_units`), and a chunk whose **pool worker
        process died** (``BrokenProcessPool`` — a kill -9, an OOM reap) is
        resubmitted to a rebuilt pool instead of aborting the sweep.
        Deterministic failures produce identical rows either way; the
        service path runs workers with ``retries=1`` and shares this
        accounting with the coordinator's lease expiry.  Default ``0``
        (historical behavior).
    on_cell:
        Called with each row right before it is yielded.
    on_chunk:
        Called with a :class:`GridProgress` snapshot before execution starts
        and after every completed chunk.
    """
    _validate_schemes(config)
    resolve_backend(backend)
    jobs = _default_jobs() if jobs is None else max(1, int(jobs))
    backend_name = backend if isinstance(backend, str) else getattr(backend, "name", None)
    if jobs > 1 and backend is not None and not isinstance(backend, str):
        if backend_name not in BACKEND_NAMES:
            raise ValueError(
                f"parallel sweeps need a registered backend name "
                f"{sorted(BACKEND_NAMES)}, got instance {backend!r} with name "
                f"{backend_name!r}; run with jobs=1 to use a custom backend object"
            )
        backend = backend_name
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    units = grid_row_specs(config)
    return _iter_grid_stream(
        config, units, backend=backend, trace_level=trace_level, jobs=jobs,
        chunk_size=chunk_size, ordered=ordered,
        store=store, strict=strict, retries=int(retries),
        on_cell=on_cell, on_chunk=on_chunk,
    )


def _default_jobs() -> int:
    from ..analysis.executor import default_jobs  # local: avoids cycle

    return default_jobs()


def _iter_grid_stream(
    config: GridConfig,
    units: List[UnitSpec],
    *,
    backend: Any,
    trace_level: str,
    jobs: int,
    chunk_size: Optional[int],
    ordered: bool,
    store: Optional[ResultStore],
    strict: bool,
    retries: int,
    on_cell: Optional[Callable[[RunMetrics], None]],
    on_chunk: Optional[Callable[[GridProgress], None]],
) -> Iterator[RunMetrics]:
    """The generator behind :func:`iter_grid` (validation happens eagerly)."""
    from ..analysis.executor import chunk_specs  # local: avoids cycle

    # Membership only (one O(1) index hit per cell): cached rows are fetched
    # lazily at emission time, so a mostly-warm million-cell sweep never
    # materializes every cached row up front.
    keys: List[Optional[str]] = [None] * len(units)
    cached: Set[int] = set()
    if store is not None:
        for i, unit in enumerate(units):
            keys[i] = grid_unit_key(config, unit, backend=backend,
                                    trace_level=trace_level)
            if keys[i] in store:
                cached.add(i)
    pending = [i for i in range(len(units)) if i not in cached]

    if chunk_size is None and jobs == 1:
        # Stream per window: the first rows surface after the first window,
        # and each scheme's labels are still built once per instance.
        index_chunks = [
            [pending[j] for j in window]
            for window in _unit_windows([units[i] for i in pending],
                                        backend=backend)
        ]
    else:
        if chunk_size is None:
            chunk_size = max(1, (len(pending) + jobs * 4 - 1) // (jobs * 4))
        index_chunks = chunk_specs(pending, chunk_size) if pending else []

    progress = GridProgress(
        total_rows=len(units),
        cached_rows=len(cached),
        total_chunks=len(index_chunks),
    )
    if on_chunk:
        on_chunk(progress)

    buffer: Dict[int, RunMetrics] = {}
    next_emit = 0

    def _persist_and_stage(indices: Sequence[int], rows: Sequence[RunMetrics]):
        nonlocal progress
        computed = failed = 0
        for i, row in zip(indices, rows):
            if row.status == "ok":
                computed += 1
                if store is not None:
                    store.put(keys[i], row)
            else:
                failed += 1
            buffer[i] = row
        progress = replace(
            progress,
            computed_rows=progress.computed_rows + computed,
            failed_rows=progress.failed_rows + failed,
            completed_chunks=progress.completed_chunks + 1,
        )

    def _fetch_cached(i: int) -> RunMetrics:
        row = store.get(keys[i])
        if row is None:
            raise StoreError(
                f"row for cached cell {keys[i]} vanished from {store.root} "
                f"mid-sweep (store modified concurrently?)"
            )
        return row

    def _drain() -> List[RunMetrics]:
        nonlocal next_emit
        out: List[RunMetrics] = []
        if ordered:
            while True:
                if next_emit in cached:
                    cached.discard(next_emit)
                    out.append(_fetch_cached(next_emit))
                elif next_emit in buffer:
                    out.append(buffer.pop(next_emit))
                else:
                    break
                next_emit += 1
        else:
            for i in sorted(cached):
                out.append(_fetch_cached(i))
            cached.clear()
            for i in sorted(buffer):
                out.append(buffer.pop(i))
        return out

    for row in _drain():
        if on_cell:
            on_cell(row)
        yield row

    if not index_chunks:
        return

    payloads: List[_ChunkPayload] = [
        (asdict(config), [units[i] for i in chunk], backend, trace_level,
         strict, retries)
        for chunk in index_chunks
    ]

    if min(jobs, len(index_chunks)) <= 1:
        for chunk, payload in zip(index_chunks, payloads):
            _persist_and_stage(chunk, _run_grid_chunk(payload))
            if on_chunk:
                on_chunk(progress)
            for row in _drain():
                if on_cell:
                    on_cell(row)
                yield row
        return

    workers = min(jobs, len(index_chunks))
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        futures: Dict[Any, Tuple[List[int], _ChunkPayload, int]] = {
            pool.submit(_run_grid_chunk, payload): (chunk, payload, 0)
            for chunk, payload in zip(index_chunks, payloads)
        }
        outstanding = set(futures)
        while outstanding:
            done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            # Persist every successful chunk of this wave before surfacing a
            # failure: completed work survives into the store even when a
            # sibling chunk kills the sweep.
            first_error: Optional[BaseException] = None
            broken: List[Tuple[List[int], _ChunkPayload, int]] = []
            pool_error: Optional[BaseException] = None
            for future in done:
                error = future.exception()
                if error is None:
                    chunk, _payload, _attempt = futures.pop(future)
                    _persist_and_stage(chunk, future.result())
                    if on_chunk:
                        on_chunk(progress)
                elif isinstance(error, BrokenExecutor):
                    broken.append(futures.pop(future))
                    pool_error = error
                else:
                    first_error = first_error or error
            if first_error is not None:
                raise first_error
            if broken:
                # A pool worker process died (kill -9, OOM reap): the
                # executor is broken and every outstanding future fails with
                # the same BrokenProcessPool.  Drain them all, then rebuild
                # the pool and resubmit each lost chunk — one consumed
                # attempt per chunk, the same accounting the service
                # coordinator applies to an expired lease.
                for future in wait(outstanding)[0]:
                    error = future.exception()
                    if error is None:
                        chunk, _payload, _attempt = futures.pop(future)
                        _persist_and_stage(chunk, future.result())
                        if on_chunk:
                            on_chunk(progress)
                    else:
                        broken.append(futures.pop(future))
                outstanding = set()
                exhausted = [item for item in broken if item[2] >= retries]
                survivors = [item for item in broken if item[2] < retries]
                if exhausted and strict:
                    raise pool_error  # type: ignore[misc]
                for chunk, _payload, _attempt in exhausted:
                    _persist_and_stage(chunk, [
                        _failure_row(units[i][5], units[i][0], units[i][1],
                                     units[i][3], units[i][4], pool_error)
                        for i in chunk
                    ])
                    if on_chunk:
                        on_chunk(progress)
                pool.shutdown(wait=False, cancel_futures=True)
                if survivors:
                    pool = ProcessPoolExecutor(max_workers=workers)
                    for chunk, payload, attempt in survivors:
                        future = pool.submit(_run_grid_chunk, payload)
                        futures[future] = (chunk, payload, attempt + 1)
                        outstanding.add(future)
            for row in _drain():
                if on_cell:
                    on_cell(row)
                yield row
    finally:
        # Reached on exhaustion, on a worker failure and when the consumer
        # closes the generator mid-sweep ("the crash at cell 9,000"): any
        # rows already persisted stay persisted, unfinished chunks are
        # cancelled.
        pool.shutdown(wait=True, cancel_futures=True)


def run_grid(
    config: GridConfig,
    *,
    backend: Any = None,
    trace_level: str = "summary",
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    store: Optional[ResultStore] = None,
    strict: bool = True,
    retries: int = 0,
    on_cell: Optional[Callable[[RunMetrics], None]] = None,
    on_chunk: Optional[Callable[[GridProgress], None]] = None,
) -> ResultSet:
    """Run every configured scheme over every grid cell and return all rows.

    Drains :func:`iter_grid` in stable order into a columnar
    :class:`~repro.store.ResultSet` (list-compatible with the historical
    ``List[RunMetrics]`` return type).

    Parameters
    ----------
    config:
        The experiment grid (including the fault/clock axes).
    backend / trace_level:
        Forwarded to every scheme run.  For parallel execution ``backend``
        must be a registry name (or an instance of a registered backend
        class, reduced to its name): only plain data crosses the process
        boundary.
    jobs:
        Worker process count.  ``1`` runs inline; ``None`` uses the CPU
        count.  Rows come back in the same stable order for any job count.
    chunk_size:
        Work units per pool chunk; defaults to one window per chunk at
        ``jobs=1`` and ~4 chunks per worker otherwise.  On the
        ``vectorized`` engine a window stacks consecutive instances while
        their requested sizes sum to at most :data:`STACK_NODES` (an
        instance that large runs alone), and the work units of a window
        sharing (scheme, fault, clock, trace level) run as one
        block-diagonal kernel invocation; every other engine runs one
        instance per window.  Rows are identical either way.
    store:
        A :class:`~repro.store.ResultStore` making the grid incremental:
        already-stored cells are served from disk, fresh rows are flushed as
        they complete, and an interrupted run resumes where it died.
    strict:
        ``False`` records failing cells as ``status="error:..."`` rows
        instead of aborting (see :func:`iter_grid`).
    retries:
        Extra attempts for transiently failing cells and for chunks lost to
        a died pool worker process (see :func:`iter_grid`).
    on_cell / on_chunk:
        Progress callbacks (see :func:`iter_grid`).
    """
    return ResultSet(
        iter_grid(
            config,
            backend=backend,
            trace_level=trace_level,
            jobs=jobs,
            chunk_size=chunk_size,
            ordered=True,
            store=store,
            strict=strict,
            retries=retries,
            on_cell=on_cell,
            on_chunk=on_chunk,
        )
    )
