"""Command-line interface: run the paper's pipeline without writing Python.

Installed as ``python -m repro`` (see :mod:`repro.__main__`).  Subcommands:

* ``label``      — compute λ / λ_ack / λ_arb for a graph and print the labels;
* ``broadcast``  — label and simulate one broadcast, print the outcome and the
  Figure-1 style rendering;
* ``run``        — execute a declarative scenario JSON file with any
  registered scheme (``repro run scenario.json``);
* ``schemes``    — list the scheme registry (``--json`` for a machine-readable
  dump with backend coverage);
* ``figure1``    — print the Figure 1 reproduction;
* ``sweep``      — run a scheme/family grid (optionally with fault/clock
  axes and parallel workers) and print a table, JSON or CSV.  With
  ``--store DIR`` the sweep is an incremental session: completed cells land
  in a content-addressed result store as they finish, already-stored cells
  are never recomputed, and ``--resume`` picks an interrupted sweep up
  exactly where it died; ``--keep-going`` records failing cells as
  status rows instead of aborting;
* ``results``    — filter/export the rows of a result store directory;
* ``serve``      — run the sweep-as-a-service coordinator over a result
  store (``repro serve DIR --listen HOST:PORT``): submissions are expanded
  into content-addressed cells, cached cells are served from the store at
  in-memory latency, the rest fan out to connected workers;
* ``worker``     — join a coordinator as a compute worker
  (``repro worker HOST:PORT --backend ... --jobs N``);
* ``submit``     — submit a grid JSON file to a coordinator and stream the
  rows back (``repro submit grid.json --connect HOST:PORT``);
* ``query``      — stream stored rows from a coordinator by key or filters.

Graphs are specified either as a generator expression ``family:n[:seed]``
(e.g. ``grid:25``, ``geometric:60:7``) or as a path to an edge-list file
produced by :func:`repro.graphs.save_edge_list`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis import (
    format_aggregate_table,
    format_metrics_table,
    metrics_from_run,
    metrics_to_csv,
    metrics_to_json,
)
from .analysis.report import aggregate_to_dicts
from .analysis.stream import (
    aggregate_result_set,
    filter_result_set,
    resolve_group_columns,
    status_matches,
    stream_aggregate,
)
from .api import (
    GridConfig,
    Scenario,
    get_scheme,
    graph_from_spec,
    normalize_clock_spec,
    normalize_fault_spec,
    run_grid,
    scheme_backend_coverage,
    scheme_names,
    spec_label,
)
from .api import run as run_scenario
from .api.grid import STACK_NODES
from .backends import BACKEND_NAMES, BackendError, resolve_backend
from .store import ResultStore, StoreError, compact_store
from .core import (
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
    verify_broadcast_outcome,
)
from .graphs import Graph
from .viz import figure1_report, render_labeled_layers, transmit_receive_maps

__all__ = ["main", "build_parser", "parse_graph_spec"]


def parse_graph_spec(spec: str) -> Graph:
    """Parse ``family:n[:seed]`` or an edge-list file path into a graph.

    Argparse-friendly wrapper over :func:`repro.api.graph_from_spec`: size and
    seed are validated up front (positive integer size, integer seed), so a
    malformed spec fails with one clear usage error instead of a traceback
    from inside a generator.
    """
    try:
        return graph_from_spec(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_fault_arg(text: str):
    """Argparse type for ``--faults``: validate the shorthand up front."""
    try:
        return normalize_fault_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_clock_arg(text: str):
    """Argparse type for ``--clocks``: validate the shorthand up front."""
    try:
        return normalize_clock_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_backend_arg(text: str) -> str:
    """Argparse type for ``--backend``: any spec ``resolve_backend`` accepts.

    The spec is validated by actually resolving it, so the error message is
    the resolver's, listing every valid spec.
    """
    try:
        resolve_backend(text)
    except BackendError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    label = sub.add_parser("label", help="compute a labeling scheme and print the labels")
    label.add_argument("graph", type=parse_graph_spec)
    label.add_argument("--scheme", choices=["lambda", "lambda_ack", "lambda_arb"],
                       default="lambda")
    label.add_argument("--source", type=int, default=0)

    bcast = sub.add_parser("broadcast", help="label a graph and simulate one broadcast")
    bcast.add_argument("graph", type=parse_graph_spec)
    bcast.add_argument("--scheme", choices=["lambda", "lambda_ack", "lambda_arb"],
                       default="lambda")
    bcast.add_argument("--source", type=int, default=0)
    bcast.add_argument("--payload", default="MSG")
    bcast.add_argument("--backend", type=_parse_backend_arg, metavar="SPEC",
                       default="reference",
                       help=f"simulation engine spec, one of: {', '.join(BACKEND_NAMES)} "
                            f"(vectorized = NumPy CSR kernels, at any size)")
    bcast.add_argument("--render", action="store_true",
                       help="print the Figure-1 style annotated layers")

    runp = sub.add_parser(
        "run", help="execute a declarative scenario JSON file (any registered scheme)"
    )
    runp.add_argument("scenario", help="path to a scenario JSON file (see repro.api.Scenario)")
    runp.add_argument("--scheme", default=None,
                      help="override the scenario's scheme (see `repro schemes`)")
    runp.add_argument("--backend", type=_parse_backend_arg, metavar="SPEC", default=None,
                      help=f"override the scenario's backend "
                           f"(one of: {', '.join(BACKEND_NAMES)})")
    runp.add_argument("--trace-level", choices=["none", "summary", "full"], default=None,
                      help="override the scenario's trace level")
    runp.add_argument("--output", choices=["text", "json"], default="text",
                      help="text summary or a machine-readable JSON metrics row")

    schemes = sub.add_parser("schemes", help="list the registered schemes")
    schemes.add_argument("--json", action="store_true",
                         help="emit the registry as JSON (name, kind, "
                              "description, native backend coverage) for "
                              "tooling that builds grids programmatically")

    sub.add_parser("figure1", help="print the Figure 1 reproduction")

    sweep = sub.add_parser(
        "sweep",
        help="run a scheme/family grid (with optional fault/clock axes) "
             "and print a table, JSON or CSV",
    )
    sweep.add_argument("--families", nargs="+", default=["path", "grid", "gnp_sparse"])
    sweep.add_argument("--sizes", nargs="+", type=int, default=[16, 32])
    sweep.add_argument("--schemes", nargs="+", default=["lambda", "round_robin"],
                       help=f"registered scheme names: {scheme_names()}")
    sweep.add_argument("--seeds-per-size", type=int, default=1)
    sweep.add_argument("--source-rule", choices=["zero", "last", "center-ish"],
                       default="zero")
    sweep.add_argument("--base-seed", type=int, default=2019)
    sweep.add_argument("--faults", nargs="+", type=_parse_fault_arg, default=["none"],
                       help="fault-model axis, e.g. none drop:0.1:7 crash:3@5")
    sweep.add_argument("--clocks", nargs="+", type=_parse_clock_arg, default=["sync"],
                       help="clock-model axis, e.g. sync offset:3 random_offsets:50:9")
    sweep.add_argument("--payload", default="MSG")
    sweep.add_argument("--backend", type=_parse_backend_arg, metavar="SPEC",
                       default="reference",
                       help=f"simulation engine spec, one of: {', '.join(BACKEND_NAMES)} "
                            f"(vectorized = NumPy CSR kernels at any size, "
                            f"stacking consecutive instances up to "
                            f"{STACK_NODES} requested nodes into one kernel "
                            f"call; an instance that large runs alone); "
                            f"default: reference")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (results are "
                            "deterministic and independent of the job count)")
    sweep.add_argument("--trace-level", choices=["none", "summary", "full"],
                       default="summary",
                       help="trace recording level for each simulation")
    sweep.add_argument("--output", choices=["table", "json", "csv"], default="table",
                       help="output format for the metric rows")
    sweep.add_argument("--store", metavar="DIR", default=None,
                       help="content-addressed result store: completed cells "
                            "are appended as they finish and already-stored "
                            "cells are served from disk, so re-running the "
                            "same sweep is incremental by construction")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep: requires --store "
                            "and an existing store directory (a typo'd path "
                            "fails instead of silently starting cold)")
    sweep.add_argument("--keep-going", action="store_true",
                       help="record failing cells as rows with an "
                            "'error:...' status column instead of aborting "
                            "the whole sweep (exit code 1 if any cell failed)")
    sweep.add_argument("--retries", type=int, default=0,
                       help="extra attempts for transiently failing cells "
                            "and for chunks lost to a died pool worker "
                            "process before the failure counts (default 0; "
                            "service workers default to 1)")
    sweep.add_argument("--progress", action="store_true",
                       help="print per-chunk progress to stderr while the "
                            "sweep runs")

    results = sub.add_parser(
        "results",
        help="filter/export the rows of a result store directory "
             "(see sweep --store)",
    )
    results.add_argument("store", metavar="DIR", help="result store directory")
    results.add_argument("--schemes", nargs="+", default=None,
                         help="keep only these schemes")
    results.add_argument("--families", nargs="+", default=None,
                         help="keep only these graph families")
    results.add_argument("--sizes", nargs="+", type=int, default=None,
                         help="keep only these graph sizes")
    results.add_argument("--status", default=None,
                         help="keep only rows with this status (e.g. ok, a "
                              "full error:... tag, or the bare class "
                              "'error' matching every error:... row)")
    results.add_argument("--agg", metavar="COLUMN", default=None,
                         help="aggregate this numeric column instead of "
                              "printing rows (count/mean/std/min/p05/median/"
                              "p95/max; aliases: rounds, acks, bits)")
    results.add_argument("--by", metavar="COLUMNS", default=None,
                         help="comma-separated grouping columns for --agg "
                              "(e.g. scheme,n)")
    results.add_argument("--ci", action="store_true",
                         help="add a seeded bootstrap 95%% confidence "
                              "interval of the mean to --agg output")
    results.add_argument("--stream", action="store_true",
                         help="aggregate in one streaming pass over the "
                              "store (O(groups) memory) instead of the "
                              "columnar path; same numbers")
    results.add_argument("--output", choices=["table", "json", "csv", "jsonl"],
                         default="table", help="output format for the rows")

    store = sub.add_parser(
        "store",
        help="maintain a result store directory (compact segments, "
             "inspect counters)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    compact = store_sub.add_parser(
        "compact",
        help="garbage-collect the store in place: drop duplicate-key, "
             "retired-schema and torn-tail lines, rewrite segments "
             "atomically and refresh the offset indexes",
    )
    compact.add_argument("store", metavar="DIR", help="result store directory")
    compact.add_argument("--format", choices=["jsonl", "columnar"],
                         default="jsonl",
                         help="on-disk format compaction leaves behind: "
                              "jsonl (default; expands columnar segments "
                              "back to lines) or columnar (binary column "
                              "blocks for mmap-lazy analytics; appends "
                              "still land in JSONL beside them)")
    describe = store_sub.add_parser(
        "describe",
        help="print the store's summary counters as JSON (rows, segments, "
             "skipped/stale lines, lines parsed by this open)",
    )
    describe.add_argument("store", metavar="DIR", help="result store directory")

    serve = sub.add_parser(
        "serve",
        help="run the sweep coordinator: serve cached rows from a result "
             "store and fan uncached cells out to connected workers",
    )
    serve.add_argument("store", metavar="DIR",
                       help="result store directory (created if missing); "
                            "the coordinator is its single writer")
    serve.add_argument("--listen", metavar="HOST:PORT", default="127.0.0.1:0",
                       help="bind address (port 0 picks a free port; the "
                            "bound address is printed to stderr)")
    serve.add_argument("--lease-seconds", type=float, default=120.0,
                       help="how long a dispatched cell may stay unanswered "
                            "before it is re-queued to another worker")
    serve.add_argument("--heartbeat-grace", type=float, default=45.0,
                       help="drop a worker silent for longer than this "
                            "(its leased cells are re-queued)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="total tries a cell gets across re-queues "
                            "before it is reported failed")

    worker = sub.add_parser(
        "worker",
        help="join a coordinator as a compute worker: rematerialize cells "
             "from their specs and ship (key, row) docs back",
    )
    worker.add_argument("connect", metavar="HOST:PORT",
                        help="coordinator address (as printed by repro serve)")
    worker.add_argument("--backend", type=_parse_backend_arg, metavar="SPEC",
                        default=None,
                        help=f"run every cell on this engine (one of: "
                             f"{', '.join(BACKEND_NAMES)}); default: whatever "
                             f"each submission requests (execution only — "
                             f"store keys come from the submission)")
    worker.add_argument("--jobs", type=int, default=1,
                        help="cells this worker runs concurrently "
                             "(a process pool; also its advertised slots)")
    worker.add_argument("--retries", type=int, default=1,
                        help="per-cell retry for transient failures before "
                             "an error row is returned (default 1)")
    worker.add_argument("--name", default="",
                        help="worker name shown in coordinator diagnostics")

    submit = sub.add_parser(
        "submit",
        help="submit a grid JSON file to a coordinator and stream the rows "
             "back (cached cells never recompute)",
    )
    submit.add_argument("grid", metavar="GRID_JSON",
                        help="path to a JSON object of GridConfig fields "
                             "(families, sizes, schemes, faults, clocks, ...)")
    submit.add_argument("--connect", metavar="HOST:PORT", required=True,
                        help="coordinator address")
    submit.add_argument("--backend", type=_parse_backend_arg, metavar="SPEC",
                        default=None,
                        help="requested engine (part of the store key, like "
                             "a local sweep's --backend)")
    submit.add_argument("--trace-level", choices=["none", "summary", "full"],
                        default="summary")
    submit.add_argument("--keep-going", action="store_true",
                        help="accept error-status rows for cells that "
                             "failed every attempt instead of aborting")
    submit.add_argument("--output", choices=["table", "json", "csv"],
                        default="table")

    query = sub.add_parser(
        "query",
        help="stream stored rows from a coordinator by key or filters "
             "(the remote counterpart of `repro results`)",
    )
    query.add_argument("--connect", metavar="HOST:PORT", required=True,
                       help="coordinator address")
    query.add_argument("--key", default=None,
                       help="exact content-addressed row key (O(1) lookup)")
    query.add_argument("--schemes", nargs="+", default=None)
    query.add_argument("--families", nargs="+", default=None)
    query.add_argument("--sizes", nargs="+", type=int, default=None)
    query.add_argument("--status", default=None,
                       help="filter by status (a bare 'error' matches every "
                            "error:... tag)")
    query.add_argument("--agg", metavar="COLUMN", default=None,
                       help="ask the coordinator for per-group statistics "
                            "of this column instead of streaming rows "
                            "(aliases: rounds, acks, bits)")
    query.add_argument("--by", metavar="COLUMNS", default=None,
                       help="comma-separated grouping columns for --agg "
                            "(e.g. scheme,n)")
    query.add_argument("--ci", action="store_true",
                       help="add a bootstrap 95%% confidence interval to "
                            "--agg output")
    query.add_argument("--output", choices=["table", "json", "csv", "jsonl"],
                       default="table")

    return parser


def _cmd_label(args) -> int:
    graph = args.graph
    if args.scheme == "lambda":
        lab = lambda_scheme(graph, args.source)
    elif args.scheme == "lambda_ack":
        lab = lambda_ack_scheme(graph, args.source)
    else:
        lab = lambda_arb_scheme(graph, coordinator=args.source)
    print(f"# scheme={lab.scheme} length={lab.length} bits "
          f"distinct={lab.num_distinct_labels()}")
    for v in graph.nodes():
        print(f"{v} {lab.labels[v]}")
    return 0


def _cmd_broadcast(args) -> int:
    graph = args.graph
    outcome = get_scheme(args.scheme).run(graph, args.source, payload=args.payload,
                                          backend=args.backend)
    print(f"graph: {graph.summary()}")
    print(f"scheme: {outcome.scheme} ({outcome.label_bits} bits)")
    print(f"completion round: {outcome.completion_round} (bound {outcome.bound_broadcast})")
    if outcome.acknowledgement_round is not None:
        print(f"acknowledgement round: {outcome.acknowledgement_round}")
    if outcome.common_completion_round is not None:
        print(f"common completion round: {outcome.common_completion_round}")
    violations = verify_broadcast_outcome(graph, outcome)
    print(f"verification: {'PASS' if not violations else violations}")
    if args.render:
        tx, rx = transmit_receive_maps(outcome.trace)
        source = args.source if outcome.labeling.source is not None else (
            outcome.labeling.coordinator or 0
        )
        print(render_labeled_layers(graph, source, outcome.labeling.labels,
                                    transmit_rounds=tx, receive_rounds=rx))
    return 0 if not violations else 1


def _cmd_run(args) -> int:
    scenario = Scenario.load(args.scenario)
    graph = scenario.materialize_graph()
    source = scenario.resolve_source(graph)
    outcome = run_scenario(scenario, scheme=args.scheme, backend=args.backend,
                           trace_level=args.trace_level, graph=graph, source=source)
    if args.output == "json":
        row = metrics_from_run(
            graph, outcome, family=scenario.family, source=source,
            fault=spec_label(scenario.faults, default="none"),
            clock=spec_label(scenario.clock, default="sync"),
        )
        print(metrics_to_json([row]))
    else:
        print(f"scenario: {args.scenario}")
        print(f"graph: {graph.summary()}")
        print(f"scheme: {outcome.scheme} ({outcome.label_bits} bits, "
              f"{outcome.distinct_labels} distinct labels)")
        print(f"source: {source}  payload: {scenario.payload!r}")
        if scenario.faults is not None:
            print(f"faults: {scenario.faults}")
        if scenario.clock is not None:
            print(f"clock: {scenario.clock}")
        bound = f" (bound {outcome.bound_broadcast})" if outcome.bound_broadcast else ""
        print(f"completion round: {outcome.completion_round}{bound}")
        if outcome.acknowledgement_round is not None:
            print(f"acknowledgement round: {outcome.acknowledgement_round}")
        if outcome.common_completion_round is not None:
            print(f"common completion round: {outcome.common_completion_round}")
        print(f"transmissions: {outcome.total_transmissions}, "
              f"collisions: {outcome.total_collisions}")
        print(f"status: {'COMPLETED' if outcome.completed else 'INCOMPLETE'}")
    return 0 if outcome.completed else 1


def _cmd_schemes(args) -> int:
    if getattr(args, "json", False):
        doc = {
            "schemes": [
                {
                    "name": name,
                    "kind": get_scheme(name).kind,
                    "description": get_scheme(name).description,
                    "backends": scheme_backend_coverage(name),
                }
                for name in scheme_names()
            ],
            "backends": {"names": list(BACKEND_NAMES)},
        }
        print(json.dumps(doc, indent=2))
        return 0
    for name in scheme_names():
        scheme = get_scheme(name)
        print(f"{name:20s} [{scheme.kind:8s}] {scheme.description}")
    return 0


def _cmd_figure1(args) -> int:
    result = figure1_report()
    print(result.rendering)
    print(f"labels: {sorted(result.labeling.label_histogram().items())}")
    print(f"completion round: {result.completion_round}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        cfg = GridConfig(
            families=args.families,
            sizes=args.sizes,
            seeds_per_size=args.seeds_per_size,
            schemes=args.schemes,
            source_rule=args.source_rule,
            base_seed=args.base_seed,
            faults=args.faults,
            clocks=args.clocks,
            payload=args.payload,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.store:
        print("error: --resume requires --store DIR", file=sys.stderr)
        return 2
    store = None
    if args.store:
        try:
            store = ResultStore.open(args.store, require_existing=args.resume)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    last_progress = {}

    def on_chunk(progress) -> None:
        last_progress["snapshot"] = progress
        if args.progress:
            print(
                f"[sweep] rows {progress.done_rows}/{progress.total_rows} "
                f"(cached {progress.cached_rows}, computed "
                f"{progress.computed_rows}, failed {progress.failed_rows}) "
                f"chunks {progress.completed_chunks}/{progress.total_chunks}",
                file=sys.stderr,
            )

    try:
        rows = run_grid(cfg, backend=args.backend, jobs=args.jobs,
                        trace_level=args.trace_level, store=store,
                        strict=not args.keep_going, retries=args.retries,
                        on_chunk=on_chunk)
    finally:
        if store is not None:
            store.close()
    if args.output == "json":
        print(metrics_to_json(rows))
    elif args.output == "csv":
        print(metrics_to_csv(rows), end="")
    else:
        print(format_metrics_table(rows, title="sweep results"))
    if store is not None:
        progress = last_progress["snapshot"]
        print(
            f"[store] path={args.store} total={progress.total_rows} "
            f"cached={progress.cached_rows} computed={progress.computed_rows} "
            f"failed={progress.failed_rows}",
            file=sys.stderr,
        )
    failed = sum(1 for r in rows if r.status != "ok")
    return 1 if failed else 0


def _cmd_results(args) -> int:
    try:
        store = ResultStore.open(args.store, require_existing=True)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _emit_results(args, store)
    finally:
        store.close()


def _iter_filtered_row_dicts(store: ResultStore, args):
    """Stream matching row dicts off the store, one at a time."""
    schemes = set(args.schemes) if args.schemes else None
    families = set(args.families) if args.families else None
    sizes = set(args.sizes) if args.sizes else None
    for doc in store.iter_docs():
        row = doc["row"]
        if schemes and row.get("scheme") not in schemes:
            continue
        if families and row.get("family") not in families:
            continue
        if sizes and row.get("n") not in sizes:
            continue
        if args.status and not status_matches(row.get("status", ""), args.status):
            continue
        yield row


def _emit_aggregate(groups, *, column: str, output: str, title: str) -> None:
    """Render aggregate groups in any CLI output format.

    Every format flattens through :func:`aggregate_to_dicts`, so the local
    and service aggregate paths print identical documents.
    """
    rows = aggregate_to_dicts(groups)
    if output == "json":
        print(json.dumps(rows, indent=2))
    elif output == "jsonl":
        for row in rows:
            print(json.dumps(row, sort_keys=True, separators=(",", ":")))
    elif output == "csv":
        import csv as _csv
        import io as _io

        buffer = _io.StringIO()
        fieldnames = list(rows[0].keys()) if rows else ["count"]
        writer = _csv.DictWriter(buffer, fieldnames=fieldnames,
                                 lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        print(buffer.getvalue(), end="")
    else:
        print(format_aggregate_table(groups, column=column, title=title))


def _emit_results(args, store: ResultStore) -> int:
    if args.agg:
        try:
            by = resolve_group_columns(args.by)
            if args.stream:
                groups = stream_aggregate(
                    _iter_filtered_row_dicts(store, args), args.agg, by,
                    ci=args.ci)
            else:
                rows = filter_result_set(
                    store.rows(), schemes=args.schemes, families=args.families,
                    sizes=args.sizes, status=args.status)
                groups = aggregate_result_set(rows, args.agg, by, ci=args.ci)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        _emit_aggregate(groups, column=args.agg, output=args.output,
                        title=f"{args.store}: aggregate of {args.agg}")
        return 0
    unfiltered = not (args.schemes or args.families or args.sizes or args.status)
    if args.output == "jsonl" and unfiltered:
        # The line-oriented export needs no columnar staging: stream one row
        # at a time straight off the offset index, whatever the store size.
        for _, metrics in store.iter_items():
            print(json.dumps(metrics.as_dict(), sort_keys=True,
                             separators=(",", ":")))
        return 0
    total = len(store)
    # Column-vectorized filtering: against a columnar-compacted store only
    # the filter columns are read until an output path touches the rest.
    rows = filter_result_set(store.rows(), schemes=args.schemes,
                             families=args.families, sizes=args.sizes,
                             status=args.status)
    if args.output == "json":
        print(rows.to_json())
    elif args.output == "csv":
        print(rows.to_csv(), end="")
    elif args.output == "jsonl":
        print(rows.to_jsonl(), end="")
    else:
        print(format_metrics_table(
            rows, title=f"{args.store}: {len(rows)}/{total} rows"))
    return 0


def _cmd_store(args) -> int:
    try:
        if args.store_command == "compact":
            stats = compact_store(args.store, format=args.format)
            print(json.dumps(stats, indent=2))
            dropped = (stats["duplicates_dropped"] + stats["stale_dropped"]
                       + stats["junk_dropped"])
            print(
                f"[compact] {args.store}: kept {stats['rows_kept']} rows, "
                f"dropped {dropped} lines, "
                f"{stats['bytes_before']} -> {stats['bytes_after']} bytes",
                file=sys.stderr,
            )
        else:
            with ResultStore.open(args.store, require_existing=True) as store:
                print(json.dumps(store.describe(), indent=2))
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service import Coordinator
    from .service.protocol import parse_address

    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        store = ResultStore.open(args.store, require_existing=False)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        coordinator = Coordinator(
            store, host=host, port=port,
            lease_seconds=args.lease_seconds,
            heartbeat_grace=args.heartbeat_grace,
            max_attempts=args.max_attempts,
        )
        await coordinator.start()
        print(f"[serve] store={args.store} rows={len(store)} "
              f"listening on {coordinator.address}",
              file=sys.stderr, flush=True)
        try:
            await coordinator.serve_forever()
        finally:
            await coordinator.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("[serve] interrupted", file=sys.stderr)
    finally:
        store.close()
    return 0


def _cmd_worker(args) -> int:
    import asyncio

    from .service import ProtocolError, Worker

    worker = Worker(args.connect, backend=args.backend, jobs=args.jobs,
                    retries=args.retries, pool="process", name=args.name)
    print(f"[worker] connecting to {args.connect} jobs={args.jobs} "
          f"backend={args.backend or 'per-submission'}",
          file=sys.stderr, flush=True)
    try:
        asyncio.run(worker.run())
    except KeyboardInterrupt:
        pass
    except (ConnectionError, OSError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"[worker] done after {worker.cells_run} cells", file=sys.stderr)
    return 0


def _cmd_submit(args) -> int:
    from .service import ProtocolError, ServiceClient, ServiceError

    try:
        with open(args.grid) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError("grid file must hold one JSON object of "
                             "GridConfig fields")
        cfg = GridConfig(**doc)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: invalid grid file {args.grid}: {exc}", file=sys.stderr)
        return 2
    try:
        with ServiceClient(args.connect) as client:
            rows = client.submit(cfg, backend=args.backend,
                                 trace_level=args.trace_level,
                                 strict=not args.keep_going)
            summary = client.last_summary
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach coordinator at {args.connect}: {exc}",
              file=sys.stderr)
        return 2
    except (ServiceError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        print(metrics_to_json(rows))
    elif args.output == "csv":
        print(metrics_to_csv(rows), end="")
    else:
        print(format_metrics_table(rows, title=f"submit {args.grid}"))
    print(f"[service] connect={args.connect} total={summary['total']} "
          f"cached={summary['cached']} computed={summary['computed']} "
          f"failed={summary['failed']}", file=sys.stderr)
    return 1 if summary["failed"] else 0


def _cmd_query(args) -> int:
    from .service import ProtocolError, ServiceClient, ServiceError

    try:
        with ServiceClient(args.connect) as client:
            if args.agg:
                groups = client.aggregate(
                    args.agg, by=resolve_group_columns(args.by),
                    schemes=args.schemes, families=args.families,
                    sizes=args.sizes, status=args.status, ci=args.ci)
                _emit_aggregate(
                    groups, column=args.agg, output=args.output,
                    title=f"{args.connect}: aggregate of {args.agg}")
                return 0
            rows = client.query(key=args.key, schemes=args.schemes,
                                families=args.families, sizes=args.sizes,
                                status=args.status)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach coordinator at {args.connect}: {exc}",
              file=sys.stderr)
        return 2
    except (ServiceError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.output == "json":
        print(rows.to_json())
    elif args.output == "csv":
        print(rows.to_csv(), end="")
    elif args.output == "jsonl":
        print(rows.to_jsonl(), end="")
    else:
        print(format_metrics_table(
            rows, title=f"{args.connect}: {len(rows)} rows"))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "label": _cmd_label,
        "broadcast": _cmd_broadcast,
        "run": _cmd_run,
        "schemes": _cmd_schemes,
        "figure1": _cmd_figure1,
        "sweep": _cmd_sweep,
        "results": _cmd_results,
        "store": _cmd_store,
        "serve": _cmd_serve,
        "worker": _cmd_worker,
        "submit": _cmd_submit,
        "query": _cmd_query,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
