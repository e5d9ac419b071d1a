"""repro.api — the unified scenario/experiment surface.

One composable way to express every experiment the paper's comparison needs::

    from repro import api

    # One execution, declaratively (round-trips through JSON):
    scenario = api.Scenario(graph="grid:64:1", scheme="lambda_ack",
                            faults={"kind": "drop", "prob": 0.05, "seed": 7})
    outcome = api.run(scenario)

    # A whole grid, with fault/clock axes and parallel workers — returns a
    # columnar ResultSet (list-compatible):
    rows = api.run_grid(api.GridConfig(
        families=["path", "geometric"], sizes=[64, 256],
        schemes=["lambda", "round_robin"],
        faults=[None, "drop:0.1:3"],
    ), backend="vectorized", jobs=4)
    rows.filter(scheme="lambda").column("completion_round")

    # The same grid as a streaming, resumable session: rows arrive as worker
    # chunks complete, completed cells land in a content-addressed store,
    # and a re-run (after a crash, or with more seeds) skips everything the
    # store already holds:
    store = api.ResultStore("sweeps/demo")
    for row in api.iter_grid(cfg, jobs=4, store=store):
        print(row.scheme, row.n, row.completion_round)

Schemes live in one registry (:func:`scheme_names`, :func:`get_scheme`,
:func:`register_scheme`); all of them — the paper's λ / λ_ack / λ_arb and the
four baselines — return the same unified :class:`Outcome`.
"""

from ..core.outcome import Outcome
from ..store import ResultSet, ResultStore
from .grid import (
    GridConfig,
    GridProgress,
    grid_cell_specs,
    grid_row_specs,
    grid_unit_key,
    grid_unit_keys,
    iter_grid,
    run_grid,
)
from .run import run
from .scenario import SOURCE_RULES, Scenario, graph_from_spec, pick_source
from .schemes import (
    Scheme,
    SchemeLabels,
    baseline_scheme_names,
    get_scheme,
    paper_scheme_names,
    register_scheme,
    scheme_backend_coverage,
    scheme_names,
)
from .specs import (
    clock_model_from_spec,
    fault_model_from_spec,
    normalize_clock_spec,
    normalize_fault_spec,
    spec_label,
)

__all__ = [
    "GridConfig",
    "GridProgress",
    "Outcome",
    "ResultSet",
    "ResultStore",
    "SOURCE_RULES",
    "Scenario",
    "Scheme",
    "SchemeLabels",
    "baseline_scheme_names",
    "clock_model_from_spec",
    "fault_model_from_spec",
    "get_scheme",
    "graph_from_spec",
    "grid_cell_specs",
    "grid_row_specs",
    "grid_unit_key",
    "grid_unit_keys",
    "iter_grid",
    "normalize_clock_spec",
    "normalize_fault_spec",
    "paper_scheme_names",
    "pick_source",
    "register_scheme",
    "run",
    "run_grid",
    "scheme_backend_coverage",
    "scheme_names",
    "spec_label",
]
