"""E2 — Theorem 2.9: λ + B completes within 2n − 3 rounds on every network.

Sweeps the graph families over a range of sizes, reports the measured
completion round next to the 2n−3 bound and the instance-sharp 2ℓ−3 value,
and asserts the bound never fails.  The path family from an endpoint is the
worst case and must meet the bound with equality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table
from repro.api import GridConfig, run_grid
from repro.api import get_scheme
from repro.graphs import path_graph
from conftest import report

FAMILIES = ["path", "cycle", "star", "grid", "binary_tree", "random_tree",
            "gnp_sparse", "gnp_dense", "geometric", "hypercube"]
SIZES = [16, 32, 64, 128]


def _sweep_rows():
    cfg = GridConfig(families=FAMILIES, sizes=SIZES, schemes=["lambda"],
                     seeds_per_size=1, source_rule="zero")
    return run_grid(cfg)


def bench_theorem_2_9_bound_sweep(benchmark):
    """Measure completion round vs. the 2n−3 bound across families and sizes."""
    rows = benchmark.pedantic(_sweep_rows, rounds=1, iterations=1)
    assert rows
    # Columnar check: every cell completed, and completion <= 2n-3 holds as
    # one vectorized comparison over the whole sweep.
    completion, completed = rows.column_with_mask("completion_round")
    assert completed.all(), rows.column("family")[~completed]
    bound = np.maximum(1, 2 * rows.column("n") - 3)
    assert (completion <= bound).all(), rows.column("family")[completion > bound]

    table = [
        {
            "family": doc["family"],
            "n": doc["n"],
            "ecc(source)": doc["source_eccentricity"],
            "completion": doc["completion_round"],
            "bound 2n-3": int(b),
            "slack": int(b) - doc["completion_round"],
        }
        for doc, b in zip(rows.to_dicts(), bound)
    ]
    report("E2 / Theorem 2.9 — completion round vs bound", format_table(table))


@pytest.mark.parametrize("n", [8, 32, 128])
def bench_worst_case_path_is_tight(benchmark, n):
    """The path from an endpoint realises the bound exactly: 2n − 3 rounds."""
    graph = path_graph(n)
    outcome = benchmark(get_scheme("lambda").run, graph, 0)
    assert outcome.completion_round == 2 * n - 3
