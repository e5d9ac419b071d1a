"""E4 — Theorem 3.9 / Corollary 3.8: acknowledged broadcast bounds.

λ_ack + B_ack must inform every node by round 2n−3 and deliver an ack to the
source inside the Corollary 3.8 window [2ℓ−2, 3ℓ−4].  The path instance is
reported separately because it realises the latest possible ack (t + n − 1,
one round later than the literal Theorem 3.9 statement — see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.api import get_scheme
from repro.graphs import generate_family, path_graph
from conftest import report

FAMILIES = ["path", "cycle", "star", "grid", "random_tree", "gnp_sparse", "geometric"]
SIZES = [16, 48, 96]


def _sweep():
    rows = []
    for family in FAMILIES:
        for n in SIZES:
            graph = generate_family(family, n, seed=5)
            outcome = get_scheme("lambda_ack").run(graph, 0)
            rows.append((family, graph, outcome))
    return rows


def bench_theorem_3_9_ack_window(benchmark):
    """Measure completion and ack rounds against the paper's windows."""
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table = []
    for family, graph, outcome in results:
        assert outcome.completed, family
        assert outcome.acknowledgement_round is not None, family
        ell = outcome.labeling.construction.ell
        lo, hi = 2 * ell - 2, 3 * ell - 4
        assert lo <= outcome.acknowledgement_round <= hi, (family, graph.n)
        assert outcome.completion_round <= max(1, 2 * graph.n - 3)
        table.append({
            "family": family,
            "n": graph.n,
            "completion t": outcome.completion_round,
            "ack round": outcome.acknowledgement_round,
            "window lo (2ℓ-2)": lo,
            "window hi (3ℓ-4)": hi,
        })
    report("E4 / Theorem 3.9 & Corollary 3.8 — acknowledgement rounds", format_table(table))


@pytest.mark.parametrize("n", [16, 64])
def bench_path_realises_latest_ack(benchmark, n):
    """On the path the ack arrives exactly at 3n−4 = completion + n − 1."""
    outcome = benchmark(get_scheme("lambda_ack").run, path_graph(n), 0)
    assert outcome.completion_round == 2 * n - 3
    assert outcome.acknowledgement_round == 3 * n - 4
