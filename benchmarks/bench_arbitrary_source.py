"""E6 — Section 4: 3-bit labels suffice when the source is unknown at labeling time.

For each instance, λ_arb is computed once (without a designated source); then
B_arb is executed with *every* node (small graphs) or a sample of nodes
(larger graphs) acting as the actual source.  Every run must deliver µ to all
nodes and reach a common completion round.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.api import get_scheme
from repro.core import lambda_arb_scheme
from repro.graphs import generate_family
from conftest import report

CASES = [
    ("cycle", 12, None),        # None = try every source
    ("grid", 16, None),
    ("star", 12, None),
    ("random_tree", 24, 6),     # sample 6 sources
    ("gnp_sparse", 32, 6),
    ("geometric", 32, 6),
]


def _run_case(family: str, n: int, sample):
    graph = generate_family(family, n, seed=9)
    labeling = lambda_arb_scheme(graph)
    if sample is None:
        sources = list(graph.nodes())
    else:
        step = max(1, graph.n // sample)
        sources = list(range(0, graph.n, step))
    completions = []
    for source in sources:
        outcome = get_scheme("lambda_arb").run(graph, source, labeling=labeling)
        assert outcome.completed, (family, source)
        assert outcome.common_completion_round is not None, (family, source)
        completions.append(outcome.completion_round)
    return graph, labeling, sources, completions


def bench_arbitrary_source_all_sources(benchmark):
    """Every choice of source must succeed under the single λ_arb labeling."""
    def run_all():
        return [(family, _run_case(family, n, sample)) for family, n, sample in CASES]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for family, (graph, labeling, sources, completions) in results:
        rows.append({
            "family": family,
            "n": graph.n,
            "label bits": labeling.length,
            "distinct labels": labeling.num_distinct_labels(),
            "sources tried": len(sources),
            "min rounds": min(completions),
            "max rounds": max(completions),
        })
    report("E6 / §4 — arbitrary-source broadcast with one 3-bit labeling", format_table(rows))


@pytest.mark.parametrize("family,n", [("grid", 16), ("gnp_sparse", 32)])
def bench_arbitrary_source_single(benchmark, family, n):
    """Timing of a single B_arb execution (labeling excluded)."""
    graph = generate_family(family, n, seed=9)
    labeling = lambda_arb_scheme(graph)
    outcome = benchmark(get_scheme("lambda_arb").run, graph, graph.n - 1,
                        labeling=labeling)
    assert outcome.completed
