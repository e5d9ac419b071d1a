"""E3 — Lemma 2.8: the exact round-by-round characterisation of Algorithm B.

For a spread of graphs, verify against the simulator trace that in round
2i−1 the transmitters are exactly DOM_i and the newly informed nodes exactly
NEW_i, and that in round 2i the "stay" senders are exactly NEW_i ∩ {x2 = 1}.
The benchmark times the verification pipeline (label + run + check).
"""

from __future__ import annotations

import pytest

from repro.analysis import format_table
from repro.api import get_scheme
from repro.core import check_lemma_2_8, lambda_scheme
from repro.graphs import generate_family
from conftest import report

CASES = [
    ("path", 48), ("cycle", 48), ("grid", 49), ("random_tree", 48),
    ("gnp_sparse", 64), ("geometric", 64), ("caterpillar", 45),
]


def _verify_case(family: str, n: int):
    graph = generate_family(family, n, seed=11)
    labeling = lambda_scheme(graph, 0)
    outcome = get_scheme("lambda").run(graph, 0, labeling=labeling)
    violations = check_lemma_2_8(graph, labeling, labeling.construction, outcome.trace)
    return graph, labeling, outcome, violations


def bench_lemma_2_8_characterisation(benchmark):
    """Run the characterisation check over every case; zero violations expected."""
    def run_all():
        return [(family, n, _verify_case(family, n)) for family, n in CASES]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for family, n, (graph, labeling, outcome, violations) in results:
        assert violations == [], (family, violations)
        seq = labeling.construction
        rows.append({
            "family": family,
            "n": graph.n,
            "stages ℓ": seq.ell,
            "completion": outcome.completion_round,
            "max |DOM_i|": max(len(s.dom) for s in seq.stages),
            "stay msgs": outcome.trace.transmissions_by_kind().get("stay", 0),
            "violations": len(violations),
        })
    report("E3 / Lemma 2.8 — trace matches the DOM/NEW characterisation",
           format_table(rows))


@pytest.mark.parametrize("family", ["grid", "gnp_sparse"])
def bench_lemma_2_8_single_family(benchmark, family):
    """Per-family timing of the full verification pipeline."""
    graph, labeling, outcome, violations = benchmark(_verify_case, family, 64)
    assert violations == []
