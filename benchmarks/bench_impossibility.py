"""E7 — Section 1.1: without labels, deterministic broadcast is impossible on C4.

Exhaustively runs Algorithm B on the 4-cycle (and larger even cycles) with all
nodes sharing one label — every choice fails, because the two neighbours of
the source behave identically and the antipodal node only ever hears
collisions.  The paper's λ fixes this with 2 bits, and the exhaustive search
shows a single bit already suffices on C4, bracketing the scheme between the
impossibility and Theorem 2.9.
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.api import get_scheme
from repro.core import broadcast_succeeds_with_labels, search_minimum_labels
from repro.graphs import cycle_graph
from conftest import report


def _study():
    rows = []
    for n in (4, 6, 8):
        graph = cycle_graph(n)
        uniform_fails = all(
            broadcast_succeeds_with_labels(graph, 0, {v: lab for v in graph.nodes()}) is None
            for lab in ("00", "01", "10", "11")
        )
        search = search_minimum_labels(graph, 0, max_bits=2)
        lam = get_scheme("lambda").run(graph, 0)
        rows.append({
            "graph": f"C{n}",
            "uniform labels fail": uniform_fails,
            "min width found": search.width,
            "rounds @ min width": search.completion_round,
            "rounds with λ (2 bits)": lam.completion_round,
            "bound 2n-3": 2 * n - 3,
        })
    return rows


#: E7 as (uniform labels fail, min width found, rounds @ min width) on C4, C6, C8.
EXPECTED_E7 = [(True, 1, 3), (True, 1, 7), (True, 1, 11)]


def bench_four_cycle_impossibility(benchmark):
    """Uniform labels always fail on even cycles; λ always succeeds."""
    rows = benchmark.pedantic(_study, rounds=1, iterations=1)
    assert [
        (row["uniform labels fail"], row["min width found"], row["rounds @ min width"])
        for row in rows
    ] == EXPECTED_E7
    for row in rows:
        assert row["rounds with λ (2 bits)"] <= row["bound 2n-3"]
    report("E7 / §1.1 impossibility — unlabeled broadcast fails, short labels fix it",
           format_table(rows))
