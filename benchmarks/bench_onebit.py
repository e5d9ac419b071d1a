"""E9 — Section 5: shorter-than-2-bit schemes for special graph classes.

The conclusion claims 1-bit schemes exist for graphs of source radius ≤ 2, for
series-parallel graphs and for grid graphs, and notes the general 1-bit
question is open.  The constructive sketch in the paper is too terse to
reimplement verbatim, so this benchmark validates the *feasibility claims*
directly (see "Deviations from the paper" in the README):

* exhaustive search over 1-bit labelings under the paper's own Algorithm B
  finds a working assignment for every small instance of those classes;
* trees are handled by the label-free echo-flood scheme (zero bits of advice);
* the cycles C4 and C6 (C4 has radius 2 from its source) still need one bit
  under this search, confirming the lower end.

Every table is pinned: widths, completion rounds and the witness's position
in the search's enumeration order (E9), and the flood's completion rounds and
transmission counts (E9b).
"""

from __future__ import annotations

import time

from repro.analysis import format_table
from repro.core import run_tree_flood, search_minimum_labels
from repro.graphs import (
    cycle_graph,
    grid_graph,
    random_series_parallel_graph,
    random_tree,
    star_graph,
    two_level_star,
    wheel_graph,
)
from conftest import report

ONE_BIT_CASES = [
    ("grid 2x3", grid_graph(2, 3), 0),
    ("grid 2x4", grid_graph(2, 4), 0),
    ("grid 3x3", grid_graph(3, 3), 0),
    ("series-parallel n=7", random_series_parallel_graph(7, seed=2), 0),
    ("series-parallel n=9", random_series_parallel_graph(9, seed=4), 0),
    ("radius-2: wheel W8", wheel_graph(8), 0),
    ("radius-2: two-level star", two_level_star(3, 2), 0),
    ("cycle C4", cycle_graph(4), 0),
    ("cycle C6", cycle_graph(6), 0),
]

#: E9 as (min width, completion round, attempts), one row per case above.
EXPECTED_E9 = [
    (1, 7, 9), (1, 9, 17), (1, 11, 49), (1, 7, 23), (1, 7, 106),
    (0, 1, 1), (1, 3, 294), (1, 3, 3), (1, 7, 9),
]

#: E9b as (completion round, transmissions): random trees of 15, 31, 63 and
#: 127 nodes, then star-64.
EXPECTED_E9B = [(11, 14), (27, 29), (39, 62), (57, 126), (1, 1)]


def _search_all():
    rows = []
    for name, graph, source in ONE_BIT_CASES:
        result = search_minimum_labels(graph, source, max_bits=2, attempt_budget=300_000)
        rows.append((name, graph, result))
    return rows


def bench_one_bit_feasibility(benchmark):
    """Search for minimum label width on the conclusion's special classes."""
    results = benchmark.pedantic(_search_all, rounds=1, iterations=1)
    # The conclusion's claim: at most 1 bit for these special classes.
    assert [
        (result.width, result.completion_round, result.attempts) for _, _, result in results
    ] == EXPECTED_E9
    table = []
    for name, graph, result in results:
        table.append({
            "graph": name,
            "n": graph.n,
            "min label width (bits)": result.width,
            "completion round": result.completion_round,
            "assignments tried": result.attempts,
        })
    report("E9 / §5 — 1-bit feasibility on special classes (search under Algorithm B)",
           format_table(table))


def bench_tree_flood_zero_bits(benchmark):
    """Trees broadcast with zero bits of advice via echo flooding."""
    def run_all():
        rows = []
        for n in (15, 31, 63, 127):
            tree = random_tree(n, seed=n)
            sim = run_tree_flood(tree, 0)
            rows.append({"tree size": n,
                         "completion round": sim.trace.broadcast_completion_round(),
                         "transmissions": sim.trace.total_transmissions()})
        star = star_graph(64)
        sim = run_tree_flood(star, 0)
        rows.append({"tree size": "star-64",
                     "completion round": sim.trace.broadcast_completion_round(),
                     "transmissions": sim.trace.total_transmissions()})
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    assert [(row["completion round"], row["transmissions"]) for row in rows] == EXPECTED_E9B
    report("E9b / §5 — label-free broadcast on trees", format_table(rows))


def bench_grid_4x4_one_bit_search(benchmark):
    """The 4×4 grid's 1-bit search: 2977 assignments, stacked, within 0.5 s."""
    def search():
        start = time.perf_counter()
        result = search_minimum_labels(grid_graph(4, 4), 0, max_bits=1)
        return result, time.perf_counter() - start

    result, seconds = benchmark.pedantic(search, rounds=1, iterations=1)
    assert (result.width, result.completion_round, result.attempts) == (1, 19, 2977)
    assert seconds <= 0.5, f"4x4 grid 1-bit search took {seconds:.2f} s"
    report("E9c / §5 — 1-bit search on the 4×4 grid",
           format_table([{"min label width (bits)": result.width,
                          "completion round": result.completion_round,
                          "assignments tried": result.attempts,
                          "wall time (s)": round(seconds, 3)}]))
