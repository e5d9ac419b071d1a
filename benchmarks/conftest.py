"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's quantitative artefacts
(Figure 1, a theorem bound, or a comparison the introduction makes) and
prints the corresponding table via :func:`report` so running::

    pytest benchmarks/ --benchmark-only -s

prints every table alongside pytest-benchmark's timing statistics.
"Deviations from the paper" in the README says where a table checks a claim
other than literally.
"""

from __future__ import annotations

import sys

__all__ = ["report"]


def pytest_addoption(parser):
    """``--quick``: skip the largest benchmark rows (CI budget mode).

    Used by ``bench_scaling.py`` to drop its largest cells, among them the
    n = 10⁶ grid of ``large_rows`` and ``labeling_rows``, while still
    measuring the n ≥ 5·10⁵ ones.
    """
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="skip the largest benchmark rows so CI stays under budget",
    )


def report(title: str, body: str) -> None:
    """Print a titled block to stdout (visible with ``-s``; captured otherwise)."""
    print(f"\n=== {title} ===", file=sys.stderr)
    print(body, file=sys.stderr)
