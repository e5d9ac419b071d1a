"""Sweep instances: the deterministic (graph, source) behind every grid cell.

A grid (see :class:`repro.api.GridConfig`) runs schemes over (graph family,
size, seed, source) combinations.  This module derives each instance: its
seed comes from the grid's base seed, the family name and the size, using a
*stable* family hash (CRC32) so the same config yields the same instances in
every process — a prerequisite for parallel execution, whose workers
regenerate instances from specs.  :func:`materialize_instance` builds one
instance; :func:`repro.api.run_grid` is the entry point that runs them.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..graphs.generators import generate_family
from ..graphs.graph import Graph
from ..graphs.random import derive_seed

__all__ = [
    "SweepInstance",
    "instance_seed",
    "materialize_instance",
]


@dataclass(frozen=True)
class SweepInstance:
    """One (graph, source) workload instance of a sweep."""

    family: str
    n: int
    seed: int
    source: int
    graph: Graph


def _pick_source(graph: Graph, rule: str) -> int:
    from ..api.scenario import pick_source

    return pick_source(graph, rule)


def _stable_family_hash(family: str) -> int:
    """16-bit CRC of the family name — stable across processes and runs.

    Python's built-in ``hash(str)`` is salted per interpreter, which would
    make instance seeds differ between a sweep driver and its worker
    processes (and between reruns).
    """
    return zlib.crc32(family.encode("utf-8")) & 0xFFFF


def instance_seed(base_seed: int, family: str, size: int, rep: int) -> int:
    """The derived seed of the ``rep``-th instance of a (family, size) cell."""
    return derive_seed(base_seed, _stable_family_hash(family), size, rep)


def materialize_instance(config, family: str, size: int, rep: int) -> SweepInstance:
    """Build the concrete :class:`SweepInstance` for one grid cell + repetition.

    ``config`` is a :class:`repro.api.GridConfig` — anything with
    ``base_seed`` and ``source_rule`` attributes.  ``source_rule`` is
    ``"zero"`` (node 0), ``"last"`` (node n−1) or ``"center-ish"``
    (node n // 2).
    """
    seed = instance_seed(config.base_seed, family, size, rep)
    graph = generate_family(family, size, seed)
    source = _pick_source(graph, config.source_rule)
    return SweepInstance(family=family, n=graph.n, seed=seed, source=source, graph=graph)
