"""Shared fixtures for the test suite.

The fixtures provide a representative spread of connected graphs (structured,
random, radio-flavoured) that the protocol and labeling tests iterate over.
Everything is seeded so the suite is fully deterministic.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    binary_tree_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_geometric_graph,
    random_gnp_graph,
    random_tree,
    star_graph,
    wheel_graph,
)


def small_graph_instances() -> list[tuple[str, Graph, int]]:
    """(name, graph, source) triples used across protocol tests."""
    return [
        ("path6", path_graph(6), 0),
        ("path9-mid", path_graph(9), 4),
        ("cycle5", cycle_graph(5), 0),
        ("cycle8", cycle_graph(8), 3),
        ("star7", star_graph(7), 0),
        ("star7-leaf", star_graph(7), 3),
        ("complete6", complete_graph(6), 2),
        ("grid3x4", grid_graph(3, 4), 0),
        ("grid4x4-center", grid_graph(4, 4), 5),
        ("wheel8", wheel_graph(8), 4),
        ("binary_tree15", binary_tree_graph(15), 0),
        ("hypercube3", hypercube_graph(3), 0),
        ("random_tree12", random_tree(12, seed=5), 0),
        ("gnp18", random_gnp_graph(18, 0.2, seed=11), 0),
        ("gnp25-sparse", random_gnp_graph(25, 0.12, seed=13), 7),
        ("geometric20", random_geometric_graph(20, 0.4, seed=17), 0),
    ]


@pytest.fixture(params=small_graph_instances(), ids=lambda t: t[0])
def labeled_instance(request) -> tuple[str, Graph, int]:
    """Parametrised fixture yielding (name, graph, source) across families."""
    return request.param


@pytest.fixture
def small_grid() -> Graph:
    """A 3x3 grid used by quick unit tests."""
    return grid_graph(3, 3)


@pytest.fixture
def small_path() -> Graph:
    """A 5-node path used by quick unit tests."""
    return path_graph(5)


@pytest.fixture
def four_cycle() -> Graph:
    """The 4-cycle from the paper's impossibility argument."""
    return cycle_graph(4)


#: int64 values that byte-level readers must survive in an offset or length
#: slot: the columnar-slot marker (-1), the extremes, and far-out offsets.
_EDGE_INT64 = st.sampled_from([-1, 0, 7, 10**9, 2**62, -(2**63), 2**63 - 1])


def mutate_bytes(data, blob: bytes, *, words: int = 0) -> bytes:
    """``blob`` after 1-3 drawn corruptions (a Hypothesis ``data`` draw).

    Each corruption is a bit flip, a truncation, a random overwrite, or one
    8-byte little-endian word set to an edge or arbitrary int64.  ``words``
    limits the word sets to the file's last ``words`` words (a sidecar's
    span pairs); 0 picks any 8-byte-aligned word.
    """
    raw = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3), label="corruptions")):
        kind = data.draw(st.sampled_from(("flip", "truncate", "overwrite", "word")))
        if kind == "truncate":
            del raw[data.draw(st.integers(0, len(raw))):]
        elif not raw:
            continue
        elif kind == "flip":
            i = data.draw(st.integers(0, len(raw) - 1))
            raw[i] ^= 1 << data.draw(st.integers(0, 7))
        elif kind == "overwrite":
            i = data.draw(st.integers(0, len(raw) - 1))
            chunk = data.draw(st.binary(min_size=1, max_size=16))
            raw[i:i + len(chunk)] = chunk
        else:
            count = min(words, len(raw) // 8) if words else len(raw) // 8
            if not count:
                continue
            j = data.draw(st.integers(0, count - 1))
            start = len(raw) - 8 * (j + 1) if words else 8 * j
            value = data.draw(_EDGE_INT64 | st.integers(-(2**63), 2**63 - 1))
            struct.pack_into("<q", raw, start, value)
    return bytes(raw)
