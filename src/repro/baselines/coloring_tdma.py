"""TDMA broadcast from a proper colouring of ``G²`` (``O(log Δ)``-bit labels).

The paper's introduction notes that colouring the *square* of the graph gives
labels of ``O(log Δ)`` bits that suffice for broadcast: if two nodes share a
colour they are at distance at least 3, so when all informed nodes of one
colour class transmit simultaneously, no listener has two transmitting
neighbours — collisions are impossible by construction.  Cycling through the
colour classes therefore grows the informed set by the entire frontier every
``C`` rounds, where ``C ≤ Δ² + 1`` is the number of colours used, and the
broadcast completes within ``C · (D + 1)`` rounds.

Each label encodes ``(colour, C)`` as two fixed-width fields, for a scheme
length of ``2·⌈log₂ C⌉ = O(log Δ)`` bits — the round-robin label format, so
the nodes run the same :class:`~repro.baselines.base.SlottedNode`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.labels import LabelArray
from ..graphs.coloring import square_coloring
from ..graphs.graph import Graph
from .base import bits_needed

__all__ = ["coloring_tdma_labels"]


def coloring_tdma_labels(graph: Graph) -> Tuple[LabelArray, int]:
    """Labels ``bits(colour) ++ bits(C - 1)`` from a greedy colouring of ``G²``:
    the code ``colour·2^w + (C - 1)`` at width ``2w``.

    Returns the label map and the number of colours ``C``.
    """
    colours = square_coloring(graph)
    num_colours = max(colours.values(), default=0) + 1
    width = bits_needed(num_colours)
    codes = np.fromiter(map(colours.__getitem__, graph.nodes()), dtype=np.uint64,
                        count=graph.n) << np.uint64(width)
    codes |= num_colours - 1
    return LabelArray(codes, 2 * width), num_colours
