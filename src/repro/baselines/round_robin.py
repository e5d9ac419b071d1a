"""Round-robin broadcast with distinct ``O(log n)``-bit labels.

This is the folklore scheme the paper's introduction uses to show that
``O(log n)``-bit labels always suffice: give every node a distinct identifier
and the network size, and let informed node ``k`` transmit µ exactly in the
rounds congruent to ``k`` modulo ``n``.  Within every window of ``n``
consecutive rounds each informed node transmits alone among all nodes, so each
uninformed node adjacent to an informed one hears at least one collision-free
transmission per window.  The informed set therefore absorbs the whole frontier
every ``n`` rounds and broadcast completes within ``n · (D + 1)`` rounds, where
``D`` is the source eccentricity.

The label of node ``k`` encodes the pair ``(k, n)`` as two fixed-width binary
fields (the universal algorithm may not know ``n``, so the scheme must write it
into the label), giving a scheme length of ``2·⌈log₂ n⌉`` bits.  The nodes
run :class:`~repro.baselines.base.SlottedNode`.
"""

from __future__ import annotations

from typing import Dict

from ..graphs.graph import Graph
from .base import bits_needed, int_to_bits

__all__ = ["round_robin_labels"]


def round_robin_labels(graph: Graph) -> Dict[int, str]:
    """Assign each node the label ``bits(node_id) ++ bits(n)``."""
    width = bits_needed(graph.n)
    return {
        v: int_to_bits(v, width) + int_to_bits(graph.n - 1, width) for v in graph.nodes()
    }
