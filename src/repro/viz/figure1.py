"""Reproduction of the paper's Figure 1 (worked example of λ + Algorithm B).

Figure 1 of the paper shows a small example network whose nodes are annotated
with their 2-bit λ labels, the rounds in which they transmit (curly braces)
and the rounds in which they receive a message (parentheses): µ travels on odd
rounds, "stay" messages on even rounds, and the reader can follow the
dominating set evolving stage by stage.

The figure itself is an image; its exact edge set is not recoverable from the
paper's text.  We therefore reproduce the figure's *content* rather than its
pixels: :func:`figure1_graph` builds a 14-node, five-layer example engineered
to exercise every phenomenon the figure shows — all four label values (``10``,
``11``, ``01`` and ``00``), frontier nodes that are delayed by collisions, and
nodes that stay in the dominating set across stages via a "stay" witness —
and :func:`figure1_report` renders the λ labels and the exact per-node
transmit/receive schedules in the same annotation style.  The accompanying
benchmark (E1) asserts that the rendered schedule matches the Lemma 2.8
characterisation, which is precisely the property Figure 1 illustrates.  The
substitution is listed under "Deviations from the paper" in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..api.schemes import get_scheme
from ..core.labeling import Labeling, lambda_scheme
from ..core.outcome import Outcome
from ..graphs.graph import Graph
from .ascii_graph import render_labeled_layers
from .trace_render import transmit_receive_maps

__all__ = ["FIGURE1_SOURCE", "figure1_graph", "Figure1Result", "figure1_report"]

#: The distinguished source node of the example.
FIGURE1_SOURCE = 0


def figure1_graph() -> Graph:
    """The 14-node example network used for the Figure 1 reproduction.

    Layout (BFS layers from the source 0):

    * layer 1: nodes 1, 2, 3 — all hear µ in round 1;
    * layer 2: nodes 4, 5, 6, 7 — node 5 has two transmitting neighbours in
      round 3 (collision) and is only informed in round 5;
    * layer 3: nodes 8, 9, 10, 11 — node 9 collides in round 5 and is informed
      in round 7;
    * layer 4: nodes 12, 13 — informed in round 7.

    The collisions force nodes 2 and 6 to *stay* in the dominating set across
    consecutive stages, so the labeling contains an ``11`` node (a dominator
    that is also a stay witness) and an ``01`` node (a pure stay witness) in
    addition to the ``10`` and ``00`` labels — every label value the paper's
    figure displays.
    """
    edges = [
        # source to layer 1
        (0, 1), (0, 2), (0, 3),
        # layer 1 to layer 2; node 5 has two dominating parents -> collision in round 3
        (1, 4), (1, 5),
        (2, 5), (2, 6),
        (3, 7),
        # layer 2 to layer 3; node 9 has two dominating parents -> collision in round 5
        (4, 8), (4, 9),
        (6, 9), (6, 10),
        (7, 11),
        # layer 3 to layer 4
        (8, 12), (11, 13),
    ]
    return Graph.from_edges(14, edges)


@dataclass
class Figure1Result:
    """Everything the Figure 1 reproduction produces."""

    graph: Graph
    labeling: Labeling
    outcome: Outcome
    transmit_rounds: Dict[int, List[int]]
    receive_rounds: Dict[int, List[int]]
    rendering: str

    @property
    def completion_round(self) -> int:
        """Round in which the last node is informed."""
        assert self.outcome.completion_round is not None
        return self.outcome.completion_round


def figure1_report() -> Figure1Result:
    """Label the example with λ, run Algorithm B and render the annotated figure."""
    graph = figure1_graph()
    labeling = lambda_scheme(graph, FIGURE1_SOURCE)
    outcome = get_scheme("lambda").run(graph, FIGURE1_SOURCE, labeling=labeling)
    transmit, receive = transmit_receive_maps(outcome.trace)
    rendering = render_labeled_layers(
        graph,
        FIGURE1_SOURCE,
        labeling.labels,
        transmit_rounds=transmit,
        receive_rounds=receive,
    )
    return Figure1Result(
        graph=graph,
        labeling=labeling,
        outcome=outcome,
        transmit_rounds=transmit,
        receive_rounds=receive,
        rendering=rendering,
    )
