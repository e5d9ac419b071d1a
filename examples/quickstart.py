#!/usr/bin/env python3
"""Quickstart: label a radio network with 2-bit labels and broadcast.

This walks through the paper's headline result end to end, on the unified
experiment API (`repro.api`):

1. build a small network (a 5x5 grid by default),
2. describe the experiment as a declarative `Scenario` (which round-trips
   through JSON — the same config runs from `repro run scenario.json`),
3. execute it with `api.run`: the λ labeling (2 bits per node) is computed
   from the whole graph, then the universal Algorithm B runs with every node
   knowing only its own 2 bits and what it has heard,
4. check the outcome against Theorem 2.9's bound of 2n - 3 rounds and against
   the Lemma 2.8 round-by-round characterisation,
5. print a Figure-1 style annotated rendering of the execution.

Run:  python examples/quickstart.py [--rows 5] [--cols 5] [--source 0]
"""

from __future__ import annotations

import argparse

from repro import api
from repro.core import verify_broadcast_outcome
from repro.graphs import grid_graph
from repro.viz import render_labeled_layers, render_round_table, transmit_receive_maps


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=5, help="grid rows")
    parser.add_argument("--cols", type=int, default=5, help="grid columns")
    parser.add_argument("--source", type=int, default=0, help="source node index")
    args = parser.parse_args()

    graph = grid_graph(args.rows, args.cols)
    print(f"Network: {graph.summary()}")

    # The whole experiment as declarative data (try scenario.to_json()):
    scenario = api.Scenario(graph=graph, scheme="lambda", source=args.source,
                            payload="hello-radio")
    outcome = api.run(scenario)

    # The labeling scheme saw the whole topology; the algorithm saw only each
    # node's own 2 bits.
    labeling = outcome.labeling
    print(f"Labeling scheme λ: length {labeling.length} bits, "
          f"{labeling.num_distinct_labels()} distinct labels "
          f"{sorted(labeling.label_histogram().items())}")

    print(f"\nBroadcast completed in round {outcome.completion_round} "
          f"(Theorem 2.9 bound: {outcome.bound_broadcast} rounds)")
    print(f"Transmissions: {outcome.total_transmissions}, "
          f"collisions observed: {outcome.total_collisions}")

    violations = verify_broadcast_outcome(graph, outcome)
    print(f"Verification against the paper's lemmas: "
          f"{'PASS' if not violations else violations}")

    # The graph-level entry point: `api.run(scenario)` resolves the scenario's
    # scheme and runs it this way, so both give the same unified Outcome.
    direct = api.get_scheme("lambda").run(graph, args.source, payload="hello-radio")
    assert direct.completion_round == outcome.completion_round

    transmit, receive = transmit_receive_maps(outcome.trace)
    print("\nFigure-1 style rendering (node:label{transmit rounds}(receive rounds)):")
    print(render_labeled_layers(graph, args.source, labeling.labels,
                                transmit_rounds=transmit, receive_rounds=receive))

    print("\nFirst rounds of the execution:")
    print(render_round_table(outcome.trace, max_rounds=8))


if __name__ == "__main__":
    main()
