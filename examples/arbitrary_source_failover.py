#!/usr/bin/env python3
"""Broadcast from an arbitrary source (Section 4): label once, fail over freely.

The λ_arb scheme is computed *without knowing which node will hold the
message*.  That models a sensor field where any node may detect an event and
need to disseminate it, or a replicated control plane where the active
primary changes over time.  This example labels the network once and then
lets several different nodes act as the source in turn, verifying each time
that:

* every node ends up with the message,
* all nodes learn, in a single common round, that the broadcast is complete
  (the acknowledged property of Section 4.2's three-phase algorithm).

The failover loop drives the registered `"lambda_arb"` scheme from the
unified registry (`repro.api`), reusing one precomputed labeling across
sources: `api.get_scheme("lambda_arb").run(graph, source, labeling=...)`.

Run:  python examples/arbitrary_source_failover.py [--nodes 40] [--seed 3]
"""

from __future__ import annotations

import argparse

from repro import api
from repro.core import lambda_arb_scheme
from repro.graphs import random_gnp_graph


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=40, help="network size")
    parser.add_argument("--seed", type=int, default=3, help="topology seed")
    parser.add_argument("--sources", type=int, default=4,
                        help="number of distinct failover sources to try")
    args = parser.parse_args()

    graph = random_gnp_graph(args.nodes, 0.12, seed=args.seed)
    print(f"Network: {graph.summary()}")

    labeling = lambda_arb_scheme(graph)
    print(f"λ_arb labels assigned without knowing the source: {labeling.length} bits, "
          f"{labeling.num_distinct_labels()} distinct labels; "
          f"coordinator r = node {labeling.coordinator}, acknowledger z = node {labeling.acknowledger}")

    arb = api.get_scheme("lambda_arb")
    step = max(1, graph.n // args.sources)
    for source in list(range(0, graph.n, step))[: args.sources]:
        outcome = arb.run(
            graph, source, labeling=labeling, payload=f"event-from-{source}"
        )
        status = "OK" if outcome.completed and outcome.common_completion_round else "FAILED"
        print(f"  source = node {source:3d}: delivered by round {outcome.completion_round}, "
              f"common completion round {outcome.common_completion_round}  [{status}]")


if __name__ == "__main__":
    main()
