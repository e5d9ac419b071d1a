#!/usr/bin/env python3
"""IoT deployment scenario from the paper's introduction.

"Suppose that transmitting devices that form a radio network are already
deployed, and only a central monitor knows the location and the transmitting
range of each of them. [...] One node of this network has to broadcast many
consecutive messages to all other nodes.  Then the monitor can assign very
short labels to the devices, enabling multiple executions of the universal
broadcast."  (Section 1.2)

This example plays that scenario out on a random geometric (unit-disk) graph,
the standard model of physically deployed radios, using the unified scheme
registry (`repro.api`):

* the monitor computes λ_ack once (3 bits per device);
* the gateway then broadcasts a stream of messages through the registered
  `"lambda_ack"` scheme, reusing the one labeling and starting each message
  only after the acknowledgement of the previous one arrives (exactly the
  pacing the paper says acknowledged broadcast enables);
* for comparison, the same workload is run with the registered
  `"round_robin"` scheme (folklore O(log n)-bit labels), and the label memory
  needed by each approach is printed.

Run:  python examples/iot_deployment.py [--devices 60] [--range 0.25]
      [--messages 5] [--seed 7]
"""

from __future__ import annotations

import argparse

from repro import api
from repro.analysis import round_robin_label_bits
from repro.core import lambda_ack_scheme
from repro.graphs import random_geometric_graph, source_radius


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--devices", type=int, default=60, help="number of deployed devices")
    parser.add_argument("--range", dest="radio_range", type=float, default=0.25,
                        help="transmission range on the unit square")
    parser.add_argument("--messages", type=int, default=5,
                        help="number of consecutive messages to broadcast")
    parser.add_argument("--seed", type=int, default=7, help="deployment seed")
    parser.add_argument("--gateway", type=int, default=0, help="source device index")
    args = parser.parse_args()

    network = random_geometric_graph(args.devices, args.radio_range, seed=args.seed)
    print(f"Deployment: {network.summary()}, "
          f"gateway eccentricity {source_radius(network, args.gateway)} hops")

    # One-time labeling by the central monitor.
    labeling = lambda_ack_scheme(network, args.gateway)
    print(f"Monitor assigns λ_ack labels: {labeling.length} bits/device, "
          f"{labeling.num_distinct_labels()} distinct roles")

    # The gateway streams messages, pacing on acknowledgements, reusing the
    # monitor's labeling for every message.
    ack_scheme = api.get_scheme("lambda_ack")
    total_rounds = 0
    total_messages = 0
    for k in range(args.messages):
        outcome = ack_scheme.run(
            network, args.gateway, labeling=labeling, payload=f"firmware-chunk-{k}"
        )
        assert outcome.completed, "broadcast must complete (Theorem 3.9)"
        assert outcome.acknowledgement_round is not None
        total_rounds += outcome.acknowledgement_round
        total_messages += outcome.total_transmissions
        print(f"  message {k}: delivered by round {outcome.completion_round}, "
              f"acknowledged in round {outcome.acknowledgement_round}, "
              f"{outcome.total_transmissions} transmissions")
    print(f"Stream of {args.messages} messages: {total_rounds} rounds total, "
          f"{total_messages} transmissions, with only 3 bits of state per device.")

    # The folklore alternative: unique O(log n)-bit identifiers.
    rr = api.get_scheme("round_robin").run(network, args.gateway)
    print(f"\nRound-robin comparison: {rr.label_bits} bits/device "
          f"(formula: {round_robin_label_bits(network.n)}), one message needs "
          f"{rr.completion_round} rounds and {rr.total_transmissions} transmissions.")
    per_device_saving = rr.label_bits - labeling.length
    print(f"Label memory saved by the paper's scheme: {per_device_saving} bits per device "
          f"({per_device_saving * network.n} bits across the deployment).")


if __name__ == "__main__":
    main()
