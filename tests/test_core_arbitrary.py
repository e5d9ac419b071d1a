"""Tests for Algorithm B_arb (Section 4): broadcast from an undesignated source."""

from __future__ import annotations

import pytest

from repro.api import get_scheme
from repro.core import (
    ArbitrarySourceNode,
    COORDINATOR_LABEL,
    lambda_arb_scheme,
    verify_broadcast_outcome,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_gnp_graph,
    star_graph,
)
from repro.radio import ack_message, initialize_message, ready_message


class TestArbitraryNodeUnit:
    def test_coordinator_recognised_from_label(self):
        node = ArbitrarySourceNode(3, COORDINATOR_LABEL)
        assert node.is_coordinator
        assert node.t_v == 0

    def test_coordinator_starts_with_initialize(self):
        node = ArbitrarySourceNode(0, COORDINATOR_LABEL)
        msg = node.decide(1)
        assert msg is not None and msg.is_initialize and msg.round_stamp == 1

    def test_non_coordinator_stores_t_v(self):
        node = ArbitrarySourceNode(4, "100")
        node.deliver(3, None, initialize_message(round_stamp=3))
        assert node.t_v == 3

    def test_ready_sets_T_and_source_timer(self):
        node = ArbitrarySourceNode(4, "000", is_source=True, source_payload="mu")
        node.deliver(2, None, initialize_message(round_stamp=2))
        node.deliver(10, None, ready_message(5, round_stamp=10))
        assert node.T == 5
        # the actual source schedules its phase-2 ack T+1 rounds later
        for r in range(11, 16):
            assert node.decide(r) is None or not node.decide(r).is_ack
        ack = node.decide(16)
        assert ack is not None and ack.is_ack and ack.payload == "mu"

    def test_acknowledger_acks_only_in_phase_one(self):
        node = ArbitrarySourceNode(7, "001")
        node.deliver(4, None, initialize_message(round_stamp=4))
        msg = node.decide(5)
        assert msg is not None and msg.is_ack and msg.payload == 4
        # phase 2: same node must stay silent one round after hearing "ready"
        node.deliver(5, msg, None)
        node.deliver(20, None, ready_message(9, round_stamp=20))
        after = node.decide(21)
        assert after is None or not after.is_ack

    def test_coordinator_learns_T_from_ack(self):
        node = ArbitrarySourceNode(0, COORDINATOR_LABEL)
        first = node.decide(1)
        node.deliver(1, first, None)
        node.deliver(4, None, ack_message(3, payload=3))
        assert node.T == 3
        # phase 2 starts after the guard delay of T rounds
        ready_round = 4 + 3 + 1
        for r in range(5, ready_round):
            assert node.decide(r) is None
        ready = node.decide(ready_round)
        assert ready is not None and ready.is_ready and ready.payload == 3


class TestEndToEnd:
    def test_every_source_works_small_graphs(self):
        for graph in (path_graph(5), cycle_graph(6), star_graph(6), grid_graph(3, 3),
                      complete_graph(5)):
            labeling = lambda_arb_scheme(graph)
            for source in graph.nodes():
                outcome = get_scheme("lambda_arb").run(
                    graph, source, labeling=labeling
                )
                assert outcome.completed, (graph, source)
                assert outcome.common_completion_round is not None, (graph, source)

    def test_fixture_families(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_arb").run(graph, source)
        assert outcome.completed
        assert outcome.common_completion_round is not None
        assert verify_broadcast_outcome(graph, outcome) == []

    def test_source_equals_coordinator(self):
        graph = grid_graph(3, 4)
        outcome = get_scheme("lambda_arb").run(graph, 0, coordinator=0)
        assert outcome.completed
        assert outcome.common_completion_round is not None

    def test_source_equals_acknowledger(self):
        graph = path_graph(7)
        labeling = lambda_arb_scheme(graph)
        z = labeling.acknowledger
        outcome = get_scheme("lambda_arb").run(graph, z, labeling=labeling)
        assert outcome.completed

    def test_all_nodes_know_completion_in_same_round(self):
        graph = random_gnp_graph(20, 0.15, seed=3)
        outcome = get_scheme("lambda_arb").run(graph, 11)
        rounds = {
            node.completion_known_local_round
            for node in outcome.simulation.nodes
            if isinstance(node, ArbitrarySourceNode)
        }
        assert len(rounds) == 1
        assert None not in rounds

    def test_everyone_actually_holds_the_payload(self):
        graph = cycle_graph(9)
        outcome = get_scheme("lambda_arb").run(graph, 4, payload="secret-42")
        for node in outcome.simulation.nodes:
            assert isinstance(node, ArbitrarySourceNode)
            assert node.sourcemsg == "secret-42" or node.holds_message

    def test_labeling_is_source_independent(self):
        # The same labeling (computed once) must serve every possible source.
        graph = random_gnp_graph(16, 0.2, seed=9)
        labeling = lambda_arb_scheme(graph)
        completions = []
        for source in range(0, graph.n, 4):
            outcome = get_scheme("lambda_arb").run(graph, source,
                                                   labeling=labeling)
            assert outcome.completed
            completions.append(outcome.completion_round)
        assert all(c is not None for c in completions)

    def test_phases_do_not_overlap(self):
        # No round mixes the "initialize"/"ready"/final µ broadcasts.
        graph = grid_graph(4, 4)
        outcome = get_scheme("lambda_arb").run(graph, 10)
        for record in outcome.trace.rounds:
            kinds = {m.kind for m in record.transmissions.values()}
            broadcast_kinds = kinds & {"initialize", "ready", "source"}
            assert len(broadcast_kinds) <= 1

    def test_single_node(self):
        from repro.graphs import Graph

        outcome = get_scheme("lambda_arb").run(Graph.empty(1), 0)
        assert outcome.completed
