"""Tests for Algorithm B_ack: Theorem 3.9, Corollary 3.8, Lemma 3.5/3.6 behaviour."""

from __future__ import annotations

import pytest

from repro.api import get_scheme
from repro.core import (
    AcknowledgedBroadcastNode,
    check_theorem_3_9,
    lambda_ack_scheme,
    verify_broadcast_outcome,
)
from repro.graphs import complete_graph, cycle_graph, grid_graph, path_graph, star_graph
from repro.radio import ack_message, source_message, stay_message


class TestAcknowledgedNodeUnit:
    def test_source_stamps_first_transmission_with_one(self):
        node = AcknowledgedBroadcastNode(0, "100", is_source=True, source_payload="mu")
        msg = node.decide(1)
        assert msg.is_source and msg.round_stamp == 1

    def test_informed_round_taken_from_stamp(self):
        node = AcknowledgedBroadcastNode(1, "100")
        node.deliver(5, None, source_message("mu", round_stamp=5))
        assert node.informed_stamp == 5
        node.deliver(6, None, None)
        msg = node.decide(7)
        assert msg.is_source and msg.round_stamp == 7
        assert 7 in node.transmit_stamps

    def test_stay_carries_incremented_stamp(self):
        node = AcknowledgedBroadcastNode(1, "010")
        node.deliver(3, None, source_message("mu", round_stamp=3))
        msg = node.decide(4)
        assert msg.is_stay and msg.round_stamp == 4

    def test_acknowledger_starts_chain(self):
        node = AcknowledgedBroadcastNode(1, "001")
        node.deliver(9, None, source_message("mu", round_stamp=9))
        msg = node.decide(10)
        assert msg.is_ack and msg.round_stamp == 9

    def test_relay_requires_matching_transmit_round(self):
        node = AcknowledgedBroadcastNode(1, "100")
        node.deliver(3, None, source_message("mu", round_stamp=3))
        node.deliver(4, None, None)
        sent = node.decide(5)
        node.deliver(5, sent, None)
        # hears an ack for round 5 (which it transmitted in): must relay with its own informedRound
        node.deliver(6, None, ack_message(5))
        relay = node.decide(7)
        assert relay.is_ack and relay.round_stamp == 3

    def test_relay_ignores_non_matching_ack(self):
        node = AcknowledgedBroadcastNode(1, "100")
        node.deliver(3, None, source_message("mu", round_stamp=3))
        node.deliver(4, None, None)
        sent = node.decide(5)
        node.deliver(5, sent, None)
        node.deliver(6, None, ack_message(99))
        assert node.decide(7) is None

    def test_source_records_acknowledgement(self):
        node = AcknowledgedBroadcastNode(0, "100", is_source=True, source_payload="mu")
        first = node.decide(1)
        node.deliver(1, first, None)
        node.deliver(2, None, ack_message(1))
        assert node.has_acknowledged
        assert node.acknowledged_local_round == 2

    def test_source_does_not_relay_acks(self):
        node = AcknowledgedBroadcastNode(0, "100", is_source=True, source_payload="mu")
        first = node.decide(1)
        node.deliver(1, first, None)
        node.deliver(2, None, ack_message(1))
        assert node.decide(3) is None

    def test_ack_does_not_count_as_source_message(self):
        node = AcknowledgedBroadcastNode(2, "000")
        node.deliver(4, None, ack_message(3, payload="whatever"))
        assert not node.knows_source_message


class TestTheorem39:
    def test_all_families_acknowledge(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        assert outcome.completed
        assert outcome.acknowledgement_round is not None
        assert check_theorem_3_9(graph, outcome) == []

    def test_ack_strictly_after_completion(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        if graph.n > 1:
            assert outcome.acknowledgement_round > outcome.completion_round

    def test_corollary_38_window(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        seq = outcome.labeling.construction
        if graph.n > 1 and seq.ell >= 2:
            lo, hi = 2 * seq.ell - 2, 3 * seq.ell - 4
            assert lo <= outcome.acknowledgement_round <= hi

    def test_broadcast_part_matches_plain_algorithm(self, labeled_instance):
        # The µ/stay schedule of B_ack is identical to B; in particular the
        # completion rounds agree.

        name, graph, source = labeled_instance
        plain = get_scheme("lambda").run(graph, source)
        acked = get_scheme("lambda_ack").run(graph, source)
        assert plain.completion_round == acked.completion_round

    def test_full_verification_clean(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        assert verify_broadcast_outcome(graph, outcome) == []

    def test_path_realises_late_ack(self):
        # On the path from an endpoint the ack arrives at round 3ℓ-4 = 3n-4,
        # i.e. completion + n - 1 (one more than the literal Theorem 3.9 text;
        # see EXPERIMENTS.md).
        n = 9
        outcome = get_scheme("lambda_ack").run(path_graph(n), 0)
        assert outcome.completion_round == 2 * n - 3
        assert outcome.acknowledgement_round == 3 * n - 4

    def test_two_node_graph(self):
        outcome = get_scheme("lambda_ack").run(path_graph(2), 0)
        assert outcome.completion_round == 1
        assert outcome.acknowledgement_round == 2

    def test_single_node_graph(self):
        from repro.graphs import Graph

        outcome = get_scheme("lambda_ack").run(Graph.empty(1), 0)
        assert outcome.completed


class TestAckChainMechanics:
    def test_at_most_one_transmitter_after_broadcast_ends(self, labeled_instance):
        # Lemma 3.6: after round 2ℓ-3, at most one node transmits per round.
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        if graph.n <= 1:
            return
        cutoff = outcome.completion_round
        for record in outcome.trace.rounds:
            if record.round_number > cutoff:
                assert record.num_transmitters <= 1

    def test_ack_stamps_strictly_decrease_along_chain(self, labeled_instance):
        # Lemma 3.7: each relayed ack carries a strictly smaller informing round.
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        stamps = [
            m.round_stamp
            for record in outcome.trace.rounds
            for m in record.transmissions.values()
            if m.is_ack
        ]
        assert stamps == sorted(stamps, reverse=True)
        assert len(stamps) == len(set(stamps))

    def test_stamped_messages_sent_in_matching_round(self, labeled_instance):
        # Lemma 3.5: a message stamped t is transmitted exactly in round t.
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        for record in outcome.trace.rounds:
            for m in record.transmissions.values():
                if (m.is_source or m.is_stay) and m.round_stamp is not None:
                    assert m.round_stamp == record.round_number

    def test_no_mu_or_stay_after_completion(self, labeled_instance):
        # Observation 3.3.
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda_ack").run(graph, source)
        if graph.n <= 1:
            return
        for record in outcome.trace.rounds:
            if record.round_number > outcome.completion_round:
                kinds = {m.kind for m in record.transmissions.values()}
                assert "stay" not in kinds and "source" not in kinds
