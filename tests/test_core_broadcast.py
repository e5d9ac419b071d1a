"""Tests for Algorithm B: Theorem 2.9, Lemma 2.8 and the protocol state machine."""

from __future__ import annotations

import pytest

from repro.api import get_scheme
from repro.core import (
    BroadcastNode,
    check_lemma_2_8,
    check_theorem_2_9,
    lambda_scheme,
    verify_broadcast_outcome,
)
from repro.graphs import complete_graph, cycle_graph, grid_graph, path_graph, star_graph
from repro.radio import source_message, stay_message


class TestBroadcastNodeUnit:
    """Direct unit tests of the Algorithm 1 state machine, without a simulator."""

    def test_source_transmits_only_in_first_round(self):
        node = BroadcastNode(0, "10", is_source=True, source_payload="mu")
        msg = node.decide(1)
        assert msg is not None and msg.is_source and msg.payload == "mu"
        node.deliver(1, msg, None)
        assert node.decide(2) is None

    def test_source_requires_payload(self):
        with pytest.raises(ValueError):
            BroadcastNode(0, "10", is_source=True, source_payload=None)

    def test_uninformed_node_listens(self):
        node = BroadcastNode(1, "11")
        assert node.decide(1) is None
        node.deliver(1, None, None)
        assert node.decide(2) is None

    def test_x1_node_retransmits_two_rounds_after_receipt(self):
        node = BroadcastNode(1, "10")
        node.deliver(3, None, source_message("mu"))
        assert node.decide(4) is None  # round 4: x2=0, so no stay message
        node.deliver(4, None, None)
        msg = node.decide(5)
        assert msg is not None and msg.is_source and msg.payload == "mu"

    def test_x0_node_never_retransmits(self):
        node = BroadcastNode(1, "00")
        node.deliver(3, None, source_message("mu"))
        node.deliver(4, None, None)
        assert node.decide(5) is None

    def test_x2_node_sends_stay_one_round_after_receipt(self):
        node = BroadcastNode(1, "01")
        node.deliver(3, None, source_message("mu"))
        msg = node.decide(4)
        assert msg is not None and msg.is_stay

    def test_stay_message_does_not_inform(self):
        node = BroadcastNode(1, "11")
        node.deliver(2, None, stay_message())
        assert not node.knows_source_message
        node.deliver(3, None, source_message("mu"))
        assert node.knows_source_message
        assert node.informed_local_round == 3

    def test_stay_triggered_retransmission(self):
        node = BroadcastNode(1, "10")
        node.deliver(1, None, source_message("mu"))          # informed in round 1
        node.deliver(2, None, None)
        sent = node.decide(3)                                  # x1 retransmission
        node.deliver(3, sent, None)
        node.deliver(4, None, stay_message())                  # told to stay
        again = node.decide(5)
        assert again is not None and again.is_source

    def test_no_stay_no_retransmission(self):
        node = BroadcastNode(1, "10")
        node.deliver(1, None, source_message("mu"))
        node.deliver(2, None, None)
        sent = node.decide(3)
        node.deliver(3, sent, None)
        node.deliver(4, None, None)                            # silence instead of stay
        assert node.decide(5) is None

    def test_behaviour_independent_of_clock_offset(self):
        # The same event sequence shifted by +100 rounds produces the same decisions.
        def run(offset):
            node = BroadcastNode(1, "10")
            node.deliver(1 + offset, None, source_message("mu"))
            node.deliver(2 + offset, None, None)
            return node.decide(3 + offset)

        assert run(0) is not None
        assert run(100) is not None
        assert run(0).kind == run(100).kind


class TestTheorem29:
    def test_all_families_complete_within_bound(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda").run(graph, source)
        assert outcome.completed, f"{name}: broadcast did not complete"
        assert outcome.completion_round <= max(1, 2 * graph.n - 3)
        assert not check_theorem_2_9(graph, outcome)

    def test_sharp_bound_2ell_minus_3(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda").run(graph, source)
        seq = outcome.labeling.construction
        if graph.n > 1:
            assert outcome.completion_round == 2 * seq.ell - 3

    def test_path_from_endpoint_is_tight(self):
        # The path realises the worst case 2n-3 exactly.
        for n in (4, 6, 9, 12):
            outcome = get_scheme("lambda").run(path_graph(n), 0)
            assert outcome.completion_round == 2 * n - 3

    def test_star_completes_in_one_round(self):
        outcome = get_scheme("lambda").run(star_graph(30), 0)
        assert outcome.completion_round == 1

    def test_complete_graph_one_round(self):
        outcome = get_scheme("lambda").run(complete_graph(12), 5)
        assert outcome.completion_round == 1

    def test_only_source_transmits_in_round_one(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda").run(graph, source)
        first = outcome.trace.record(1)
        assert set(first.transmissions) == {source}


class TestLemma28:
    def test_characterisation_matches_trace(self, labeled_instance):
        name, graph, source = labeled_instance
        labeling = lambda_scheme(graph, source)
        outcome = get_scheme("lambda").run(graph, source, labeling=labeling)
        violations = check_lemma_2_8(graph, labeling, labeling.construction, outcome.trace)
        assert violations == []

    def test_odd_rounds_transmit_source_even_rounds_stay(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda").run(graph, source)
        for record in outcome.trace.rounds:
            kinds = {m.kind for m in record.transmissions.values()}
            if record.round_number % 2 == 1:
                assert kinds <= {"source"}
            else:
                assert kinds <= {"stay"}

    def test_full_verification_clean(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda").run(graph, source)
        assert verify_broadcast_outcome(graph, outcome) == []

    def test_uninformed_nodes_never_transmit(self, labeled_instance):
        name, graph, source = labeled_instance
        outcome = get_scheme("lambda").run(graph, source)
        informed_by = outcome.trace.informed_by_round()
        for record in outcome.trace.rounds:
            for v in record.transmissions:
                if v == source:
                    continue
                assert v in informed_by and informed_by[v] < record.round_number


class TestMessageEconomy:
    def test_transmission_count_linear(self):
        # Each node transmits µ at most once per stage it belongs to a DOM set,
        # plus at most one stay; the total stays well below n per stage.
        g = grid_graph(6, 6)
        outcome = get_scheme("lambda").run(g, 0)
        assert outcome.total_transmissions <= 4 * g.n

    def test_messages_are_source_or_stay_only(self):
        outcome = get_scheme("lambda").run(cycle_graph(10), 0)
        kinds = set(outcome.trace.transmissions_by_kind())
        assert kinds <= {"source", "stay"}
