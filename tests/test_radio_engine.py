"""Unit tests for the radio simulation engine: collision semantics, delivery rules."""

from __future__ import annotations

from typing import Any, Optional

import pytest

from repro.graphs import Graph, path_graph, star_graph
from repro.radio import (
    Message,
    NoCollisionDetection,
    RadioNode,
    RadioSimulator,
    SilentNode,
    WithCollisionDetection,
    source_message,
)


class AlwaysTransmitNode(RadioNode):
    """Transmits its node id every round (used to provoke collisions)."""

    def decide(self, local_round: int) -> Optional[Message]:
        return source_message(f"from-{self.node_id}")


class TransmitOnceNode(RadioNode):
    """Transmits in a fixed round, listens otherwise."""

    def __init__(self, node_id, label, *, is_source=False, source_payload=None, when=1):
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.when = when
        self.heard = []

    def decide(self, local_round):
        if local_round == self.when:
            return source_message(f"msg-{self.node_id}")
        return None

    def on_receive(self, local_round, message):
        self.heard.append((local_round, message.payload))


def _uniform_labels(graph: Graph) -> dict:
    return {v: "0" for v in graph.nodes()}


def _factory(cls, **kwargs):
    def make(node_id, label, is_source, source_payload):
        return cls(node_id, label, is_source=is_source, source_payload=source_payload, **kwargs)
    return make


class TestCollisionSemantics:
    def test_single_transmitter_is_heard(self):
        g = star_graph(5)  # node 0 adjacent to 1..4
        nodes = {}

        def make(node_id, label, is_source, source_payload):
            node = TransmitOnceNode(node_id, label, is_source=is_source,
                                    source_payload=source_payload,
                                    when=1 if node_id == 0 else 999)
            nodes[node_id] = node
            return node

        sim = RadioSimulator(g, _uniform_labels(g), make, source=0, source_payload="x")
        sim.step()
        record = sim.trace.record(1)
        assert set(record.receptions) == {1, 2, 3, 4}
        assert all(m.payload == "msg-0" for m in record.receptions.values())
        assert not record.collisions

    def test_two_transmitters_collide_at_common_neighbour(self):
        # 1 and 2 both adjacent to 0; they transmit simultaneously.
        g = Graph.from_edges(3, [(0, 1), (0, 2)])

        def make(node_id, label, is_source, source_payload):
            when = 1 if node_id in (1, 2) else 999
            return TransmitOnceNode(node_id, label, is_source=is_source,
                                    source_payload=source_payload, when=when)

        sim = RadioSimulator(g, _uniform_labels(g), make, source=None)
        sim.step()
        record = sim.trace.record(1)
        assert record.receptions == {}
        assert record.collisions == frozenset({0})

    def test_collision_not_reported_to_node_without_detection(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        listeners = {}

        class Listener(SilentNode):
            def __init__(self, node_id, label, *, is_source=False, source_payload=None):
                super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
                self.collisions_seen = 0
                listeners[node_id] = self

            def on_collision(self, local_round):
                self.collisions_seen += 1

        def make(node_id, label, is_source, source_payload):
            if node_id == 0:
                return Listener(node_id, label)
            return TransmitOnceNode(node_id, label, when=1)

        sim = RadioSimulator(g, _uniform_labels(g), make, source=None,
                             collision_model=NoCollisionDetection())
        sim.step()
        assert listeners[0].collisions_seen == 0  # indistinguishable from silence

    def test_collision_reported_with_detection_model(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        listeners = {}

        class Listener(SilentNode):
            def __init__(self, node_id, label, *, is_source=False, source_payload=None):
                super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
                self.collisions_seen = 0
                listeners[node_id] = self

            def on_collision(self, local_round):
                self.collisions_seen += 1

        def make(node_id, label, is_source, source_payload):
            if node_id == 0:
                return Listener(node_id, label)
            return TransmitOnceNode(node_id, label, when=1)

        sim = RadioSimulator(g, _uniform_labels(g), make, source=None,
                             collision_model=WithCollisionDetection())
        sim.step()
        assert listeners[0].collisions_seen == 1

    def test_transmitter_hears_nothing_in_its_own_round(self):
        g = path_graph(2)

        def make(node_id, label, is_source, source_payload):
            return TransmitOnceNode(node_id, label, is_source=is_source,
                                    source_payload=source_payload, when=1)

        sim = RadioSimulator(g, _uniform_labels(g), make, source=None)
        sim.step()
        # Both transmit: neither hears anything (they are busy transmitting).
        assert sim.trace.record(1).receptions == {}

    def test_non_neighbours_do_not_hear(self):
        g = path_graph(4)

        def make(node_id, label, is_source, source_payload):
            return TransmitOnceNode(node_id, label, when=1 if node_id == 0 else 999)

        sim = RadioSimulator(g, _uniform_labels(g), make, source=None)
        sim.step()
        assert set(sim.trace.record(1).receptions) == {1}


class TestEngineMechanics:
    def test_missing_labels_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            RadioSimulator(g, {0: "0"}, _factory(SilentNode), source=None)

    def test_invalid_source_rejected(self):
        g = path_graph(3)
        with pytest.raises(Exception):
            RadioSimulator(g, _uniform_labels(g), _factory(SilentNode), source=9)

    def test_round_budget_respected(self):
        g = path_graph(4)
        sim = RadioSimulator(g, _uniform_labels(g), _factory(SilentNode), source=None)
        result = sim.run(max_rounds=7)
        assert result.stop_round == 7
        assert result.stop_reason == "budget"
        assert sim.trace.num_rounds == 7

    def test_stop_condition(self):
        g = star_graph(4)

        def make(node_id, label, is_source, source_payload):
            return TransmitOnceNode(node_id, label, is_source=is_source,
                                    source_payload=source_payload,
                                    when=1 if node_id == 0 else 999)

        sim = RadioSimulator(g, _uniform_labels(g), make, source=0, source_payload="x")
        result = sim.run(max_rounds=50, stop_condition=lambda s: s.trace.num_rounds >= 3)
        assert result.stop_round == 3
        assert result.completed

    def test_negative_budget_rejected(self):
        g = path_graph(2)
        sim = RadioSimulator(g, _uniform_labels(g), _factory(SilentNode), source=None)
        with pytest.raises(ValueError):
            sim.run(max_rounds=-1)

    def test_determinism_same_inputs_same_trace(self):
        g = path_graph(6)

        def make(node_id, label, is_source, source_payload):
            return AlwaysTransmitNode(node_id, label, is_source=is_source,
                                      source_payload=source_payload)

        sims = []
        for _ in range(2):
            sim = RadioSimulator(g, _uniform_labels(g), make, source=None)
            sim.run(max_rounds=5)
            sims.append(sim.trace.to_json())
        assert sims[0] == sims[1]

    def test_history_recorded_per_node(self):
        g = path_graph(2)

        def make(node_id, label, is_source, source_payload):
            return TransmitOnceNode(node_id, label, when=1 if node_id == 0 else 999)

        sim = RadioSimulator(g, _uniform_labels(g), make, source=None)
        sim.run(max_rounds=3)
        assert sim.nodes[0].ever_sent and not sim.nodes[0].ever_heard
        assert sim.nodes[1].ever_heard and not sim.nodes[1].ever_sent
        assert sim.nodes[1].heard_in(1).payload == "msg-0"
        assert sim.nodes[0].sent_in(1) is not None
        assert sim.nodes[0].sent_in(2) is None
