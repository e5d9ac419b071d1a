"""Tests for the baseline broadcast schemes and their comparison metrics."""

from __future__ import annotations

import math

import pytest

from repro.api import get_scheme
from repro.baselines import (
    bits_needed,
    coloring_tdma_labels,
    compute_centralized_schedule,
    decode_payload_bits,
    encode_payload_bits,
    int_to_bits,
    round_robin_labels,
)
from repro.graphs import (
    GraphError,
    complete_graph,
    cycle_graph,
    graph_square,
    grid_graph,
    path_graph,
    random_gnp_graph,
    star_graph,
)


class TestEncodingHelpers:
    def test_int_to_bits(self):
        assert int_to_bits(5, 4) == "0101"
        assert int_to_bits(0, 1) == "0"
        with pytest.raises(ValueError):
            int_to_bits(8, 3)
        with pytest.raises(ValueError):
            int_to_bits(-1, 3)
        with pytest.raises(ValueError):
            int_to_bits(1, 0)

    def test_bits_needed(self):
        assert bits_needed(1) == 1
        assert bits_needed(2) == 1
        assert bits_needed(3) == 2
        assert bits_needed(16) == 4
        assert bits_needed(17) == 5

    def test_payload_bit_roundtrip(self):
        for payload in ("x", "hello world", "µ-message", ""):
            bits = encode_payload_bits(payload)
            assert decode_payload_bits(bits) == payload

    def test_decode_incomplete_stream(self):
        bits = encode_payload_bits("hello")
        assert decode_payload_bits(bits[:10]) is None
        assert decode_payload_bits(bits[:-3]) is None


class TestRoundRobin:
    def test_labels_distinct_and_log_sized(self):
        g = random_gnp_graph(20, 0.15, seed=1)
        labels = round_robin_labels(g)
        assert len(set(labels.values())) == g.n
        assert all(len(lab) == 2 * math.ceil(math.log2(g.n)) for lab in labels.values())

    def test_completes_on_all_families(self):
        for g, src in [(path_graph(9), 0), (cycle_graph(8), 2), (grid_graph(4, 4), 0),
                       (star_graph(10), 3), (random_gnp_graph(18, 0.2, seed=2), 0)]:
            outcome = get_scheme("round_robin").run(g, src)
            assert outcome.completed, g
            assert outcome.total_collisions == 0  # distinct slots never collide

    def test_slower_than_lambda_on_sparse_graphs(self):
        g = random_gnp_graph(30, 0.1, seed=5)
        rr = get_scheme("round_robin").run(g, 0)
        lb = get_scheme("lambda").run(g, 0)
        assert rr.completion_round >= lb.completion_round

    def test_invalid_source(self):
        with pytest.raises(GraphError):
            get_scheme("round_robin").run(path_graph(3), 9)

    def test_summary_row(self):
        row = get_scheme("round_robin").run(path_graph(5), 0).summary_row()
        assert row["scheme"] == "round_robin"
        assert row["rounds"] is not None


class TestColoringTdma:
    def test_labels_encode_square_coloring(self):
        g = grid_graph(4, 4)
        labels, colours = coloring_tdma_labels(g)
        assert colours <= g.max_degree() ** 2 + 1
        # nodes at distance <= 2 must have different colour fields
        g2 = graph_square(g)
        width = len(next(iter(labels.values()))) // 2
        for u, v in g2.edges():
            assert labels[u][:width] != labels[v][:width]

    def test_completes_without_collisions(self):
        for g, src in [(grid_graph(4, 5), 0), (cycle_graph(9), 0),
                       (random_gnp_graph(20, 0.2, seed=7), 3)]:
            outcome = get_scheme("coloring_tdma").run(g, src)
            assert outcome.completed
            assert outcome.total_collisions == 0

    def test_label_length_grows_with_degree_not_n(self):
        small_deg = get_scheme("coloring_tdma").run(cycle_graph(40), 0)
        big_deg = get_scheme("coloring_tdma").run(star_graph(40), 0)
        assert small_deg.label_bits < big_deg.label_bits

    def test_invalid_source(self):
        with pytest.raises(GraphError):
            get_scheme("coloring_tdma").run(path_graph(3), -1)


class TestCollisionDetectionBaseline:
    def test_anonymous_broadcast_with_detection(self):
        for g in (path_graph(6), grid_graph(3, 4), star_graph(8)):
            outcome = get_scheme("collision_detection").run(g, 0, payload="OK")
            assert outcome.completed
            assert outcome.label_bits == 0
            assert outcome.extras["decoded_correctly"]

    def test_payload_recovered_exactly(self):
        outcome = get_scheme("collision_detection").run(grid_graph(3, 3), 0, payload="hello µ!")
        assert outcome.extras["decoded_correctly"]

    def test_fails_without_detection_on_dense_graph(self):
        # Without collision detection the OR-channel trick breaks on graphs
        # where listeners have several previous-layer neighbours.
        outcome = get_scheme("collision_detection").run(
            grid_graph(3, 4), 0, payload="OK", with_detection=False
        )
        assert not outcome.completed

    def test_rounds_scale_with_message_length(self):
        short = get_scheme("collision_detection").run(path_graph(5), 0, payload="a")
        long = get_scheme("collision_detection").run(path_graph(5), 0, payload="a" * 8)
        assert long.completion_round > short.completion_round

    def test_invalid_source(self):
        with pytest.raises(GraphError):
            get_scheme("collision_detection").run(path_graph(3), 5)


class TestCentralizedSchedule:
    def test_schedule_informs_everyone(self):
        for g, src in [(path_graph(8), 0), (grid_graph(4, 4), 5),
                       (random_gnp_graph(22, 0.15, seed=9), 0)]:
            schedule = compute_centralized_schedule(g, src)
            outcome = get_scheme("centralized").run(g, src)
            assert outcome.completed
            assert outcome.completion_round == len(schedule)

    def test_schedule_is_collision_free_for_new_nodes(self):
        g = grid_graph(4, 4)
        outcome = get_scheme("centralized").run(g, 0)
        assert outcome.completed

    def test_faster_than_universal_scheme(self):
        # Unbounded advice buys speed: the centralised schedule never needs the
        # even "stay" rounds, so it is at least as fast as λ+B.
        for g in (path_graph(10), grid_graph(4, 5), random_gnp_graph(25, 0.12, seed=4)):
            central = get_scheme("centralized").run(g, 0)
            universal = get_scheme("lambda").run(g, 0)
            assert central.completion_round <= universal.completion_round

    def test_source_validation(self):
        with pytest.raises(GraphError):
            compute_centralized_schedule(path_graph(4), 9)

    def test_disconnected_rejected(self):
        from repro.graphs import Graph

        with pytest.raises(GraphError):
            compute_centralized_schedule(Graph.from_edges(4, [(0, 1), (2, 3)]), 0)
