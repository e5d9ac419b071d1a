"""Tests for the trace_level knob: summary traces keep metrics, drop records."""

from __future__ import annotations

import pytest

from repro.analysis import message_bits_total, metrics_from_run
from repro.api import get_scheme
from repro.graphs import grid_graph, path_graph
from repro.radio import (
    TRACE_LEVELS,
    ExecutionTrace,
    RoundRecord,
    TraceLevelError,
    run_protocol,
)
from repro.radio.messages import source_message


class TestTraceLevelKnob:
    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTrace(num_nodes=2, source=0, level="verbose")

    def test_levels_exported(self):
        assert TRACE_LEVELS == ("none", "summary", "full")

    def test_summary_trace_keeps_aggregates_but_not_records(self):
        trace = ExecutionTrace(num_nodes=3, source=0, level="summary")
        msg = source_message("MSG")
        trace.append(RoundRecord(1, {0: msg}, {1: msg}, frozenset()))
        trace.append(RoundRecord(2, {1: msg}, {2: msg}, frozenset({0})))
        assert trace.num_rounds == 2
        assert not trace.has_full_records
        assert trace.total_transmissions() == 2
        assert trace.total_receptions() == 2
        assert trace.total_collisions() == 1
        assert trace.informed_nodes() == {0, 1, 2}
        assert trace.broadcast_completion_round() == 2
        assert trace.transmissions_by_kind() == {"source": 2}

    def test_summary_trace_raises_on_record_access(self):
        trace = ExecutionTrace(num_nodes=2, source=0, level="summary")
        msg = source_message("MSG")
        trace.append(RoundRecord(1, {0: msg}, {1: msg}, frozenset()))
        with pytest.raises(TraceLevelError):
            trace.record(1)
        with pytest.raises(TraceLevelError):
            trace.to_json()
        with pytest.raises(TraceLevelError):
            trace.transmit_rounds(0)
        with pytest.raises(TraceLevelError):
            list(trace)
        with pytest.raises(TraceLevelError):
            trace.rounds  # direct record access must not silently yield []

    def test_summary_trace_equality_compares_aggregates(self):
        msg = source_message("MSG")

        def build(receiver):
            trace = ExecutionTrace(num_nodes=3, source=0, level="summary")
            trace.append(RoundRecord(1, {0: msg}, {receiver: msg}, frozenset()))
            return trace

        assert build(1) == build(1)
        assert build(1) != build(2)  # different executions must not compare equal

    def test_full_trace_aggregates_match_recomputation(self):
        outcome = get_scheme("lambda").run(grid_graph(4, 4), 0, trace_level="full")
        trace = outcome.trace
        assert trace.total_transmissions() == sum(
            r.num_transmitters for r in trace.rounds
        )
        assert trace.total_collisions() == sum(len(r.collisions) for r in trace.rounds)
        # first/last-ack helpers agree with a manual scan
        manual_first = {}
        for r in trace.rounds:
            for node, msg in r.receptions.items():
                if msg.is_source and node not in manual_first:
                    manual_first[node] = r.round_number
        assert trace.informed_by_round() == manual_first


class TestSummaryLevelOutcomes:
    @pytest.mark.parametrize("level", ["none", "summary", "full"])
    def test_broadcast_outcome_identical_across_levels(self, level):
        full = get_scheme("lambda").run(path_graph(12), 0, trace_level="full")
        other = get_scheme("lambda").run(path_graph(12), 0, trace_level=level)
        assert other.completion_round == full.completion_round
        assert other.total_transmissions == full.total_transmissions
        assert other.total_collisions == full.total_collisions

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_metrics_row_identical_across_levels(self, backend):
        graph = grid_graph(4, 4)
        rows = []
        for level in ("summary", "full"):
            outcome = get_scheme("lambda_ack").run(
                graph, 0, backend=backend, trace_level=level
            )
            rows.append(metrics_from_run(graph, outcome, family="grid", source=0))
        assert rows[0] == rows[1]

    def test_message_bits_agree_between_levels(self):
        for level in ("summary", "full"):
            outcome = get_scheme("lambda_ack").run(path_graph(9), 0, trace_level=level)
            assert message_bits_total(outcome.trace) == message_bits_total(
                get_scheme("lambda_ack").run(path_graph(9), 0, trace_level="full").trace
            )

    def test_run_protocol_threads_trace_level(self):
        from repro.core.protocols.broadcast import make_broadcast_node
        from repro.core.labeling import lambda_scheme

        graph = path_graph(6)
        lab = lambda_scheme(graph, 0)
        sim = run_protocol(
            graph, lab.labels, make_broadcast_node, source=0,
            max_rounds=2 * graph.n, trace_level="summary",
        )
        assert sim.trace.level == "summary"
        assert not sim.trace.has_full_records
        assert sim.trace.total_transmissions() > 0
