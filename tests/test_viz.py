"""Tests for the visualisation helpers and the Figure 1 reproduction."""

from __future__ import annotations

import pytest

from repro.api import get_scheme
from repro.core import check_lemma_2_8, lambda_scheme
from repro.graphs import grid_graph, path_graph
from repro.viz import (
    FIGURE1_SOURCE,
    figure1_graph,
    figure1_report,
    render_adjacency,
    render_label_histogram,
    render_labeled_layers,
    render_node_timelines,
    render_round_table,
    transmit_receive_maps,
)


class TestAsciiRendering:
    def test_render_adjacency_lists_every_node(self):
        g = path_graph(4)
        text = render_adjacency(g, labels={v: "10" for v in g.nodes()})
        assert text.count("\n") == 3
        assert "[10]" in text

    def test_render_labeled_layers_contains_all_nodes(self):
        g = grid_graph(3, 3)
        lab = lambda_scheme(g, 0)
        text = render_labeled_layers(g, 0, lab.labels)
        for v in g.nodes():
            assert f"{v}:" in text
        assert "source" in text

    def test_render_label_histogram(self):
        text = render_label_histogram({0: "10", 1: "10", 2: "00"})
        assert "(2)" in text and "(1)" in text

    def test_round_table_and_timelines(self):
        g = path_graph(6)
        outcome = get_scheme("lambda").run(g, 0)
        table = render_round_table(outcome.trace, max_rounds=4)
        assert "round" in table and "more rounds" in table
        timelines = render_node_timelines(outcome.trace)
        assert timelines.count("node") == g.n

    def test_transmit_receive_maps_consistent_with_trace(self):
        g = grid_graph(3, 4)
        outcome = get_scheme("lambda").run(g, 0)
        tx, rx = transmit_receive_maps(outcome.trace)
        assert tx[0] == [1] + tx[0][1:]
        total_tx = sum(len(v) for v in tx.values())
        assert total_tx == outcome.trace.total_transmissions()


class TestFigure1:
    def test_graph_shape(self):
        g = figure1_graph()
        assert g.num_nodes == 14
        from repro.graphs import is_connected
        assert is_connected(g)

    def test_all_four_labels_present(self):
        report = figure1_report()
        hist = report.labeling.label_histogram()
        assert set(hist) == {"00", "01", "10", "11"}

    def test_execution_exhibits_collisions_and_stays(self):
        report = figure1_report()
        assert report.outcome.total_collisions > 0
        kinds = report.outcome.trace.transmissions_by_kind()
        assert kinds.get("stay", 0) >= 2

    def test_completion_round_is_seven(self):
        report = figure1_report()
        assert report.completion_round == 7
        assert report.outcome.bound_broadcast == 2 * 14 - 3

    def test_schedule_matches_lemma_2_8(self):
        report = figure1_report()
        violations = check_lemma_2_8(
            report.graph, report.labeling, report.labeling.construction,
            report.outcome.trace,
        )
        assert violations == []

    def test_rendering_contains_annotations(self):
        report = figure1_report()
        assert "{1}" in report.rendering          # the source transmits in round 1
        assert "(1," in report.rendering          # layer-1 nodes receive in round 1 (and later)
        assert "dist 4" in report.rendering

    def test_transmit_rounds_odd_receive_source_rounds_odd(self):
        report = figure1_report()
        for v, rounds in report.transmit_rounds.items():
            for r in rounds:
                kind = report.outcome.trace.record(r).transmissions[v].kind
                if kind == "source":
                    assert r % 2 == 1
                else:
                    assert r % 2 == 0

    def test_deterministic(self):
        a = figure1_report()
        b = figure1_report()
        assert a.rendering == b.rendering
        assert a.labeling.labels == b.labeling.labels
