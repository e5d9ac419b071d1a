"""Tests for the analysis layer: bounds, metrics, sweeps and report rendering."""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import (
    PaperBounds,
    RunMetrics,
    ack_round_window,
    aggregate,
    broadcast_round_bound,
    broadcast_round_bound_sharp,
    coloring_label_bits,
    distinct_label_bound,
    format_comparison,
    format_metrics_table,
    format_table,
    materialize_instance,
    message_bits_total,
    metrics_from_run,
    per_round_transmitter_counts,
    round_robin_label_bits,
    scheme_length_bound,
)
from repro.api import GridConfig, grid_cell_specs, run_grid
from repro.api import get_scheme, scheme_names
from repro.graphs import grid_graph, path_graph


class TestBounds:
    def test_broadcast_bound(self):
        assert broadcast_round_bound(10) == 17
        assert broadcast_round_bound(1) == 1
        assert broadcast_round_bound(2) == 1

    def test_sharp_bound(self):
        assert broadcast_round_bound_sharp(5) == 7

    def test_ack_window(self):
        assert ack_round_window(8) == (14, 20)

    def test_scheme_lengths(self):
        assert scheme_length_bound("lambda") == 2
        assert scheme_length_bound("lambda_ack") == 3
        assert scheme_length_bound("lambda_arb") == 3
        with pytest.raises(ValueError):
            scheme_length_bound("nope")

    def test_distinct_label_bounds(self):
        assert distinct_label_bound("lambda") == 4
        assert distinct_label_bound("lambda_ack") == 5
        assert distinct_label_bound("lambda_arb") == 6
        with pytest.raises(ValueError):
            distinct_label_bound("nope")

    def test_baseline_label_bits(self):
        assert round_robin_label_bits(16) == 8
        assert round_robin_label_bits(1) == 2
        assert coloring_label_bits(9) == 8
        assert coloring_label_bits(1) == 2

    def test_paper_bounds_bundle(self):
        b = PaperBounds(n=10, ell=6)
        assert b.broadcast == 17
        assert b.broadcast_sharp == 9
        assert b.ack_window == (10, 14)
        assert PaperBounds(n=5).broadcast_sharp is None


class TestMetrics:
    def test_paper_run_metrics(self):
        g = grid_graph(3, 4)
        outcome = get_scheme("lambda").run(g, 0)
        m = metrics_from_run(g, outcome, family="grid")
        assert m.scheme == "lambda"
        assert m.n == 12
        assert m.label_bits == 2
        assert m.within_bound is True
        assert m.as_dict()["family"] == "grid"

    def test_as_dict_is_dataclasses_asdict(self):
        g = path_graph(6)
        rows = []
        for name in scheme_names():
            scheme = get_scheme(name)
            outcome = scheme.run(g, 0, **scheme.grid_options(g, 0))
            rows.append(metrics_from_run(g, outcome, family="path", source=0))
        stalled = get_scheme("lambda").run(g, 0, max_rounds=2)
        rows.append(metrics_from_run(g, stalled, family="path", source=0))
        rows.append(RunMetrics(
            scheme="lambda", family="path", n=6, source_eccentricity=0, label_bits=0,
            distinct_labels=0, completion_round=None, bound=None,
            acknowledgement_round=None, transmissions=0, collisions=0,
            total_message_bits=0, status="error:ValueError",
        ))
        assert rows[-2].completion_round is None
        assert any(row.bound is None for row in rows)
        assert any(row.acknowledgement_round is None for row in rows[:-2])
        for row in rows:
            flat = row.as_dict()
            assert flat == dataclasses.asdict(row)
            assert list(flat) == list(dataclasses.asdict(row))

    def test_metrics_from_ack_outcome_has_ack_round(self):
        g = path_graph(6)
        outcome = get_scheme("lambda_ack").run(g, 0)
        m = metrics_from_run(g, outcome, family="path")
        assert m.acknowledgement_round is not None

    def test_baseline_run_metrics(self):
        g = path_graph(6)
        outcome = get_scheme("round_robin").run(g, 0)
        m = metrics_from_run(g, outcome, family="path", source=0)
        assert m.scheme == "round_robin"
        assert m.bound is None
        assert m.within_bound is None

    def test_message_bits_positive(self):
        g = grid_graph(3, 3)
        outcome = get_scheme("lambda").run(g, 0)
        assert message_bits_total(outcome.trace) > 0

    def test_per_round_transmitter_counts(self):
        g = path_graph(5)
        outcome = get_scheme("lambda").run(g, 0)
        counts = per_round_transmitter_counts(outcome.trace)
        assert len(counts) == outcome.trace.num_rounds
        assert counts[0] == 1

    def test_aggregate(self):
        g = path_graph(6)
        rows = [metrics_from_run(g, get_scheme("lambda").run(g, 0), family="path")] * 3
        agg = aggregate(rows, "completion_round")
        assert agg["count"] == 3
        assert agg["min"] == agg["max"] == agg["mean"]
        empty = aggregate([], "completion_round")
        assert empty["count"] == 0


class TestReportRendering:
    def test_format_table_basic(self):
        text = format_table([{"a": 1, "b": None}, {"a": 22, "b": True}], ["a", "b"],
                            title="demo")
        assert "demo" in text
        assert "22" in text and "-" in text and "yes" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], ["a"])

    def test_format_metrics_table(self):
        g = path_graph(5)
        rows = [metrics_from_run(g, get_scheme("lambda").run(g, 0), family="path")]
        text = format_metrics_table(rows, title="T")
        assert "lambda" in text and "path" in text

    def test_format_comparison_contains_ratio(self):
        g = grid_graph(3, 4)
        ref = [metrics_from_run(g, get_scheme("lambda").run(g, 0), family="grid")]
        base = [metrics_from_run(g, get_scheme("round_robin").run(g, 0), family="grid", source=0)]
        text = format_comparison(ref, base, field="completion_round")
        assert "round_robin" in text
        assert "/λ" in text


def _instances(config):
    """Every instance of ``config``'s grid (one per cell: no fault/clock axes)."""
    return [materialize_instance(config, family, size, rep)
            for family, size, rep, _fault, _clock in grid_cell_specs(config)]


class TestSweeps:
    def test_instances_are_deterministic(self):
        cfg = GridConfig(families=["path", "gnp_sparse"], sizes=[10, 14],
                         seeds_per_size=2, schemes=["lambda"])
        a = _instances(cfg)
        b = _instances(cfg)
        assert len(a) == 2 * 2 * 2
        assert all(x.graph == y.graph for x, y in zip(a, b))

    def test_source_rules(self):
        for rule, expect in [("zero", 0), ("last", None), ("center-ish", None)]:
            cfg = GridConfig(families=["path"], sizes=[9], source_rule=rule)
            inst = _instances(cfg)[0]
            if rule == "zero":
                assert inst.source == 0
            elif rule == "last":
                assert inst.source == inst.graph.n - 1
            else:
                assert inst.source == inst.graph.n // 2
        with pytest.raises(ValueError):
            _instances(GridConfig(families=["path"], sizes=[5], source_rule="bogus"))

    def test_run_grid_produces_rows_for_every_cell(self):
        cfg = GridConfig(families=["path", "star"], sizes=[8],
                         schemes=["lambda", "lambda_ack", "round_robin"])
        rows = run_grid(cfg)
        assert len(rows) == 2 * 1 * 3
        schemes = {r.scheme for r in rows}
        assert schemes == {"lambda", "lambda_ack", "round_robin"}
        lam_rows = [r for r in rows if r.scheme == "lambda"]
        assert all(r.within_bound for r in lam_rows)

    def test_run_grid_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_grid(GridConfig(families=["path"], sizes=[6], schemes=["nope"]))

    def test_sweep_includes_arbitrary_source(self):
        cfg = GridConfig(families=["star"], sizes=[7], schemes=["lambda_arb"],
                         source_rule="last")
        rows = run_grid(cfg)
        assert len(rows) == 1
        assert rows[0].completion_round is not None
