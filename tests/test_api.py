"""Tests for the unified scenario/experiment API (repro.api)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import api
from repro.analysis import (
    materialize_instance,
    metrics_from_run,
    metrics_to_csv,
    metrics_to_json,
)
from repro.api import (
    GridConfig,
    Outcome,
    Scenario,
    Scheme,
    get_scheme,
    grid_cell_specs,
    run_grid,
    scheme_names,
)
from repro.core.labeling import lambda_arb_scheme
from repro.graphs import Graph, grid_graph, path_graph
from repro.graphs.graph import GraphError

ALL_SCHEMES = [
    "lambda",
    "lambda_ack",
    "lambda_arb",
    "round_robin",
    "coloring_tdma",
    "collision_detection",
    "centralized",
]


# --------------------------------------------------------------------------- #
# Scenario round-trips
# --------------------------------------------------------------------------- #
class TestScenarioRoundTrip:
    def test_spec_graph_json_round_trip(self):
        scenario = Scenario(graph="grid:16:1", scheme="lambda_ack", source="last",
                            payload="hello", backend="vectorized",
                            trace_level="summary", max_rounds=99,
                            options={"strategy": "prune"})
        clone = Scenario.from_json(scenario.to_json())
        assert clone == scenario
        assert clone.materialize_graph() == scenario.materialize_graph()

    def test_inline_graph_round_trip(self):
        g = grid_graph(3, 3)
        scenario = Scenario(graph=g, scheme="round_robin")
        clone = Scenario.from_json(scenario.to_json())
        assert isinstance(clone.graph, Graph)
        assert clone.graph == g
        assert clone.family == "custom"

    def test_fault_and_clock_specs_round_trip(self):
        scenario = Scenario(
            graph="path:8",
            faults={"kind": "drop", "prob": 0.25, "seed": 11},
            clock={"kind": "random_offsets", "max_offset": 40, "seed": 5},
        )
        doc = json.loads(scenario.to_json())
        assert doc["faults"] == {"kind": "drop", "prob": 0.25, "seed": 11}
        assert doc["clock"] == {"kind": "random_offsets", "max_offset": 40, "seed": 5}
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_crash_and_offset_specs_round_trip(self):
        scenario = Scenario(
            graph="path:8",
            faults={"kind": "crash", "schedule": {3: 5, 6: 2}},
            clock={"kind": "offset", "offsets": {0: 7}, "default": 1},
        )
        clone = Scenario.from_json(scenario.to_json())
        assert clone == scenario
        fault = api.fault_model_from_spec(clone.faults)
        assert fault.node_is_alive(1, 3) and not fault.node_is_alive(5, 3)
        clock = api.clock_model_from_spec(clone.clock, 8)
        assert clock.local_round(0, 10) == 17
        assert clock.local_round(4, 10) == 11

    def test_string_shorthand_specs_normalize(self):
        scenario = Scenario(graph="path:6", faults="drop:0.1:7", clock="offset:3")
        assert scenario.faults == {"kind": "drop", "prob": 0.1, "seed": 7}
        assert scenario.clock == {"kind": "offset", "offsets": {}, "default": 3}
        assert Scenario(graph="path:6", faults="none").faults is None

    def test_malformed_specs_rejected_up_front(self):
        with pytest.raises(ValueError, match="must be integers"):
            api.normalize_fault_spec("crash:foo@5")
        with pytest.raises(ValueError, match="integer node ids"):
            api.normalize_fault_spec({"kind": "crash", "schedule": {"foo": 5}})
        with pytest.raises(ValueError, match="integer node ids"):
            api.normalize_clock_spec({"kind": "offset", "offsets": {"x": 1}})
        with pytest.raises(ValueError, match="drop fault shorthand"):
            api.normalize_fault_spec("drop")
        with pytest.raises(ValueError, match="unknown fault spec"):
            api.normalize_fault_spec("lightning:3")
        with pytest.raises(ValueError, match="missing the required field"):
            api.normalize_fault_spec({"kind": "drop", "probability": 0.1})
        with pytest.raises(ValueError, match="missing the required field"):
            api.normalize_fault_spec({"kind": "crash"})
        with pytest.raises(ValueError, match="missing the required field"):
            api.normalize_clock_spec({"kind": "random_offsets"})

    def test_crash_tag_sorts_numerically(self):
        spec = api.normalize_fault_spec({"kind": "crash", "schedule": {9: 2, 10: 5}})
        assert api.spec_label(spec, default="none") == "crash:9@2,10@5"

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "scenario.json"
        scenario = Scenario(graph="star:9:2", scheme="centralized")
        scenario.save(path)
        assert Scenario.load(path) == scenario

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"graph": "path:5", "bogus": 1})

    #: ``to_json()`` of ``Scenario(graph="path:9", trace_level="summary")``
    #: while scenarios still had a ``shards`` field (for the sharded engine).
    SHARDS_ERA_DOC = """{
  "backend": null,
  "clock": null,
  "faults": null,
  "graph": "path:9",
  "max_rounds": null,
  "options": {},
  "payload": "MSG",
  "scheme": "lambda",
  "shards": null,
  "source": 0,
  "trace_level": "summary"
}"""

    def test_saved_scenario_with_null_shards_still_loads(self):
        clone = Scenario.from_json(self.SHARDS_ERA_DOC)
        assert clone == Scenario(graph="path:9", trace_level="summary")
        assert "shards" not in json.loads(clone.to_json())

    def test_saved_scenario_with_a_shard_count_names_the_retired_engine(self):
        doc = json.loads(self.SHARDS_ERA_DOC)
        doc.update(shards=2, backend="sharded")
        with pytest.raises(ValueError, match="sharded backend was retired"):
            Scenario.from_dict(doc)

    def test_bad_graph_documents_rejected(self):
        with pytest.raises(ValueError):
            Scenario.from_dict({"graph": 17})
        with pytest.raises(ValueError):
            Scenario(graph="path:5", trace_level="loud")

    def test_source_rules_resolve(self):
        g = path_graph(7)
        assert Scenario(graph="path:7", source="zero").resolve_source(g) == 0
        assert Scenario(graph="path:7", source="last").resolve_source(g) == 6
        assert Scenario(graph="path:7", source="center-ish").resolve_source(g) == 3
        assert Scenario(graph="path:7", source=4).resolve_source(g) == 4
        with pytest.raises(ValueError):
            Scenario(graph="path:7", source="everywhere").resolve_source(g)


# --------------------------------------------------------------------------- #
# graph spec validation (satellite fix)
# --------------------------------------------------------------------------- #
class TestGraphSpecValidation:
    def test_valid_specs(self):
        assert api.graph_from_spec("path:7").n == 7
        assert api.graph_from_spec("gnp_sparse:20:3") == api.graph_from_spec("gnp_sparse:20:3")

    @pytest.mark.parametrize("spec", ["path:0", "path:-3", "grid:0:1"])
    def test_non_positive_sizes_rejected_up_front(self, spec):
        with pytest.raises(ValueError, match="positive integer"):
            api.graph_from_spec(spec)

    def test_non_integer_size_and_seed_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            api.graph_from_spec("path:seven")
        with pytest.raises(ValueError, match="not an integer"):
            api.graph_from_spec("path:7:x")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="neither an existing file"):
            api.graph_from_spec("nonsense:10")


# --------------------------------------------------------------------------- #
# the scheme registry
# --------------------------------------------------------------------------- #
class TestSchemeRegistry:
    def test_all_seven_schemes_registered(self):
        assert set(ALL_SCHEMES) <= set(scheme_names())

    def test_kinds_partition(self):
        assert set(api.paper_scheme_names()) == {"lambda", "lambda_ack", "lambda_arb"}
        assert {"round_robin", "coloring_tdma", "collision_detection",
                "centralized"} <= set(api.baseline_scheme_names())

    def test_get_scheme_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            get_scheme("warp-broadcast")

    def test_get_scheme_passes_instances_through(self):
        scheme = get_scheme("lambda")
        assert get_scheme(scheme) is scheme

    def test_custom_scheme_registration(self):
        from repro.api.schemes import _REGISTRY

        @api.register_scheme("echo_test_scheme")
        class EchoScheme(get_scheme("round_robin").__class__):
            description = "test-only clone of round_robin"

        try:
            assert "echo_test_scheme" in scheme_names()
            out = api.run(Scenario(graph="path:6", scheme="echo_test_scheme"))
            assert out.scheme == "echo_test_scheme"
            rows = run_grid(GridConfig(families=["path"], sizes=[6],
                                       schemes=["echo_test_scheme"]))
            assert rows[0].scheme == "echo_test_scheme"
        finally:
            _REGISTRY.pop("echo_test_scheme", None)

    def test_register_scheme_rejects_non_schemes(self):
        with pytest.raises(TypeError):
            api.register_scheme("nope")(object)


# --------------------------------------------------------------------------- #
# run(): one entry point for every scheme
# --------------------------------------------------------------------------- #
class TestRun:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_scheme_runs_from_a_config_file_alone(self, scheme, tmp_path):
        path = tmp_path / f"{scheme}.json"
        Scenario(graph="grid:9:1", scheme=scheme, trace_level="summary").save(path)
        outcome = api.run(str(path))
        assert isinstance(outcome, Outcome)
        assert outcome.scheme == scheme
        assert outcome.completed

    def test_run_accepts_scenario_dict_and_object(self):
        scenario = Scenario(graph="path:9", scheme="lambda")
        a = api.run(scenario)
        b = api.run(scenario.to_dict())
        assert a.completion_round == b.completion_round <= a.bound_broadcast

    def test_scheme_argument_overrides_scenario(self):
        outcome = api.run(Scenario(graph="path:9", scheme="lambda"), scheme="round_robin")
        assert outcome.scheme == "round_robin"

    def test_backends_agree_through_scenarios(self):
        scenario = Scenario(graph="geometric:25:3", scheme="lambda_ack",
                            trace_level="summary")
        ref = api.run(scenario, backend="reference")
        vec = api.run(scenario, backend="vectorized")
        assert (ref.completion_round, ref.acknowledgement_round) == (
            vec.completion_round, vec.acknowledgement_round)

    def test_faulty_scenarios_are_deterministic(self):
        scenario = Scenario(graph="grid:16:1", scheme="lambda",
                            faults={"kind": "drop", "prob": 0.3, "seed": 9},
                            trace_level="summary")
        a = api.run(scenario)
        b = api.run(scenario)
        assert a.completion_round == b.completion_round
        assert a.total_transmissions == b.total_transmissions

    def test_clock_skew_scenarios_still_complete(self):
        scenario = Scenario(graph="path:8", scheme="lambda",
                            clock={"kind": "random_offsets", "max_offset": 30, "seed": 2})
        outcome = api.run(scenario)
        assert outcome.completed


class TestArbitrarySourceCoordinator:
    """B_arb's nodes recognise the coordinator by its ``111`` label alone, so
    a λ_arb labeling must name the node that carries it."""

    def test_the_named_coordinator_runs_alike_on_both_engines(self):
        graph = path_graph(6)
        labeling = lambda_arb_scheme(graph, coordinator=3)
        for backend in ("reference", "vectorized"):
            out = get_scheme("lambda_arb").run(graph, 5, labeling=labeling,
                                               backend=backend)
            assert (out.completion_round, out.common_completion_round) == (33, 33)
            assert out.extras["coordinator"] == 3

    @pytest.mark.parametrize("coordinator", [None, 2, 9])
    def test_a_labeling_that_misnames_its_coordinator_is_rejected(self, coordinator):
        graph = path_graph(6)
        labeling = replace(lambda_arb_scheme(graph, coordinator=3),
                           coordinator=coordinator)
        for backend in ("reference", "vectorized"):
            with pytest.raises(GraphError, match="must name its coordinator"):
                get_scheme("lambda_arb").run(graph, 5, labeling=labeling,
                                             backend=backend)


# --------------------------------------------------------------------------- #
# run_grid: bit-for-bit equivalence with standalone runs + the new axes
# --------------------------------------------------------------------------- #
LEGACY_CFG = GridConfig(
    families=["path", "grid", "gnp_sparse"],
    sizes=[9, 16],
    seeds_per_size=2,
    schemes=["lambda", "lambda_ack", "lambda_arb", "round_robin",
             "coloring_tdma", "centralized"],
)

LEGACY_RUNNERS = {
    "lambda": lambda inst, **kw: metrics_from_run(
        inst.graph, get_scheme("lambda").run(inst.graph, inst.source, **kw),
        family=inst.family, source=inst.source),
    "lambda_ack": lambda inst, **kw: metrics_from_run(
        inst.graph, get_scheme("lambda_ack").run(inst.graph, inst.source, **kw),
        family=inst.family, source=inst.source),
    "lambda_arb": lambda inst, **kw: metrics_from_run(
        inst.graph,
        get_scheme("lambda_arb").run(
            inst.graph, inst.source,
            coordinator=0 if inst.source != 0 else inst.graph.n - 1, **kw),
        family=inst.family, source=inst.source),
    "round_robin": lambda inst, **kw: metrics_from_run(
        inst.graph, get_scheme("round_robin").run(inst.graph, inst.source, **kw),
        family=inst.family, source=inst.source),
    "coloring_tdma": lambda inst, **kw: metrics_from_run(
        inst.graph, get_scheme("coloring_tdma").run(inst.graph, inst.source, **kw),
        family=inst.family, source=inst.source),
    "collision_detection": lambda inst, **kw: metrics_from_run(
        inst.graph, get_scheme("collision_detection").run(inst.graph, inst.source, **kw),
        family=inst.family, source=inst.source),
    "centralized": lambda inst, **kw: metrics_from_run(
        inst.graph, get_scheme("centralized").run(inst.graph, inst.source, **kw),
        family=inst.family, source=inst.source),
}


def legacy_sweep_rows(config: GridConfig):
    """Re-derivation of the pre-registry sweep loop: instance → scheme order,
    one standalone ``get_scheme(name).run`` call per row."""
    rows = []
    for family, size, rep, _fault, _clock in grid_cell_specs(config):
        instance = materialize_instance(config, family, size, rep)
        for scheme in config.schemes:
            rows.append(LEGACY_RUNNERS[scheme](instance, trace_level="summary"))
    return rows


class TestGridEquivalence:
    def test_run_grid_reproduces_legacy_rows_bit_for_bit(self):
        expected = legacy_sweep_rows(LEGACY_CFG)
        for jobs in (1, 2, 3):
            rows = run_grid(LEGACY_CFG, jobs=jobs)
            assert rows == expected  # frozen dataclasses: field-exact equality

    def test_vectorized_grid_matches_reference_grid(self):
        ref = run_grid(LEGACY_CFG, backend="reference")
        vec = run_grid(LEGACY_CFG, backend="vectorized", jobs=2)
        assert vec == ref

    def test_fault_axis_rows_are_jobs_independent(self):
        cfg = GridConfig(
            families=["path", "gnp_sparse"], sizes=[12], seeds_per_size=2,
            schemes=["lambda", "lambda_ack", "round_robin"],
            faults=[None, "drop:0.2:5", {"kind": "crash", "schedule": {1: 3}}],
        )
        serial = run_grid(cfg, jobs=1)
        for jobs in (2, 3):
            assert run_grid(cfg, jobs=jobs) == serial
        assert len(serial) == 2 * 2 * 3 * 3
        tags = {r.fault for r in serial}
        assert tags == {"none", "drop:0.2:5", "crash:1@3"}

    def test_fault_axis_actually_perturbs_runs(self):
        cfg = GridConfig(families=["path"], sizes=[16], schemes=["lambda"],
                         faults=[None, "drop:0.5:1"])
        clean, faulty = run_grid(cfg)
        assert clean.fault == "none" and faulty.fault == "drop:0.5:1"
        assert (clean.completion_round, clean.transmissions) != (
            faulty.completion_round, faulty.transmissions)

    def test_clock_axis_runs(self):
        cfg = GridConfig(families=["path"], sizes=[8], schemes=["lambda"],
                         clocks=[None, "random_offsets:20:3"])
        rows = run_grid(cfg, jobs=2)
        assert [r.clock for r in rows] == ["sync", "random_offsets:20:3"]
        assert all(r.completion_round is not None for r in rows)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            run_grid(GridConfig(families=["path"], sizes=[6], schemes=["nope"]))

    def test_empty_grid(self):
        assert run_grid(GridConfig(families=[], sizes=[], schemes=["lambda"])) == []

    def test_labels_built_once_per_instance(self, monkeypatch):
        # The centralized schedule is a pure function of (graph, source), so
        # a fault×clock grid over one instance must compute it exactly once.
        from repro.baselines.centralized import compute_centralized_schedule

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return compute_centralized_schedule(*args, **kwargs)

        monkeypatch.setattr("repro.api.schemes.compute_centralized_schedule", counting)
        cfg = GridConfig(families=["path"], sizes=[8], schemes=["centralized"],
                         faults=[None, "drop:0.1:1"], clocks=[None, "offset:2"])
        rows = run_grid(cfg)
        assert len(rows) == 4
        assert len(calls) == 1


class TestPayloadReachesTheLabeler:
    """Bit signalling sizes its symbol stream (and so its round budget) from
    the payload, which both entry points hand to ``build_labels``."""

    SYMBOLS = 1 + 16 + 8 * len("hello radio")

    def test_scheme_run(self):
        outcome = get_scheme("collision_detection").run(
            path_graph(6), 0, payload="hello radio")
        assert outcome.extras["symbols"] == self.SYMBOLS
        assert outcome.extras["decoded_correctly"]

    def test_grid(self, monkeypatch):
        scheme_cls = type(get_scheme("collision_detection"))
        original = scheme_cls.derive_outcome
        seen = []

        def spying(self, *args, **kwargs):
            outcome = original(self, *args, **kwargs)
            seen.append(outcome.extras["symbols"])
            return outcome

        monkeypatch.setattr(scheme_cls, "derive_outcome", spying)
        rows = run_grid(GridConfig(families=["path"], sizes=[6],
                                   schemes=["collision_detection"],
                                   payload="hello radio"))
        assert seen == [self.SYMBOLS]
        assert rows[0].completion_round is not None


class TestGridConfigValidation:
    """Malformed axes from outside input (grid files, submit frames) raise at
    construction, naming the field, instead of failing cell by cell."""

    BAD = [
        ("families", {"families": "path"}),
        ("families", {"families": 7}),
        ("families", {"families": ["path", "nope"]}),
        ("schemes", {"schemes": "lambda"}),
        ("sizes", {"sizes": 8}),
        ("sizes", {"sizes": "8"}),
        ("sizes", {"sizes": ["8"]}),
        ("sizes", {"sizes": [0]}),
        ("sizes", {"sizes": [-3]}),
        ("sizes", {"sizes": [True]}),
        ("sizes", {"sizes": [8.0]}),
        ("seeds_per_size", {"seeds_per_size": -1}),
        ("seeds_per_size", {"seeds_per_size": "2"}),
        ("seeds_per_size", {"seeds_per_size": 1.5}),
        ("source_rule", {"source_rule": "bogus"}),
        ("source_rule", {"source_rule": -1}),
        ("source_rule", {"source_rule": True}),
    ]

    @pytest.mark.parametrize("field,override", BAD,
                             ids=[f"{f}-{v[f]!r}" for f, v in BAD])
    def test_malformed_axes_raise_at_construction(self, field, override):
        fields = {"families": ["path"], "sizes": [8], **override}
        with pytest.raises(ValueError, match=field):
            GridConfig(**fields)

    def test_values_are_stored_as_given(self):
        cfg = GridConfig(families=["path", "grid"], sizes=(8, 9),
                         seeds_per_size=0, schemes=["lambda"], source_rule=3)
        assert cfg.families == ["path", "grid"] and cfg.sizes == (8, 9)
        assert cfg.source_rule == 3
        assert run_grid(cfg) == []  # zero seeds per size: zero rows


# --------------------------------------------------------------------------- #
# the unified Outcome
# --------------------------------------------------------------------------- #
class TestUnifiedOutcome:
    def test_broadcast_outcome_is_outcome(self):
        outcome = get_scheme("lambda").run(path_graph(6), 0)
        assert isinstance(outcome, Outcome)
        assert outcome.scheme == "lambda"
        assert outcome.label_bits == outcome.labeling.length == 2

    def test_baselines_return_outcomes(self):
        outcome = get_scheme("round_robin").run(path_graph(6), 0)
        assert isinstance(outcome, Outcome)
        assert outcome.labeling is None
        assert outcome.bound_broadcast is None

    def test_summary_row_shared_schema(self):
        paper = get_scheme("lambda").run(path_graph(6), 0).summary_row()
        baseline = get_scheme("round_robin").run(path_graph(6), 0).summary_row()
        assert set(paper) == set(baseline)


# --------------------------------------------------------------------------- #
# exports
# --------------------------------------------------------------------------- #
class TestExports:
    def test_json_export_round_trips(self):
        rows = run_grid(GridConfig(families=["path"], sizes=[8],
                                   schemes=["lambda", "round_robin"]))
        decoded = json.loads(metrics_to_json(rows))
        assert [d["scheme"] for d in decoded] == ["lambda", "round_robin"]
        assert decoded[0]["fault"] == "none"

    def test_csv_export_has_header_and_rows(self):
        rows = run_grid(GridConfig(families=["path"], sizes=[8], schemes=["lambda"]))
        text = metrics_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0].startswith("scheme,family,n,")
        assert len(lines) == 2
        # The header survives an empty export, so files stay concatenable.
        empty = metrics_to_csv([])
        assert empty.splitlines() == [lines[0]]
