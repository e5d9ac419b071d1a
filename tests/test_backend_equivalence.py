"""Equivalence suite: the vectorized backend must match the reference engine.

The vectorized CSR kernels re-implement the decision rules of B, B_ack, B_arb
and the round-robin / TDMA baselines as array operations.  These tests pin
them to the faithful object engine **bit for bit** on a grid of graph families
× sizes × seeds: identical completion and acknowledgement rounds, identical
transmission / collision / reception counts, identical message-bit totals and
kind histograms — and, on a subset, identical full-trace JSON (every message
of every round, stamps and payloads included).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import get_scheme, scheme_names
from repro.backends import (
    STOP_RULES,
    BackendError,
    ReferenceBackend,
    SimulationTask,
    VectorizedBackend,
    resolve_backend,
)
from repro.core.labeling import lambda_ack_scheme, lambda_arb_scheme, lambda_scheme
from repro.graphs import GraphError, generate_family

# The equivalence grid: families × sizes, with per-(family, size) seeds.
FAMILIES = ["path", "cycle", "star", "grid", "gnp_sparse", "geometric"]
SIZES = [9, 16, 25]
SEEDS = [1, 7]

GRID = [
    (family, size, seed)
    for family in FAMILIES
    for size in SIZES
    for seed in SEEDS[: (2 if family in ("gnp_sparse", "geometric") else 1)]
]
GRID_IDS = [f"{f}-{n}-s{s}" for f, n, s in GRID]

#: Byte-level trace-equality cases for the centralized-schedule kernel.
CENTRALIZED_FULL_CASES = [("path", 16, 1), ("grid", 16, 1), ("gnp_sparse", 25, 7)]


def _instance(family: str, size: int, seed: int):
    graph = generate_family(family, size, seed)
    source = seed % graph.n
    return graph, source


def _trace_fingerprint(trace):
    return {
        "rounds": trace.num_rounds,
        "transmissions": trace.total_transmissions(),
        "receptions": trace.total_receptions(),
        "collisions": trace.total_collisions(),
        "kinds": trace.transmissions_by_kind(),
        "bits": trace.total_message_bits(),
    }


def _outcome_fingerprint(outcome):
    return {
        "completion": outcome.completion_round,
        "ack": outcome.acknowledgement_round,
        "common": outcome.common_completion_round,
        "stop_round": outcome.simulation.stop_round,
        "stop_reason": outcome.simulation.stop_reason,
        **_trace_fingerprint(outcome.trace),
    }


def _baseline_fingerprint(outcome):
    return {
        "completion": outcome.completion_round,
        "stop_round": outcome.simulation.stop_round,
        "stop_reason": outcome.simulation.stop_reason,
        **_trace_fingerprint(outcome.simulation.trace),
    }


class TestLabeledProtocolEquivalence:
    @pytest.mark.parametrize("family,size,seed", GRID, ids=GRID_IDS)
    def test_broadcast_identical(self, family, size, seed):
        graph, source = _instance(family, size, seed)
        labeling = lambda_scheme(graph, source)
        ref = get_scheme("lambda").run(graph, source, labeling=labeling,
                                       backend="reference", trace_level="summary")
        vec = get_scheme("lambda").run(graph, source, labeling=labeling,
                                       backend="vectorized", trace_level="summary")
        assert _outcome_fingerprint(vec) == _outcome_fingerprint(ref)
        assert ref.completed and vec.completed

    @pytest.mark.parametrize("family,size,seed", GRID, ids=GRID_IDS)
    def test_acknowledged_identical(self, family, size, seed):
        graph, source = _instance(family, size, seed)
        labeling = lambda_ack_scheme(graph, source)
        ref = get_scheme("lambda_ack").run(graph, source, labeling=labeling,
                                           backend="reference", trace_level="summary")
        vec = get_scheme("lambda_ack").run(graph, source, labeling=labeling,
                                           backend="vectorized", trace_level="summary")
        assert _outcome_fingerprint(vec) == _outcome_fingerprint(ref)
        assert ref.acknowledgement_round is not None
        assert vec.acknowledgement_round == ref.acknowledgement_round

    @pytest.mark.parametrize("family,size,seed", GRID, ids=GRID_IDS)
    def test_arbitrary_identical(self, family, size, seed):
        graph, source = _instance(family, size, seed)
        coordinator = (source + 1) % graph.n
        labeling = lambda_arb_scheme(graph, coordinator=coordinator)
        ref = get_scheme("lambda_arb").run(
            graph, source, labeling=labeling,
            backend="reference", trace_level="summary",
        )
        vec = get_scheme("lambda_arb").run(
            graph, source, labeling=labeling,
            backend="vectorized", trace_level="summary",
        )
        assert _outcome_fingerprint(vec) == _outcome_fingerprint(ref)


class TestBaselineEquivalence:
    @pytest.mark.parametrize("family,size,seed", GRID, ids=GRID_IDS)
    def test_round_robin_identical(self, family, size, seed):
        graph, source = _instance(family, size, seed)
        ref = get_scheme("round_robin").run(graph, source, backend="reference",
                                            trace_level="summary")
        vec = get_scheme("round_robin").run(graph, source, backend="vectorized",
                                            trace_level="summary")
        assert _baseline_fingerprint(vec) == _baseline_fingerprint(ref)

    @pytest.mark.parametrize("family,size,seed", GRID, ids=GRID_IDS)
    def test_coloring_tdma_identical(self, family, size, seed):
        graph, source = _instance(family, size, seed)
        ref = get_scheme("coloring_tdma").run(graph, source, backend="reference",
                                              trace_level="summary")
        vec = get_scheme("coloring_tdma").run(graph, source, backend="vectorized",
                                              trace_level="summary")
        assert _baseline_fingerprint(vec) == _baseline_fingerprint(ref)

    @pytest.mark.parametrize("family,size,seed", GRID, ids=GRID_IDS)
    def test_centralized_identical(self, family, size, seed):
        graph, source = _instance(family, size, seed)
        ref = get_scheme("centralized").run(graph, source, backend="reference",
                                            trace_level="summary")
        vec = get_scheme("centralized").run(graph, source, backend="vectorized",
                                            trace_level="summary")
        assert _baseline_fingerprint(vec) == _baseline_fingerprint(ref)
        assert ref.label_bits == vec.label_bits

    @pytest.mark.parametrize("family,size,seed", CENTRALIZED_FULL_CASES,
                             ids=[f"{f}-{n}" for f, n, _ in CENTRALIZED_FULL_CASES])
    def test_centralized_full_trace_identical(self, family, size, seed):
        graph, source = _instance(family, size, seed)
        ref = get_scheme("centralized").run(graph, source, backend="reference",
                                            trace_level="full")
        vec = get_scheme("centralized").run(graph, source, backend="vectorized",
                                            trace_level="full")
        assert vec.simulation.trace.to_json() == ref.simulation.trace.to_json()

    def test_centralized_runs_natively_on_the_vectorized_backend(self):
        # The kernel executes the schedule itself: no node objects are
        # materialised, which is the signature of the array path (the old
        # behaviour silently fell back to the reference engine).
        graph, source = _instance("grid", 16, 1)
        vec = get_scheme("centralized").run(graph, source, backend="vectorized",
                                            trace_level="summary")
        ref = get_scheme("centralized").run(graph, source, backend="reference",
                                            trace_level="summary")
        assert len(vec.simulation.nodes) == 0
        assert len(ref.simulation.nodes) == graph.n


class TestFullTraceEquivalence:
    """Byte-level trace equality: every message of every round must match."""

    CASES = [("path", 16, 1), ("grid", 16, 1), ("gnp_sparse", 25, 7), ("geometric", 16, 1)]

    @pytest.mark.parametrize("family,size,seed", CASES,
                             ids=[f"{f}-{n}" for f, n, _ in CASES])
    @pytest.mark.parametrize("scheme", ["lambda", "lambda_ack", "lambda_arb"])
    def test_trace_json_identical(self, scheme, family, size, seed):
        graph, source = _instance(family, size, seed)
        runner = {
            "lambda": get_scheme("lambda").run,
            "lambda_ack": get_scheme("lambda_ack").run,
            "lambda_arb": lambda g, s, **kw: get_scheme("lambda_arb").run(
                g, s, coordinator=(s + 1) % g.n, **kw
            ),
        }[scheme]
        ref = runner(graph, source, backend="reference", trace_level="full")
        vec = runner(graph, source, backend="vectorized", trace_level="full")
        assert vec.trace.to_json() == ref.trace.to_json()


class TestStopRules:
    """A task's declarative stop rule is its only stop mechanism: the
    reference engine evaluates each rule over its node objects."""

    SCHEME_OF = {"all_informed": "lambda", "acknowledged": "lambda_ack",
                 "arb_complete": "lambda_arb", "all_decoded": "collision_detection"}

    @pytest.mark.parametrize("rule", STOP_RULES)
    def test_reference_stops_on_the_rule_at_the_vectorized_round(self, rule):
        graph, source = _instance("grid", 16, 1)
        scheme = get_scheme(self.SCHEME_OF[rule])
        info = scheme.build_labels(graph, source, **scheme.grid_options(graph, source))
        task = scheme.build_task(
            graph, info, source, payload="MSG",
            max_rounds=scheme.default_budget(graph, info), trace_level="summary",
            fault_model=None, clock_model=None,
        )
        assert task.stop_rule == rule
        ref = ReferenceBackend().run_task(task)
        vec = VectorizedBackend().run_task(task)
        assert vec.backend == "vectorized"
        assert ref.simulation.stop_reason == vec.simulation.stop_reason == "condition"
        assert ref.simulation.stop_round == vec.simulation.stop_round < task.max_rounds

    def test_every_rule_has_a_scheme_here(self):
        assert set(self.SCHEME_OF) == set(STOP_RULES)

    def test_tasks_take_no_stop_callable(self):
        graph, source = _instance("path", 9, 1)
        with pytest.raises(TypeError):
            SimulationTask(protocol="broadcast", graph=graph, labels={},
                           stop_condition=lambda sim: True)


class TestOneOutcomePath:
    """Both engines fill ``derived`` with the same keys and values, so every
    scheme derives its outcome from ``derived`` alone."""

    @pytest.mark.parametrize("trace_level", ["none", "summary", "full"])
    @pytest.mark.parametrize("size", [1, 2, 9, 14])
    @pytest.mark.parametrize("family", ["path", "grid", "gnp_sparse", "geometric"])
    @pytest.mark.parametrize("name", scheme_names())
    def test_reference_derives_what_the_kernels_return(self, name, family, size,
                                                       trace_level):
        graph, source = _instance(family, size, 7)
        scheme = get_scheme(name)
        info = scheme.build_labels(graph, source, **scheme.grid_options(graph, source))
        task = scheme.build_task(
            graph, info, source, payload="MSG",
            max_rounds=scheme.default_budget(graph, info), trace_level=trace_level,
            fault_model=None, clock_model=None,
        )
        vec = VectorizedBackend().run_task(task)
        assert vec.backend == "vectorized"
        assert ReferenceBackend().run_task(task).derived == vec.derived


class TestTaskInputChecks:
    """Both engines reject the same malformed tasks with the reference
    engine's own errors: a source that is not a node, labels missing a
    node, a source without a payload."""

    @staticmethod
    def _bad_input(task, case):
        """The task changes for ``case``, with the expected error and message."""
        graph = task.graph
        if case == "source":
            bad = graph.n + 3
            return {"source": bad}, GraphError, f"source {bad} is not a node of {graph!r}"
        if case == "labels":
            dropped = (task.source + 1) % graph.n
            labels = {v: lab for v, lab in task.labels.items() if v != dropped}
            return {"labels": labels}, ValueError, f"labels missing for nodes [{dropped}]"
        return {"payload": None}, ValueError, "the source node must be given a source payload"

    @pytest.mark.parametrize("case", ["source", "labels", "payload"])
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    @pytest.mark.parametrize("name", scheme_names())
    def test_engines_raise_the_same_error(self, name, engine, case):
        graph, source = _instance("path", 5, 1)
        scheme = get_scheme(name)
        info = scheme.build_labels(graph, source, **scheme.grid_options(graph, source))
        task = scheme.build_task(
            graph, info, source, payload="MSG",
            max_rounds=scheme.default_budget(graph, info), trace_level="summary",
            fault_model=None, clock_model=None,
        )
        changes, error, message = self._bad_input(task, case)
        with pytest.raises(error) as caught:
            resolve_backend(engine).run_task(dataclasses.replace(task, **changes))
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestBackendPlumbing:
    def test_resolve_backend_names_and_instances(self):
        ref = resolve_backend("reference")
        assert isinstance(ref, ReferenceBackend)
        assert resolve_backend("reference") is ref  # shared instance
        assert resolve_backend(None) is ref
        vec = VectorizedBackend()
        assert resolve_backend(vec) is vec

    def test_resolve_backend_rejects_unknown(self):
        with pytest.raises(BackendError):
            resolve_backend("warp-drive")

    def test_vectorized_falls_back_for_unsupported_models(self):
        from repro.radio.clock import OffsetClocks

        graph, source = _instance("path", 9, 1)
        # Offset clocks are outside the kernels' model: the vectorized backend
        # must delegate to the reference engine and still be correct.
        clock = OffsetClocks({v: 3 for v in graph.nodes()})
        ref = get_scheme("lambda").run(graph, source, clock_model=clock, backend="reference")
        vec = get_scheme("lambda").run(graph, source, clock_model=clock, backend="vectorized")
        assert vec.completion_round == ref.completion_round
        assert len(vec.simulation.nodes) == len(ref.simulation.nodes)  # object engine ran

    def test_vectorized_supports_the_compiled_protocols(self):
        graph, source = _instance("grid", 9, 1)
        labeling = lambda_scheme(graph, source)
        vec = VectorizedBackend()
        for protocol in ("broadcast", "acknowledged", "arbitrary",
                         "round_robin", "coloring_tdma"):
            task = SimulationTask(protocol=protocol, graph=graph,
                                  labels=labeling.labels, source=source, max_rounds=1)
            assert vec.supports(task)
