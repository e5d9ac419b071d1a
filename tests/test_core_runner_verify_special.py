"""Tests for the high-level runners, the verification module, and special schemes."""

from __future__ import annotations

import itertools
from typing import Any, Optional

import pytest

from repro.api import get_scheme
from repro.backends import ReferenceBackend, SimulationTask, resolve_backend
from repro.core import (
    LabelSearchResult,
    broadcast_succeeds_with_labels,
    check_corollary_2_7,
    check_fact_3_1,
    check_universality_constraints,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
    run_tree_flood,
    search_minimum_labels,
    verify_broadcast_outcome,
)
from repro.core import special
from repro.core.labeling import Labeling
from repro.graphs import (
    GraphError,
    cycle_graph,
    generate_family,
    grid_graph,
    path_graph,
    random_series_parallel_graph,
    random_tree,
    spider_graph,
    star_graph,
    two_level_star,
    wheel_graph,
)
from repro.radio import (
    Message,
    OffsetClocks,
    RadioNode,
    RadioSimulator,
    TransmissionDropFaults,
    source_message,
)


class TestRunnerApi:
    def test_run_broadcast_rejects_wrong_labeling(self):
        g = path_graph(4)
        ack = lambda_ack_scheme(g, 0)
        with pytest.raises(GraphError):
            get_scheme("lambda").run(g, 0, labeling=ack)

    def test_run_ack_rejects_wrong_labeling(self):
        g = path_graph(4)
        plain = lambda_scheme(g, 0)
        with pytest.raises(GraphError):
            get_scheme("lambda_ack").run(g, 0, labeling=plain)

    def test_payload_is_delivered_verbatim(self):
        g = grid_graph(3, 3)
        outcome = get_scheme("lambda").run(g, 0, payload={"k": 1})
        for node in outcome.simulation.nodes:
            if not node.is_source:
                assert node.sourcemsg == {"k": 1}

    def test_outcome_properties(self):
        g = star_graph(6)
        outcome = get_scheme("lambda").run(g, 0)
        assert outcome.completed
        assert outcome.total_transmissions >= 1
        assert outcome.total_collisions == 0
        assert outcome.trace is outcome.simulation.trace

    def test_custom_round_budget_can_truncate(self):
        g = path_graph(12)
        outcome = get_scheme("lambda").run(g, 0, max_rounds=3)
        assert not outcome.completed

    def test_broadcast_resilient_to_clock_offsets(self):
        g = grid_graph(4, 4)
        clock = OffsetClocks({v: 7 * v for v in g.nodes()})
        outcome = get_scheme("lambda").run(g, 0, clock_model=clock)
        assert outcome.completed
        assert verify_broadcast_outcome(g, outcome) == []

    def test_faulty_channel_can_break_broadcast(self):
        # The paper assumes a reliable channel; with heavy losses the bound fails,
        # which is exactly what the fault-injection ablation demonstrates.
        g = path_graph(10)
        outcome = get_scheme("lambda").run(g, 0, fault_model=TransmissionDropFaults(0.9, seed=1))
        assert outcome.completion_round is None


class TestVerifyModule:
    def test_universality_constraints_pass_for_schemes(self):
        g = grid_graph(3, 4)
        assert check_universality_constraints(lambda_scheme(g, 0)) == []
        assert check_universality_constraints(lambda_ack_scheme(g, 0)) == []
        assert check_universality_constraints(lambda_arb_scheme(g)) == []

    def test_universality_constraints_flag_bad_scheme(self):
        bad = Labeling(scheme="lambda", labels={0: "101", 1: "0"}, source=0)
        assert check_universality_constraints(bad)

    def test_unknown_scheme_flagged(self):
        weird = Labeling(scheme="mystery", labels={0: "0"}, source=0)
        assert check_universality_constraints(weird)

    def test_fact_3_1_checker_flags_violation(self):
        bad = Labeling(scheme="lambda_ack", labels={0: "101", 1: "000"}, source=0)
        assert check_fact_3_1(bad)

    def test_fact_3_1_allows_coordinator_111(self):
        g = path_graph(5)
        arb = lambda_arb_scheme(g)
        assert check_fact_3_1(arb) == []

    def test_corollary_2_7_checker(self):
        g = grid_graph(3, 3)
        seq = lambda_scheme(g, 0).construction
        assert check_corollary_2_7(seq) == []

    def test_verify_detects_incomplete_broadcast(self):
        g = path_graph(12)
        outcome = get_scheme("lambda").run(g, 0, max_rounds=3)
        assert verify_broadcast_outcome(g, outcome)


class EchoFloodNode(RadioNode):
    """The label-free echo flood as its own node class: retransmit µ exactly
    two rounds after first hearing it.  The oracle for :func:`run_tree_flood`."""

    def __init__(self, node_id: int, label: str, *, is_source: bool = False,
                 source_payload: Any = None) -> None:
        super().__init__(node_id, label, is_source=is_source, source_payload=source_payload)
        self.sourcemsg: Any = source_payload if is_source else None
        self.informed_local_round: Optional[int] = None

    def decide(self, local_round: int) -> Optional[Message]:
        if not self.ever_communicated and self.sourcemsg is not None:
            return source_message(self.sourcemsg)
        if self.informed_local_round is not None and local_round == self.informed_local_round + 2:
            return source_message(self.sourcemsg)
        return None

    def on_receive(self, local_round: int, message: Message) -> None:
        if self.sourcemsg is None and message.is_source:
            self.sourcemsg = message.payload
            self.informed_local_round = local_round


def _echo_flood(tree, source):
    def factory(node_id, label, is_source, source_payload):
        return EchoFloodNode(node_id, label, is_source=is_source, source_payload=source_payload)

    sim = RadioSimulator(tree, {v: "0" for v in tree.nodes()}, factory,
                         source=source, source_payload="MSG")
    return sim.run(2 * tree.n + 4, lambda s: len(s.trace.informed_nodes()) == tree.n)


def _flood_cases(group):
    if group == "named":
        trees = [star_graph(64), path_graph(9), spider_graph(3, 4)]
    else:
        trees = [random_tree(group, seed=seed) for seed in range(6)]
    return [(tree, source) for tree in trees
            for source in sorted({0, tree.n // 2, tree.n - 1})]


class TestTreeFlood:
    @pytest.mark.parametrize("group", [1, 2, 3, 5, 8, 17, 40, 127, "named"])
    @pytest.mark.parametrize("engine", ["reference", "vectorized"])
    def test_tree_flood_is_the_echo_flood(self, engine, group, monkeypatch):
        backend = resolve_backend(engine)
        monkeypatch.setattr(special, "resolve_backend", lambda spec=None: backend)
        for tree, source in _flood_cases(group):
            flood = run_tree_flood(tree, source)
            oracle = _echo_flood(tree, source)
            assert flood.trace.to_json() == oracle.trace.to_json()
            assert (flood.stop_round, flood.stop_reason) == (
                oracle.stop_round, oracle.stop_reason)
            assert flood.completed

    def test_trees_complete_without_labels(self):
        for tree, src in [(random_tree(20, seed=1), 0), (path_graph(9), 4),
                          (star_graph(8), 0), (spider_graph(3, 4), 0)]:
            sim = run_tree_flood(tree, src)
            assert sim.trace.broadcast_completion_round() is not None

    def test_tree_flood_completion_is_twice_depth(self):
        # On a path from an endpoint, depth d is reached in round 2d-1.
        n = 8
        sim = run_tree_flood(path_graph(n), 0)
        assert sim.trace.broadcast_completion_round() == 2 * (n - 1) - 1

    def test_rejects_non_trees(self):
        with pytest.raises(GraphError):
            run_tree_flood(cycle_graph(5), 0)


def _sequential_search(graph, source, *, max_bits=2, attempt_budget=200_000):
    """The search one assignment at a time on the reference engine (the oracle
    for the stacked search)."""
    engine = ReferenceBackend()
    attempts = 0
    others = [v for v in graph.nodes() if v != source]
    for width in range(max_bits + 1):
        alphabet = ["0"] if width == 0 else [
            "".join(bits) for bits in itertools.product("01", repeat=width)]
        for combo in itertools.product(alphabet, repeat=len(others)):
            attempts += 1
            if attempts > attempt_budget:
                return LabelSearchResult(None, None, None, attempts - 1)
            labels = {source: alphabet[0]}
            labels.update(dict(zip(others, combo)))
            task = SimulationTask(
                protocol="broadcast", graph=graph, labels=labels, source=source,
                max_rounds=4 * graph.n + 8, stop_rule="all_informed",
                trace_level="summary",
            )
            completion = engine.run_task(task).trace.broadcast_completion_round()
            if completion is not None:
                return LabelSearchResult(width, labels, completion, attempts)
    return LabelSearchResult(None, None, None, attempts)


#: The stacked search's differential graphs: C3-C10, the small grids, the E9
#: instances and random 9-node graphs.
SEARCH_GRAPHS = (
    [(f"C{n}", cycle_graph(n)) for n in range(3, 11)]
    + [(f"grid {r}x{c}", grid_graph(r, c))
       for r, c in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]]
    + [("series-parallel n=7", random_series_parallel_graph(7, seed=2)),
       ("series-parallel n=9", random_series_parallel_graph(9, seed=4)),
       ("wheel W8", wheel_graph(8)),
       ("two-level star", two_level_star(3, 2))]
    + [(f"{family} n=9 s{seed}", generate_family(family, 9, seed))
       for family in ("gnp_sparse", "geometric", "gnp_dense") for seed in range(4)]
)


class TestStackedSearch:
    @pytest.mark.parametrize("name, graph", SEARCH_GRAPHS,
                             ids=[name for name, _ in SEARCH_GRAPHS])
    def test_matches_the_sequential_search(self, name, graph):
        assert search_minimum_labels(graph, 0) == _sequential_search(graph, 0)

    def test_matches_at_every_small_attempt_budget(self):
        g = cycle_graph(8)
        for budget in range(41):
            assert search_minimum_labels(g, 0, attempt_budget=budget) == \
                _sequential_search(g, 0, attempt_budget=budget), budget

    @pytest.mark.parametrize("max_bits", [0, 1, 2])
    def test_matches_at_every_width_cap(self, max_bits):
        for g in (cycle_graph(8), grid_graph(3, 3), wheel_graph(8)):
            assert search_minimum_labels(g, 0, max_bits=max_bits) == \
                _sequential_search(g, 0, max_bits=max_bits)


class TestLabelSearch:
    def test_four_cycle_needs_more_than_one_label(self):
        # The paper's impossibility example: with all labels equal, the two
        # neighbours of the source behave identically and the antipodal node
        # only ever hears collisions.
        g = cycle_graph(4)
        result = search_minimum_labels(g, 0, max_bits=0)
        assert result.width is None

    def test_four_cycle_solved_with_one_bit(self):
        g = cycle_graph(4)
        result = search_minimum_labels(g, 0, max_bits=1)
        assert result.width == 1
        assert result.labels is not None
        assert broadcast_succeeds_with_labels(g, 0, result.labels) is not None

    def test_two_bits_always_enough_matches_theorem(self):
        for g in (cycle_graph(5), grid_graph(2, 3), star_graph(5)):
            result = search_minimum_labels(g, 0, max_bits=2)
            assert result.width is not None and result.width <= 2

    def test_small_grid_one_bit_suffices(self):
        # Supports the conclusion's claim that grids admit 1-bit schemes.
        result = search_minimum_labels(grid_graph(2, 3), 0, max_bits=1)
        assert result.width in (0, 1)

    def test_attempt_budget_respected(self):
        g = cycle_graph(8)
        result = search_minimum_labels(g, 0, max_bits=2, attempt_budget=5)
        assert result.attempts <= 5

    def test_invalid_source(self):
        with pytest.raises(GraphError):
            search_minimum_labels(path_graph(3), 9)

    def test_witness_labels_reported(self):
        g = path_graph(4)
        result = search_minimum_labels(g, 0, max_bits=1)
        assert result.width is not None
        assert set(result.labels) == set(g.nodes())
