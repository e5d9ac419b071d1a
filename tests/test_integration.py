"""Integration tests: universality, the impossibility example, cross-scheme comparisons."""

from __future__ import annotations

import pytest

from repro.api import get_scheme
from repro.backends import BACKEND_NAMES, SimulationTask, resolve_backend
from repro.core import (
    broadcast_succeeds_with_labels,
    lambda_ack_scheme,
    lambda_scheme,
    verify_broadcast_outcome,
)
from repro.graphs import (
    cycle_graph,
    generate_family,
    grid_graph,
    path_graph,
    random_geometric_graph,
    random_gnp_graph,
)
from repro.radio import OffsetClocks, random_offsets


class TestUniversality:
    """The algorithms may use only the label and the node's own history."""

    def test_broadcast_invariant_under_clock_offsets(self):
        # Arbitrary per-node clock offsets must not change the global schedule.
        g = grid_graph(4, 4)
        baseline = get_scheme("lambda").run(g, 0)
        for seed in (1, 2, 3):
            offset = random_offsets(g.n, max_offset=500, seed=seed)
            shifted = get_scheme("lambda").run(g, 0, clock_model=offset)
            assert shifted.completion_round == baseline.completion_round
            assert shifted.trace.to_json() == baseline.trace.to_json()

    def test_acknowledged_invariant_under_clock_offsets(self):
        g = random_gnp_graph(18, 0.2, seed=4)
        baseline = get_scheme("lambda_ack").run(g, 0)
        shifted = get_scheme("lambda_ack").run(
            g, 0, clock_model=OffsetClocks({v: 13 * v + 1 for v in g.nodes()})
        )
        assert shifted.acknowledgement_round == baseline.acknowledgement_round

    def test_arbitrary_source_invariant_under_clock_offsets(self):
        g = cycle_graph(8)
        baseline = get_scheme("lambda_arb").run(g, 3)
        shifted = get_scheme("lambda_arb").run(
            g, 3, clock_model=OffsetClocks({v: 5 * v for v in g.nodes()})
        )
        assert shifted.completion_round == baseline.completion_round

    def test_behaviour_depends_only_on_labels_not_ids(self):
        # Relabel the nodes by a permutation, permute the labeling accordingly:
        # the execution must be the permuted image of the original execution.
        g = grid_graph(3, 4)
        source = 0
        labeling = lambda_scheme(g, source)
        outcome = get_scheme("lambda").run(g, source, labeling=labeling)

        perm = [(7 * v + 3) % g.n for v in range(g.n)]
        assert sorted(perm) == list(range(g.n))
        g_perm = g.relabel(perm)
        permuted_labels = {perm[v]: labeling.labels[v] for v in g.nodes()}
        completion = broadcast_succeeds_with_labels(
            g_perm, perm[source], permuted_labels
        )
        assert completion == outcome.completion_round


class TestImpossibilityExample:
    """Section 1.1: without labels, broadcast fails on the 4-cycle."""

    def test_uniform_labels_fail_on_four_cycle(self, four_cycle):
        for label in ("00", "01", "10", "11"):
            labels = {v: label for v in four_cycle.nodes()}
            assert broadcast_succeeds_with_labels(four_cycle, 0, labels) is None

    @pytest.mark.parametrize("engine", BACKEND_NAMES)
    def test_antipodal_node_only_hears_collisions(self, four_cycle, engine):
        task = SimulationTask(protocol="broadcast", graph=four_cycle,
                              labels={v: "10" for v in four_cycle.nodes()},
                              source=0, payload="x", max_rounds=12)
        result = resolve_backend(engine).run_task(task)
        # node 2 is antipodal to the source on C4: it must never receive anything
        assert result.trace.receive_rounds(2) == []
        assert result.trace.collision_rounds(2) != []

    def test_lambda_succeeds_on_four_cycle(self, four_cycle):
        outcome = get_scheme("lambda").run(four_cycle, 0)
        assert outcome.completed
        assert outcome.completion_round <= 2 * 4 - 3


class TestCrossSchemeComparison:
    @pytest.mark.parametrize("family", ["path", "grid", "gnp_sparse", "geometric"])
    def test_label_length_ranking(self, family):
        g = generate_family(family, 24, seed=5)
        lam = lambda_scheme(g, 0)
        rr = get_scheme("round_robin").run(g, 0)
        td = get_scheme("coloring_tdma").run(g, 0)
        assert lam.length == 2
        assert rr.label_bits > lam.length
        assert td.label_bits > lam.length

    def test_all_schemes_inform_everyone(self):
        g = random_geometric_graph(30, 0.3, seed=8)
        assert get_scheme("lambda").run(g, 0).completed
        assert get_scheme("lambda_ack").run(g, 0).completed
        assert get_scheme("round_robin").run(g, 0).completed
        assert get_scheme("coloring_tdma").run(g, 0).completed

    def test_repeated_broadcasts_reuse_labels(self):
        # The IoT scenario: one labeling, many messages.
        g = random_geometric_graph(25, 0.35, seed=2)
        labeling = lambda_ack_scheme(g, 0)
        rounds = set()
        for k in range(3):
            outcome = get_scheme("lambda_ack").run(g, 0, labeling=labeling,
                                                   payload=f"msg{k}")
            assert outcome.completed
            assert verify_broadcast_outcome(g, outcome) == []
            rounds.add(outcome.acknowledgement_round)
        assert len(rounds) == 1  # identical schedule every time

    def test_full_pipeline_on_every_registered_family(self):
        from repro.graphs import family_names

        for family in family_names():
            g = generate_family(family, 16, seed=3)
            outcome = get_scheme("lambda").run(g, 0)
            assert outcome.completed, family
            assert verify_broadcast_outcome(g, outcome) == [], family
