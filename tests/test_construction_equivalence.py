"""Differential tests: the incremental, compact Section 2.1 construction
against the original from-scratch one.

The references below are the construction as first written: a quadratic
``prune_to_minimal`` (every (candidate, target) pair tested), the greedy
strategy scoring every candidate, and ``build_sequences`` recomputing
``FRONTIER_i = UNINF_i ∩ Γ(INF_i)`` from scratch with INF_i/UNINF_i kept as
sets per stage.  The production code must agree with them stage by stage
and label by label on every graph family, and the sweep grid must build one
construction per (graph, root) however many paper schemes label from it.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.api.grid as api_grid
import repro.core.labeling as core_labeling
import repro.core.sequences as core_sequences
from repro.analysis.metrics import metrics_from_run
from repro.analysis.sweep import materialize_instance
from repro.api import GridConfig, Scenario, get_scheme, run, run_grid
from repro.api.grid import STACK_NODES
from repro.baselines.centralized import compute_centralized_schedule
from repro.core import (
    build_sequences,
    dominates,
    greedy_minimal_dominating_subset,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
    prune_to_minimal,
)
from repro.graphs import (
    Graph,
    GraphError,
    bfs_distances,
    cycle_graph,
    generate_family,
    is_connected,
    random_connected_graph,
)
from repro.graphs.generators import FAMILIES

EMPTY = frozenset()


# --------------------------------------------------------------------------- #
# the original implementations (test-only references)
# --------------------------------------------------------------------------- #
def reference_prune(graph, candidates, targets):
    cand = set(candidates)
    targets = list(dict.fromkeys(targets))
    if not dominates(graph, cand, targets):
        raise GraphError("candidate set does not dominate the target set")
    cover_count = {t: len(graph.neighbors(t) & cand) for t in targets}
    targets_of = {c: [t for t in targets if c in graph.neighbors(t)] for c in cand}
    keep = set(cand)
    for c in sorted(cand):
        if all(cover_count[t] >= 2 for t in targets_of[c]):
            keep.discard(c)
            for t in targets_of[c]:
                cover_count[t] -= 1
    return frozenset(c for c in keep if targets_of[c])


def reference_greedy(graph, candidates, targets):
    cand = set(candidates)
    targets = list(dict.fromkeys(targets))
    if not dominates(graph, cand, targets):
        raise GraphError("candidate set does not dominate the target set")
    coverage = {c: {t for t in targets if c in graph.neighbors(t)} for c in cand}
    uncovered, chosen = set(targets), set()
    while uncovered:
        best = max(sorted(cand - chosen), key=lambda c: len(coverage[c] & uncovered))
        chosen.add(best)
        uncovered -= coverage[best]
    return reference_prune(graph, chosen, targets)


REFERENCE_STRATEGIES = {"prune": reference_prune, "greedy": reference_greedy}


def reference_stages(graph, source, strategy="prune"):
    """``(INF, UNINF, FRONTIER, DOM, NEW)`` of every stage, from scratch."""
    if not is_connected(graph):
        raise GraphError("the paper's model requires a connected graph")
    all_nodes = frozenset(range(graph.n))
    informed = frozenset({source})
    uninformed = all_nodes - informed
    if informed == all_nodes:
        return [(informed, EMPTY, EMPTY, EMPTY, EMPTY)]
    frontier = graph.neighborhood({source}) & uninformed
    stages = [(informed, uninformed, frontier, frozenset({source}), frontier)]
    while True:
        prev_inf, prev_uninf, _, prev_dom, prev_new = stages[-1]
        informed, uninformed = prev_inf | prev_new, prev_uninf - prev_new
        if informed == all_nodes:
            stages.append((informed, uninformed, EMPTY, EMPTY, EMPTY))
            return stages
        frontier = uninformed & graph.neighborhood(informed)
        dom = REFERENCE_STRATEGIES[strategy](graph, prev_dom | prev_new, frontier)
        new = frozenset(t for t in frontier if len(graph.neighbors(t) & dom) == 1)
        stages.append((informed, uninformed, frontier, dom, new))


def reference_lambda(graph, stages):
    x1 = {v: 0 for v in graph.nodes()}
    x2 = {v: 0 for v in graph.nodes()}
    for *_, dom, _new in stages:
        for v in dom:
            x1[v] = 1
    for (_, _, _, dom_i, new_i), nxt in zip(stages, stages[1:]):
        for v in sorted(nxt[3] & dom_i):
            x2[sorted(graph.neighbors(v) & new_i)[0]] = 1
    return {v: f"{x1[v]}{x2[v]}" for v in graph.nodes()}


def reference_lambda_ack(graph, stages, source):
    z = min(stages[-2][4]) if len(stages) >= 2 else source
    base = reference_lambda(graph, stages)
    return {v: base[v] + ("1" if v == z else "0") for v in graph.nodes()}


def reference_bfs(graph, source):
    dist = [-1] * graph.n
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(graph.neighbors(u)):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def assert_same_construction(graph, source, strategy="prune"):
    seq = build_sequences(graph, source, strategy)
    ref = reference_stages(graph, source, strategy)
    assert seq.ell == len(ref)
    for stage, (inf, uninf, frontier, dom, new) in zip(seq.stages, ref):
        i = stage.index
        assert stage.frontier == frontier, f"FRONTIER_{i}"
        assert stage.dom == dom, f"DOM_{i}"
        assert stage.new == new, f"NEW_{i}"
        assert stage.informed == inf, f"INF_{i}"
        assert stage.uninformed == uninf, f"UNINF_{i}"
        for v in new:
            assert seq.informed_round(v) == 2 * i - 1
    seq.check_invariants()
    return seq, ref


def _family_instances():
    for family in sorted(FAMILIES):
        for size in (12, 40):
            for seed in (0, 1):
                graph = generate_family(family, size, seed)
                for source in sorted({0, graph.n - 1}):
                    yield pytest.param(family, size, seed, source,
                                       id=f"{family}-{size}-{seed}-s{source}")


# --------------------------------------------------------------------------- #
# stage-by-stage and label-by-label equality
# --------------------------------------------------------------------------- #
class TestAgainstReference:
    @pytest.mark.parametrize("family,size,seed,source", list(_family_instances()))
    def test_stages_and_labels_match(self, family, size, seed, source):
        graph = generate_family(family, size, seed)
        seq, ref = assert_same_construction(graph, source)
        assert lambda_scheme(graph, source).labels == reference_lambda(graph, ref)
        ack = lambda_ack_scheme(graph, source, construction=seq)
        assert ack.labels == reference_lambda_ack(graph, ref, source)
        arb = lambda_arb_scheme(graph, coordinator=source)
        expected = dict(reference_lambda_ack(graph, ref, source))
        expected[source] = "111"
        assert arb.labels == expected
        assert list(bfs_distances(graph, source)) == reference_bfs(graph, source)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_greedy_strategy_and_centralized_schedule_match(self, family):
        graph = generate_family(family, 40, 3)
        assert_same_construction(graph, 0, strategy="greedy")
        informed, schedule = {0}, []
        while len(informed) < graph.n:
            frontier = {v for v in set(graph.nodes()) - informed
                        if graph.neighbors(v) & informed}
            transmitters = reference_greedy(graph, informed, frontier)
            schedule.append(transmitters)
            informed |= {v for v in frontier
                         if len(graph.neighbors(v) & transmitters) == 1}
        assert compute_centralized_schedule(graph, 0) == schedule

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 30), seed=st.integers(0, 10_000),
           density=st.sampled_from([0.0, 0.05, 0.15, 0.35]),
           strategy=st.sampled_from(["prune", "greedy"]))
    def test_hypothesis_connected_graphs(self, n, seed, density, strategy):
        graph = random_connected_graph(n, density, seed=seed)
        source = seed % n
        seq, ref = assert_same_construction(graph, source, strategy)
        labels = lambda_scheme(graph, source, construction=seq).labels
        assert labels == reference_lambda(graph, ref)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 10_000),
           cand_bits=st.integers(0, 2**24 - 1), target_bits=st.integers(0, 2**24 - 1))
    def test_dominating_subsets_match_on_arbitrary_inputs(self, n, seed, cand_bits,
                                                          target_bits):
        graph = random_connected_graph(n, 0.15, seed=seed)
        candidates = {v for v in range(n) if cand_bits >> v & 1}
        targets = {v for v in range(n) if target_bits >> v & 1}
        for fast, slow in ((prune_to_minimal, reference_prune),
                           (greedy_minimal_dominating_subset, reference_greedy)):
            try:
                expected = slow(graph, candidates, targets)
            except GraphError as exc:
                with pytest.raises(GraphError, match=str(exc)):
                    fast(graph, candidates, targets)
            else:
                assert fast(graph, candidates, targets) == expected


# --------------------------------------------------------------------------- #
# the checks the rewrite must keep
# --------------------------------------------------------------------------- #
class TestGuards:
    def test_disconnected_graph_raises_the_connectivity_error(self):
        graph = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        for source in (0, 3):
            with pytest.raises(GraphError, match="requires a connected graph"):
                build_sequences(graph, source)
        with pytest.raises(GraphError, match="requires a connected graph"):
            build_sequences(Graph.empty(2), 0)

    def test_stage_guard_catches_a_construction_without_progress(self, monkeypatch):
        # Keeping every candidate dominates node 2 of the 4-cycle twice, so
        # NEW_2 is empty and the frontier never shrinks.
        monkeypatch.setattr(core_sequences, "minimal_dominating_subset",
                            lambda graph, candidates, targets, strategy: frozenset(candidates))
        with pytest.raises(GraphError, match="exceeded n\\+1 stages"):
            build_sequences(cycle_graph(4), 0)

    def test_stages_share_one_new_stage_array(self):
        seq = build_sequences(generate_family("grid", 100, 0), 0)
        assert all(stage.new_stage is seq.new_stage for stage in seq.stages)
        assert seq.new_stage.tolist()[0] == 0


# --------------------------------------------------------------------------- #
# one construction per (graph, root) on both grid paths
# --------------------------------------------------------------------------- #
PAPER_GRID = GridConfig(families=["geometric"], sizes=[48], seeds_per_size=1,
                        schemes=["lambda", "lambda_ack", "lambda_arb"])


@pytest.fixture
def sequence_builds(monkeypatch):
    """Counts every construction built through ``repro.core.labeling``."""
    calls = []
    original = core_labeling.build_sequences

    def counting(graph, source, strategy="prune"):
        calls.append(source)
        return original(graph, source, strategy)

    monkeypatch.setattr(core_labeling, "build_sequences", counting)
    return calls


def _standalone_rows(config, instance):
    rows = []
    for name in config.schemes:
        options = get_scheme(name).grid_options(instance.graph, instance.source)
        outcome = run(Scenario(graph=instance.graph, scheme=name, source=instance.source,
                               trace_level="summary", options=options),
                      backend="vectorized")
        rows.append(metrics_from_run(instance.graph, outcome, family=instance.family,
                                     source=instance.source))
    return rows


@pytest.mark.parametrize("stack_nodes", [0, STACK_NODES], ids=["alone", "stacked"])
def test_grid_builds_two_constructions_per_paper_instance(sequence_builds, monkeypatch,
                                                          stack_nodes):
    monkeypatch.setattr(api_grid, "STACK_NODES", stack_nodes)
    instance = materialize_instance(PAPER_GRID, "geometric", 48, 0)
    rows = run_grid(PAPER_GRID, backend="vectorized", jobs=1)
    # λ and λ_ack share the source's construction; λ_arb's coordinator is n−1.
    assert sequence_builds == [instance.source, instance.graph.n - 1]
    assert list(rows) == _standalone_rows(PAPER_GRID, instance)
