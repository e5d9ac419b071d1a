"""Differential tests: the array Section 2.1 construction against the
original set-based, from-scratch one.

The references below are the construction as first written: a quadratic
``prune_to_minimal`` (every (candidate, target) pair tested), the greedy
strategy scoring every candidate, and ``build_sequences`` recomputing
``FRONTIER_i = UNINF_i ∩ Γ(INF_i)`` from scratch with INF_i/UNINF_i kept as
sets per stage.  The production code must agree with them stage by stage
and label by label on every graph family, alone and stacked in windows of
several (graph, root) pairs; the sweep grid must build one construction per
(graph, root) however many paper schemes label from it and however its
windows fall, and a construction that fails inside a stacked window must
fail exactly the units it fails alone.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.api.grid as api_grid
import repro.core.labeling as core_labeling
import repro.core.sequences as core_sequences
from repro.analysis.executor import GridExecutionError
from repro.analysis.metrics import metrics_from_run
from repro.analysis.sweep import materialize_instance
from repro.api import GridConfig, Scenario, get_scheme, run, run_grid
from repro.api.grid import STACK_NODES
from repro.baselines.base import bits_needed, int_to_bits
from repro.baselines.centralized import compute_centralized_schedule
from repro.baselines.coloring_tdma import coloring_tdma_labels
from repro.baselines.round_robin import round_robin_labels
from repro.core import (
    build_sequences,
    dominates,
    greedy_minimal_dominating_subset,
    lambda_ack_scheme,
    lambda_arb_scheme,
    lambda_scheme,
    prune_to_minimal,
)
from repro.core.labels import LabelArray
from repro.core.sequences import build_sequence_batch
from repro.graphs import (
    Graph,
    GraphError,
    bfs_distances,
    cycle_graph,
    generate_family,
    is_connected,
    path_graph,
    random_connected_graph,
)
from repro.graphs.coloring import square_coloring
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
# label arrays are drop-in label dicts
# --------------------------------------------------------------------------- #
def reference_slot_labels(slots, period):
    """The slotted schemes' labels as first written: ``bits(slot) ++
    bits(period - 1)`` strings of ``bits_needed(period)`` bits each."""
    width = bits_needed(period)
    return {v: int_to_bits(slot, width) + int_to_bits(period - 1, width)
            for v, slot in enumerate(slots)}


def assert_behaves_as_dict(labels, expected):
    """``labels`` reads as the dict ``expected`` keyed by nodes ``0..n-1``."""
    n = len(expected)
    assert isinstance(labels, LabelArray)
    assert labels == expected and expected == labels
    assert not labels != expected and not expected != labels
    assert len(labels) == n and list(labels) == list(expected) == list(range(n))
    assert list(labels.items()) == list(expected.items())
    for key in (-1, n, 1.5, "0", True, *map(np.int64, range(n))):
        assert (key in labels) == (key in expected), key
        assert labels.get(key) == expected.get(key), key
        if key in expected:
            assert labels[key] == expected[key]
        else:
            with pytest.raises(KeyError):
                labels[key]
    assert labels.get(n, "x") == "x"


class TestLabelArrayDropIn:
    """Every labeler of one label width returns a label array: it must equal
    the label strings its scheme was first written to assign, in both
    directions, and read as their dict does."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 40), seed=st.integers(0, 10_000),
           density=st.sampled_from([0.0, 0.05, 0.15, 0.35]),
           pick=st.integers(0, 10_000))
    def test_labelers_equal_the_reference_strings(self, n, seed, density, pick):
        graph = random_connected_graph(n, density, seed=seed)
        source = pick % n
        ref = reference_stages(graph, source)
        assert_behaves_as_dict(lambda_scheme(graph, source).labels,
                               reference_lambda(graph, ref))
        assert_behaves_as_dict(lambda_ack_scheme(graph, source).labels,
                               reference_lambda_ack(graph, ref, source))
        arb = dict(reference_lambda_ack(graph, ref, source))
        arb[source] = "111"
        assert_behaves_as_dict(lambda_arb_scheme(graph, coordinator=source).labels, arb)
        assert_behaves_as_dict(round_robin_labels(graph),
                               reference_slot_labels(range(n), n))
        colours = square_coloring(graph)
        labels, num_colours = coloring_tdma_labels(graph)
        assert num_colours == max(colours.values()) + 1
        assert_behaves_as_dict(
            labels, reference_slot_labels([colours[v] for v in range(n)], num_colours))


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
        # Keeping every candidate that covers a target dominates node 2 of the
        # 4-cycle twice, so NEW_2 is empty and the frontier never shrinks.
        def keep_every_cover(target, cand, counts, status):
            return np.unique(cand)

        monkeypatch.setattr(core_sequences, "pair_strategy", lambda strategy: keep_every_cover)
        with pytest.raises(GraphError, match="exceeded n\\+1 stages"):
            build_sequences(cycle_graph(4), 0)
        # Stacked beside a construction that finishes, the guard still fires.
        with pytest.raises(GraphError, match="exceeded n\\+1 stages"):
            build_sequence_batch([(path_graph(3), 0), (cycle_graph(4), 0)])

    def test_label_checks_catch_a_broken_construction(self):
        # Node 2 put into DOM_2 of the 4-path stays into DOM_3 with no
        # neighbour in NEW_2 = {2}.
        graph = path_graph(4)
        broken = replace(build_sequences(graph, 0), dom_ids=np.array([0, 1, 2, 2]),
                         dom_ptr=np.array([0, 1, 3, 4, 4]))
        with pytest.raises(GraphError, match="no NEW_2 witness adjacent to 2 ∈ DOM_3 ∩ DOM_2"):
            lambda_scheme(graph, 0, construction=broken)
        # On the 3-path the same gives z = 2 the λ_ack label 101.
        graph = path_graph(3)
        broken = replace(build_sequences(graph, 0), dom_ids=np.array([0, 1, 2]),
                         dom_ptr=np.array([0, 1, 3, 3]))
        with pytest.raises(GraphError, match=r"Fact 3.1 violated: nodes \[2\]"):
            lambda_ack_scheme(graph, 0, construction=broken)

    def test_stages_share_one_new_stage_array(self):
        seq = build_sequences(generate_family("grid", 100, 0), 0)
        assert all(stage.new_stage is seq.new_stage for stage in seq.stages)
        assert seq.new_stage.tolist()[0] == 0


# --------------------------------------------------------------------------- #
# one construction per (graph, root) on both grid paths
# --------------------------------------------------------------------------- #
PAPER_GRID = GridConfig(families=["geometric"], sizes=[48], seeds_per_size=3,
                        schemes=["lambda", "lambda_ack", "lambda_arb"])


@pytest.fixture
def sequence_passes(monkeypatch):
    """Every construction pass of the grid's windows, as its (graph, root)
    list and what it returned: the constructions, or the exception raised."""
    calls = []
    original = core_sequences.build_sequence_batch

    def counting(roots, strategy="prune"):
        pairs = [(graph, root) for graph, root in roots]
        try:
            built = original(roots, strategy)
        except Exception as exc:
            calls.append((pairs, exc))
            raise
        calls.append((pairs, built))
        return built

    monkeypatch.setattr(core_sequences, "build_sequence_batch", counting)
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
def test_grid_builds_two_constructions_per_paper_instance(sequence_passes, monkeypatch,
                                                          stack_nodes):
    monkeypatch.setattr(api_grid, "STACK_NODES", stack_nodes)
    instances = [materialize_instance(PAPER_GRID, "geometric", 48, rep) for rep in range(3)]
    rows = run_grid(PAPER_GRID, backend="vectorized", jobs=1)
    # λ and λ_ack share the source's construction; λ_arb's coordinator is n−1.
    expected = [(instance.graph, root) for instance in instances
                for root in (instance.source, instance.graph.n - 1)]
    assert [pair for roots, _ in sequence_passes for pair in roots] == expected
    # One pass per window: the three instances stacked, or one each.
    assert len(sequence_passes) == (1 if stack_nodes else 3)
    assert list(rows) == [row for instance in instances
                          for row in _standalone_rows(PAPER_GRID, instance)]


@pytest.mark.parametrize("pass_nodes, passes", [(48, 6), (100, 3), (144, 2)])
def test_a_window_builds_its_constructions_in_passes_within_the_budget(
        sequence_passes, monkeypatch, pass_nodes, passes):
    # PAPER_GRID's three 48-node instances share one window and register
    # six roots (source, coordinator per instance): 288 nodes in all.
    instances = [materialize_instance(PAPER_GRID, "geometric", 48, rep) for rep in range(3)]
    with monkeypatch.context() as patch:
        patch.setattr(core_sequences, "CONSTRUCTION_PASS_NODES", pass_nodes)
        rows = run_grid(PAPER_GRID, backend="vectorized", jobs=1)
    stacked = list(sequence_passes)
    assert len(stacked) == passes
    for roots, _ in stacked:
        assert sum(graph.n for graph, _ in roots) <= pass_nodes
    # Every (instance, root) pair is built exactly once, in registration order.
    assert [pair for roots, _ in stacked for pair in roots] == [
        (instance.graph, root) for instance in instances
        for root in (instance.source, instance.graph.n - 1)]
    sequence_passes.clear()
    monkeypatch.setattr(api_grid, "STACK_NODES", 0)
    alone = run_grid(PAPER_GRID, backend="vectorized", jobs=1)
    assert len(sequence_passes) == 3
    assert ([c for _, built in stacked for c in built]
            == [c for _, built in sequence_passes for c in built])
    assert list(rows) == list(alone)


# --------------------------------------------------------------------------- #
# a failing construction inside a stacked window
# --------------------------------------------------------------------------- #
MIXED_GRID = GridConfig(families=["geometric"], sizes=[40], seeds_per_size=4,
                        schemes=["lambda", "lambda_ack", "lambda_arb"])


@pytest.fixture
def one_disconnected_instance(monkeypatch):
    """Repetition 2 of ``MIXED_GRID`` loses every edge of node 5."""
    import repro.analysis.sweep as sweep

    original = sweep.materialize_instance

    def patched(config, family, size, rep):
        instance = original(config, family, size, rep)
        if rep != 2:
            return instance
        graph = instance.graph.remove_edges(
            [(5, u) for u in instance.graph.neighbors(5)])
        return replace(instance, graph=graph)

    monkeypatch.setattr(sweep, "materialize_instance", patched)


def _grid_outcome(monkeypatch, stack_nodes, **kwargs):
    monkeypatch.setattr(api_grid, "STACK_NODES", stack_nodes)
    try:
        return list(run_grid(MIXED_GRID, backend="vectorized", jobs=1, **kwargs))
    except Exception as exc:
        return type(exc), str(exc)


#: Construction pass budgets for ``MIXED_GRID``'s one stacked window, whose
#: four instances register 80 nodes of roots each, and the pass that
#: instance 2 falls in: the first (with every instance), the second (with
#: instance 3) or the third (alone, instance 3 in a fourth).
FAILING_PASSES = [(core_sequences.CONSTRUCTION_PASS_NODES, 0), (160, 1), (80, 2)]


def _assert_the_failing_pass(passes, failing):
    """Pass ``failing`` of the stacked run raised; the pairs of the passes
    before it were kept, and every later construction was built alone."""
    raised = [i for i, (_, built) in enumerate(passes) if isinstance(built, Exception)]
    assert raised[0] == failing
    kept = {(id(graph), root) for roots, _ in passes[:failing] for graph, root in roots}
    later = passes[failing + 1:]
    assert all(len(roots) == 1 for roots, _ in later)
    assert not kept & {(id(graph), root) for roots, _ in later for graph, root in roots}


@pytest.mark.parametrize("pass_nodes, failing", FAILING_PASSES,
                         ids=["first_pass", "second_pass", "third_pass"])
@pytest.mark.parametrize("retries", [0, 1])
def test_a_disconnected_instance_fails_only_its_own_paper_units(
        one_disconnected_instance, sequence_passes, monkeypatch, retries,
        pass_nodes, failing):
    monkeypatch.setattr(core_sequences, "CONSTRUCTION_PASS_NODES", pass_nodes)
    stacked = _grid_outcome(monkeypatch, STACK_NODES, strict=False, retries=retries)
    _assert_the_failing_pass(list(sequence_passes), failing)
    alone = _grid_outcome(monkeypatch, 0, strict=False, retries=retries)
    assert stacked == alone
    failed = [(i, row.scheme, row.status) for i, row in enumerate(stacked)
              if row.status.startswith("error")]
    # Rows run instance by instance, three schemes each: instance 2's units.
    assert failed == [(6, "lambda", "error:GraphError"), (7, "lambda_ack", "error:GraphError"),
                      (8, "lambda_arb", "error:GraphError")]


@pytest.mark.parametrize("pass_nodes, failing", FAILING_PASSES,
                         ids=["first_pass", "second_pass", "third_pass"])
def test_a_disconnected_instance_raises_the_same_strict_error(
        one_disconnected_instance, sequence_passes, monkeypatch, pass_nodes, failing):
    monkeypatch.setattr(core_sequences, "CONSTRUCTION_PASS_NODES", pass_nodes)
    stacked = _grid_outcome(monkeypatch, STACK_NODES)
    _assert_the_failing_pass(list(sequence_passes), failing)
    alone = _grid_outcome(monkeypatch, 0)
    assert stacked == alone
    assert stacked[0] is GridExecutionError
    assert "scheme='lambda'" in stacked[1] and "requires a connected graph" in stacked[1]


# --------------------------------------------------------------------------- #
# stacked windows against the references
# --------------------------------------------------------------------------- #
def _window_graph(kind, n, seed):
    if kind == "path":
        return path_graph(n)
    if kind == "dense":
        return random_connected_graph(n, 0.6, seed=seed)
    return random_connected_graph(n, 0.12, seed=seed)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(members=st.lists(st.tuples(st.sampled_from(["path", "sparse", "dense"]),
                                  st.integers(1, 24), st.integers(0, 10_000),
                                  st.integers(0, 10_000)),
                        min_size=1, max_size=6),
       strategy=st.sampled_from(["prune", "greedy"]))
@example(members=[("path", 1, 0, 0), ("path", 2, 0, 1), ("dense", 24, 3, 5),
                  ("path", 9, 0, 4), ("sparse", 20, 7, 0), ("dense", 2, 1, 0)],
         strategy="prune")
@example(members=[("sparse", 24, 11, 3)] * 2 + [("path", 1, 0, 0)], strategy="greedy")
def test_stacked_windows_match_the_references(members, strategy):
    roots = []
    for kind, n, seed, root in members:
        graph = _window_graph(kind, n, seed)
        roots.append((graph, root % graph.n))
    for (graph, root), seq in zip(roots, build_sequence_batch(roots, strategy)):
        ref = reference_stages(graph, root, strategy)
        assert seq.ell == len(ref)
        for stage, (inf, uninf, frontier, dom, new) in zip(seq.stages, ref):
            assert (stage.frontier, stage.dom, stage.new) == (frontier, dom, new)
            assert (stage.informed, stage.uninformed) == (inf, uninf)
        assert seq == build_sequences(graph, root, strategy)
        lam = lambda_scheme(graph, root, strategy=strategy, construction=seq)
        assert lam.labels == reference_lambda(graph, ref)
        ack = lambda_ack_scheme(graph, root, strategy=strategy, construction=seq)
        assert ack.labels == reference_lambda_ack(graph, ref, root)
        arb = lambda_arb_scheme(graph, coordinator=root, strategy=strategy, construction=seq)
        expected = dict(reference_lambda_ack(graph, ref, root))
        expected[root] = "111"
        assert arb.labels == expected
