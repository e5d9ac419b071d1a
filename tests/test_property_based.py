"""Property-based tests (hypothesis) for the core invariants.

Random connected graphs are generated from (size, seed) pairs through the
library's own deterministic generators, so shrinking works on the two integers
and every failing case is reproducible from its parameters.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import get_scheme
from repro.core import (
    FORBIDDEN_ACK_LABELS,
    build_sequences,
    lambda_ack_scheme,
    lambda_scheme,
)
from repro.graphs import (
    Graph,
    GraphError,
    from_adjacency_json,
    from_dimacs,
    from_edge_list,
    is_connected,
    random_connected_graph,
    random_tree,
    to_adjacency_json,
    to_dimacs,
    to_edge_list,
)
from repro.core.special import run_tree_flood

# Keep the per-example cost modest: graphs up to ~26 nodes, few dozen examples.
GRAPH_SIZES = st.integers(min_value=2, max_value=26)
SEEDS = st.integers(min_value=0, max_value=10_000)
DENSITIES = st.sampled_from([0.0, 0.05, 0.15, 0.35])

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _graph_and_source(n: int, seed: int, density: float):
    graph = random_connected_graph(n, density, seed=seed)
    source = seed % n
    return graph, source


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_generated_graphs_are_connected_and_simple(n, seed, density):
    graph, _ = _graph_and_source(n, seed, density)
    assert graph.num_nodes == n
    assert is_connected(graph)
    for u, v in graph.edges():
        assert u != v
        assert 0 <= u < v < n


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_sequence_construction_invariants_hold(n, seed, density):
    graph, source = _graph_and_source(n, seed, density)
    seq = build_sequences(graph, source)
    seq.check_invariants()
    assert seq.ell <= n


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_lambda_labels_are_two_bits_and_at_most_four_values(n, seed, density):
    graph, source = _graph_and_source(n, seed, density)
    lab = lambda_scheme(graph, source)
    assert lab.length == 2
    assert lab.num_distinct_labels() <= 4
    assert set(lab.labels) == set(range(n))


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_broadcast_always_completes_within_2n_minus_3(n, seed, density):
    graph, source = _graph_and_source(n, seed, density)
    outcome = get_scheme("lambda").run(graph, source)
    assert outcome.completed
    assert outcome.completion_round <= max(1, 2 * n - 3)
    # sharp version
    assert outcome.completion_round == max(1, 2 * outcome.labeling.construction.ell - 3)


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_acknowledged_broadcast_ack_window(n, seed, density):
    graph, source = _graph_and_source(n, seed, density)
    outcome = get_scheme("lambda_ack").run(graph, source)
    assert outcome.completed
    assert outcome.acknowledgement_round is not None
    ell = outcome.labeling.construction.ell
    if n > 1:
        assert 2 * ell - 2 <= outcome.acknowledgement_round <= 3 * ell - 4 or ell < 2


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_lambda_ack_never_uses_forbidden_labels(n, seed, density):
    graph, source = _graph_and_source(n, seed, density)
    lab = lambda_ack_scheme(graph, source)
    if n > 1:
        assert not (set(lab.labels.values()) & set(FORBIDDEN_ACK_LABELS))
    ackers = [v for v in graph.nodes() if lab.parsed(v).x3 == 1]
    assert len(ackers) == 1


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_uninformed_nodes_never_transmit(n, seed, density):
    graph, source = _graph_and_source(n, seed, density)
    outcome = get_scheme("lambda").run(graph, source)
    informed_by = outcome.trace.informed_by_round()
    for record in outcome.trace.rounds:
        for v in record.transmissions:
            if v != source:
                assert informed_by[v] < record.round_number


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS)
def test_tree_flood_informs_every_tree(n, seed):
    tree = random_tree(n, seed=seed)
    sim = run_tree_flood(tree, seed % n)
    assert sim.trace.broadcast_completion_round() is not None


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_serialization_roundtrips(n, seed, density):
    graph, _ = _graph_and_source(n, seed, density)
    assert from_edge_list(to_edge_list(graph)) == graph
    assert from_adjacency_json(to_adjacency_json(graph)) == graph
    assert from_dimacs(to_dimacs(graph)) == graph


def _parses_or_graph_error(reader, text):
    try:
        assert isinstance(reader(text), Graph)
    except GraphError:
        pass


#: Line-structured junk: small and negative integers, reader keywords and
#: stray words, so the readers' branches are reached far more often than by
#: uniform text.
_TOKENS = st.sampled_from(["0", "1", "2", "3", "7", "-1", "p", "e", "c", "edge",
                           "#", "x", "1.5", "", "  "])
_LINES = st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=8).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(st.text(max_size=80), _LINES))
def test_graph_readers_return_a_graph_or_raise_graph_error(text):
    _parses_or_graph_error(from_edge_list, text)
    _parses_or_graph_error(from_dimacs, text)


@_SETTINGS
@given(n=st.integers(min_value=1, max_value=20),
       edges=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40))
def test_graphs_with_isolated_nodes_roundtrip(n, edges):
    graph = Graph.from_edges(n, [(u % n, v % n) for u, v in edges if u % n != v % n])
    assert from_edge_list(to_edge_list(graph)) == graph
    assert from_dimacs(to_dimacs(graph)) == graph
    assert from_adjacency_json(to_adjacency_json(graph)) == graph


@_SETTINGS
@given(n=GRAPH_SIZES, seed=SEEDS, density=DENSITIES)
def test_simulation_is_deterministic(n, seed, density):
    graph, source = _graph_and_source(n, seed, density)
    a = get_scheme("lambda").run(graph, source)
    b = get_scheme("lambda").run(graph, source)
    assert a.trace.to_json() == b.trace.to_json()
