"""Differential suite for the stacked multi-instance kernels.

The vectorized backend's ``run_batch`` stacks many tasks' CSR blocks into
one block-diagonal kernel invocation; its *entire* claim is that this is
invisible: outcomes, derived values, stop bookkeeping and full traces must
be bit-for-bit identical to per-task execution — each task as a batch of
one through ``run_task`` — and to the reference engine, for any batch
composition (ragged sizes, mixed budgets and stop rules, any scheme mix
routed through the grid, random non-paper labels whose runs stall, go
silent or end on budget), and grid rows must be independent of the job
count and of how many instances share a call.  The grid's one window rule
decides that: up to ``STACK_NODES`` requested nodes on ``vectorized``, one
instance on every other engine; the tests patch ``STACK_NODES`` to move
the windows.  Negative paths: heterogeneous batches refuse with a clear
error, the retired engine names and knobs are rejected, uncovered tasks
ride the per-task fallback (their ``backend`` tag says so), and a failing
cell surfaces a
:class:`~repro.analysis.executor.GridExecutionError` naming its spec.  The
channel's two counting branches (an n-length ``bincount`` and a sort of
just the round's targets) are each forced on the differential and on the
graphs that stress them: the worst-case path, a high-degree star, barbells
and isolated nodes.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.executor import GridExecutionError
import repro.api.grid as grid
from repro.api import GridConfig, get_scheme, run_grid
from repro.api.grid import STACK_NODES, grid_row_specs, grid_unit_key
from repro.backends import (
    BACKEND_NAMES,
    BackendError,
    ReferenceBackend,
    VectorizedBackend,
    batched,
    resolve_backend,
)
from repro.cli import build_parser, main
from repro.core.labels import LabelArray
from repro.graphs import Graph, generate_family
from repro.graphs.generators import barbell_graph, family_names
from repro.store import ResultStore

VECTORIZED = VectorizedBackend()
REFERENCE = ReferenceBackend()
SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: Schemes the stacked kernels cover natively.
BATCHED_SCHEMES = [
    "lambda",
    "lambda_ack",
    "lambda_arb",
    "round_robin",
    "coloring_tdma",
    "centralized",
    "collision_detection",
]

FAMILIES = ["path", "cycle", "star", "grid", "gnp_sparse", "geometric"]


def _build_task(scheme_name, family, size, seed, trace_level="summary"):
    """One (graph, scheme, labels, task) work unit, grid-style; the family
    ``"single"`` is the 1-node graph."""
    if family == "single":
        graph = Graph.from_edges(1, [])
    else:
        graph = generate_family(family, size, seed)
    source = seed % graph.n
    scheme = get_scheme(scheme_name)
    options = scheme.grid_options(graph, source)
    info = scheme.build_labels(graph, source, **options)
    task = scheme.build_task(
        graph, info, source,
        payload="MSG",
        max_rounds=scheme.default_budget(graph, info),
        trace_level=trace_level,
        fault_model=None,
        clock_model=None,
    )
    return graph, scheme, info, task


def _fingerprint(result):
    """Everything a BackendResult exposes: trace (full equality), derived
    outcomes and stop bookkeeping."""
    return (
        result.trace,
        result.derived,
        result.simulation.stop_round,
        result.simulation.stop_reason,
    )


#: How the channel counts each round's receptions: chosen per round, or
#: forced onto one branch by patching the two crossover constants.
CHANNEL_BRANCHES = {
    "switched": {},
    "dense": {"_SPARSE_MIN_NODES": 1 << 62},
    "sparse": {"_SPARSE_MIN_NODES": 0, "_SPARSE_FACTOR": 0},
}


def _channel(branch):
    """Resolve every round inside the block on ``branch``."""
    overrides = CHANNEL_BRANCHES[branch]
    return mock.patch.multiple(batched, **overrides) if overrides else nullcontext()


def _task_on(graph, scheme_name, trace_level="full"):
    scheme = get_scheme(scheme_name)
    info = scheme.build_labels(graph, 0)
    return scheme.build_task(
        graph, info, 0, payload="MSG",
        max_rounds=scheme.default_budget(graph, info),
        trace_level=trace_level, fault_model=None, clock_model=None,
    )


def _branch_log(monkeypatch):
    """Record, per channel round from now on, the branch that resolved it:
    ``"dense"``, ``"sparse"``, or ``"idle"`` when no transmitter had a
    neighbour."""
    log = []
    resolve = batched._Channel.resolve
    resolve_sparse = batched._Channel._resolve_sparse

    def spy_resolve(self, tx_ids):
        log.append("dense" if self.degrees[tx_ids].sum() else "idle")
        return resolve(self, tx_ids)

    def spy_sparse(*args):
        log[-1] = "sparse"
        return resolve_sparse(*args)

    monkeypatch.setattr(batched._Channel, "resolve", spy_resolve)
    monkeypatch.setattr(batched._Channel, "_resolve_sparse", staticmethod(spy_sparse))
    return log


def _count_kernel_calls(monkeypatch):
    """Record ``(protocol, B)`` for every stacked kernel call from now on."""
    calls = []
    for protocol, kernel in list(batched._BATCH_KERNELS.items()):
        def counting(tasks, _protocol=protocol, _kernel=kernel):
            calls.append((_protocol, len(tasks)))
            return _kernel(tasks)

        monkeypatch.setitem(batched._BATCH_KERNELS, protocol, counting)
    return calls


# --------------------------------------------------------------------------- #
# property-based differential tests: batched == vectorized == reference
# --------------------------------------------------------------------------- #
class TestBatchedDifferential:
    @pytest.mark.parametrize("channel", ["switched", "sparse"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        scheme_name=st.sampled_from(BATCHED_SCHEMES),
        instances=st.lists(
            st.tuples(
                st.sampled_from(FAMILIES),
                st.integers(min_value=2, max_value=20),
                st.integers(min_value=0, max_value=6),
            ),
            min_size=1,
            max_size=5,
        ),
        trace_level=st.sampled_from(["summary", "full"]),
    )
    def test_batched_matches_vectorized_and_reference(
        self, channel, scheme_name, instances, trace_level
    ):
        built = [_build_task(scheme_name, f, n, s, trace_level) for f, n, s in instances]
        with _channel(channel):
            outs = VECTORIZED.run_batch([task for *_, task in built])
            solos = [VECTORIZED.run_task(task) for *_, task in built]
        for (graph, scheme, info, task), out, solo in zip(built, outs, solos):
            assert out.simulation.nodes == []  # the stacked kernel really ran
            assert _fingerprint(out) == _fingerprint(solo)
            ref = REFERENCE.run_task(task)
            if trace_level == "full":
                assert out.trace.to_json() == ref.trace.to_json()
            assert out.trace == ref.trace
            out_outcome = scheme.derive_outcome(graph, task, out, info)
            ref_outcome = scheme.derive_outcome(graph, task, ref, info)
            assert out_outcome.completion_round == ref_outcome.completion_round
            assert out_outcome.acknowledgement_round == ref_outcome.acknowledgement_round

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        sizes=st.lists(st.integers(min_value=2, max_value=24), min_size=2, max_size=6),
        scheme_name=st.sampled_from(BATCHED_SCHEMES),
    )
    def test_ragged_batch_composition_is_invisible(self, sizes, scheme_name):
        """Splitting the same tasks into different batch shapes changes nothing."""
        built = [
            _build_task(scheme_name, "gnp_sparse", n, i) for i, n in enumerate(sizes)
        ]
        tasks = [task for *_, task in built]
        whole = VECTORIZED.run_batch(tasks)
        halves = VECTORIZED.run_batch(tasks[: len(tasks) // 2]) + VECTORIZED.run_batch(
            tasks[len(tasks) // 2 :]
        )
        singles = [VECTORIZED.run_batch([t])[0] for t in tasks]
        for a, b, c in zip(whole, halves, singles):
            assert _fingerprint(a) == _fingerprint(b) == _fingerprint(c)

    @pytest.mark.parametrize("channel", ["switched", "sparse"])
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        data=st.data(),
        scheme_name=st.sampled_from(BATCHED_SCHEMES),
        trace_level=st.sampled_from(["summary", "full"]),
    )
    def test_mixed_budgets_and_stop_rules_match_solo_runs(
        self, channel, data, scheme_name, trace_level
    ):
        """Instances retire at different rounds without disturbing the rest.

        One batch mixes budgets of 0, 1 and the scheme's default, the
        scheme's own stop rule with none at all, and a 1-node graph; every
        result must equal the same task run alone and on the reference
        engine.
        """
        members = data.draw(st.lists(
            st.tuples(
                st.sampled_from(FAMILIES),
                st.integers(min_value=2, max_value=14),
                st.integers(min_value=0, max_value=4),
                st.booleans(),  # keep the scheme's own stop rule
            ),
            min_size=2,
            max_size=5,
        ))
        members.append(("single", 1, 0, data.draw(st.booleans())))
        budgets = [("zero", "one", "default")[i % 3] for i in range(len(members))]
        order = data.draw(st.permutations(range(len(members))))
        tasks = []
        for i in order:
            family, size, seed, own_rule = members[i]
            *_, task = _build_task(scheme_name, family, size, seed, trace_level)
            budget = {"zero": 0, "one": 1, "default": task.max_rounds}[budgets[i]]
            task = replace(task, max_rounds=budget)
            if not own_rule:
                task = replace(task, stop_rule=None)
            tasks.append(task)
        with _channel(channel):
            outs = VECTORIZED.run_batch(tasks)
            solos = [VECTORIZED.run_task(task) for task in tasks]
        for task, out, solo in zip(tasks, outs, solos):
            assert out.backend == "vectorized"
            assert _fingerprint(out) == _fingerprint(solo)
            ref = REFERENCE.run_task(task)
            assert (out.trace, out.simulation.stop_round, out.simulation.stop_reason) \
                == (ref.trace, ref.simulation.stop_round, ref.simulation.stop_reason)
            if trace_level == "full":
                assert out.trace.to_json() == ref.trace.to_json()


#: Schemes whose kernels decide from event lists and jump over silent
#: rounds, with the labels the random-label property draws for them.
EVENT_SCHEMES = ["lambda", "lambda_ack", "lambda_arb", "round_robin", "coloring_tdma"]


@st.composite
def _random_label_task(draw, scheme_name, trace_level):
    """A grid-style task with random non-paper labels, budget and stop rule.

    λ gets random 2-bit labels and λ_ack random 3-bit ones, on every node or
    on up to two nodes of the paper's labeling; λ_arb the same without
    ``111``, which stays at the coordinator alone (what its nodes and the
    kernel both take as the coordinator).  Round-robin and TDMA get
    random slots and periods of one width, shared by all nodes or per node,
    and sometimes one node of a wider label.  Budgets are 0, 1, small, the
    scheme's default or 3× it, under the scheme's own stop rule or none."""
    family = draw(st.sampled_from(FAMILIES + ["single"]))
    *_, task = _build_task(scheme_name, family, draw(st.integers(2, 12)),
                           draw(st.integers(0, 4)), trace_level)
    n = task.graph.n
    if scheme_name in ("round_robin", "coloring_tdma"):
        width = draw(st.integers(1, 3))
        field = st.integers(0, (1 << width) - 1)
        shared = draw(st.one_of(st.none(), field))
        labels = {}
        for v in range(n):
            period = draw(field) if shared is None else shared
            labels[v] = format(draw(field), f"0{width}b") + format(period, f"0{width}b")
        if draw(st.booleans()):
            v = draw(st.integers(0, n - 1))
            labels[v] = "0" + labels[v][:width] + "0" + labels[v][width:]
    else:
        width = 2 if scheme_name == "lambda" else 3
        alphabet = [format(i, f"0{width}b") for i in range(1 << width)]
        if scheme_name == "lambda_arb":
            alphabet.remove("111")
        # Fully random labels mostly stall early; the paper's labels with a
        # few nodes relabelled reach the later phases and ack chains too.
        labels = dict(task.labels)
        relabelled = range(n) if draw(st.booleans()) else draw(
            st.lists(st.integers(0, n - 1), max_size=2))
        for v in relabelled:
            labels[v] = draw(st.sampled_from(alphabet))
        if scheme_name == "lambda_arb":
            labels[task.extras["coordinator"]] = "111"
    # Labels of one width also run as a label array, read as codes.
    widths = {len(label) for label in labels.values()}
    if len(widths) == 1 and draw(st.booleans()):
        labels = LabelArray([int(labels[v], 2) for v in range(n)], widths.pop())
    default = task.max_rounds
    budget = draw(st.sampled_from(
        [0, 1, draw(st.integers(2, 12)), default, 3 * default]))
    stop_rule = task.stop_rule if draw(st.booleans()) else None
    return replace(task, labels=labels, max_rounds=budget, stop_rule=stop_rule)


def _totals(result):
    trace = result.trace
    return (
        result.derived, result.simulation.stop_round, result.simulation.stop_reason,
        trace.num_rounds, trace.total_transmissions(), trace.total_receptions(),
        trace.total_collisions(), trace.transmissions_by_kind(),
        trace.total_message_bits(),
    )


class TestRandomLabelDifferential:
    """Random labels stall, silence and budget-end runs that paper labels
    never do: every kernel that jumps over silent rounds must still match
    the same task run alone and on the reference engine."""

    @pytest.mark.parametrize("scheme_name", EVENT_SCHEMES)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(data=st.data())
    def test_stacked_solo_and_reference_agree(self, scheme_name, data):
        level = data.draw(st.sampled_from(["none", "summary", "full"]))
        tasks = data.draw(st.lists(_random_label_task(scheme_name, level),
                                   min_size=1, max_size=4))
        outs = VECTORIZED.run_batch(tasks)
        for task, out in zip(tasks, outs):
            assert out.backend == "vectorized"
            assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))
            ref = REFERENCE.run_task(task)
            # The reference engine records "none" as "summary" by design.
            assert _totals(out) == _totals(ref)
            if level == "full":
                assert out.trace.to_json() == ref.trace.to_json()
            elif level == "summary":
                assert out.trace == ref.trace


class TestChannelBranches:
    """Each counting branch, forced, on the graphs that stress it."""

    @pytest.mark.parametrize("channel", ["dense", "sparse"])
    def test_channel_counts_are_int64_on_a_high_degree_star(self, channel):
        n = 4097
        graph = generate_family("star", n, 0)
        channel_ = batched._Channel(*graph.csr(), graph.n)
        with _channel(channel):
            # The hub transmits to every leaf at once.
            tx_ids, hears_ids, senders, collision_ids = channel_.resolve(
                np.array([0], dtype=np.int64)
            )
            assert hears_ids.size == n - 1 and collision_ids.size == 0
            assert senders.tolist() == [0] * (n - 1)
            for arr in (tx_ids, hears_ids, senders):
                assert arr.dtype == np.int64
            # All leaves answering floods the hub with one colliding burst.
            _, hears_ids, _, collision_ids = channel_.resolve(
                np.arange(1, n, dtype=np.int64)
            )
        assert collision_ids.tolist() == [0] and hears_ids.size == 0
        assert collision_ids.dtype == np.int64

    @pytest.mark.parametrize("channel", ["dense", "sparse"])
    def test_star_broadcast_counts_survive_every_engine(self, channel):
        *_, task = _build_task("lambda", "star", 2000, 0)
        with _channel(channel):
            out = resolve_backend("vectorized").run_task(task)
        ref = REFERENCE.run_task(task)
        assert out.trace == ref.trace
        assert out.trace.total_receptions() == ref.trace.total_receptions()

    def test_batched_per_instance_counts_are_int64(self):
        tasks = [_build_task("lambda", "star", 64, s)[-1] for s in range(3)]
        lay = batched._BatchLayout(tasks)
        counts = lay.counts(np.arange(lay.total, dtype=np.int64))
        assert counts.dtype == np.int64
        assert counts.tolist() == [64, 64, 64]

    @pytest.mark.parametrize("channel", ["dense", "sparse"])
    @pytest.mark.parametrize("graph", [
        pytest.param(generate_family("path", 40, 1), id="path-40"),
        pytest.param(generate_family("star", 33, 0), id="star-33"),
        pytest.param(barbell_graph(12, 30), id="barbell-12-30"),
        pytest.param(barbell_graph(5, 3), id="barbell-5-3"),
    ])
    def test_worst_case_shapes_match_reference(self, graph, channel):
        # The 2n−3-round path maximises rounds; stars and barbells pair a
        # hub of huge degree with long thin stretches.
        for scheme_name in ("lambda", "round_robin", "coloring_tdma"):
            task = _task_on(graph, scheme_name)
            with _channel(channel):
                out = VECTORIZED.run_task(task)
            ref = REFERENCE.run_task(task)
            assert out.simulation.nodes == []
            assert out.trace.to_json() == ref.trace.to_json()
            assert (out.simulation.stop_round, out.simulation.stop_reason) == \
                (ref.simulation.stop_round, ref.simulation.stop_reason)

    @pytest.mark.parametrize("channel", ["dense", "sparse"])
    def test_isolated_nodes_never_hear_or_corrupt_counts(self, channel):
        # Degree-0 nodes contribute no targets and must never be resolved;
        # the λ schemes need connected graphs, so the slotted protocols are
        # the ones that visit them.
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3)])
        for scheme_name in ("round_robin", "coloring_tdma"):
            task = _task_on(graph, scheme_name)
            with _channel(channel):
                out = VECTORIZED.run_task(task)
            ref = REFERENCE.run_task(task)
            assert out.trace.to_json() == ref.trace.to_json()
            assert out.derived["completion_round"] is None

    @pytest.mark.parametrize("family", family_names())
    def test_branches_match_a_brute_force_channel_on_every_family(self, family):
        graph = generate_family(family, 40, 3)
        channel_ = batched._Channel(*graph.csr(), graph.n)
        rng = np.random.default_rng(0)
        subsets = [[], list(graph.nodes()), [graph.n - 1]] + [
            np.flatnonzero(rng.random(graph.n) < p).tolist()
            for p in (0.05, 0.2, 0.5, 0.9) for _ in range(3)
        ]
        for tx in subsets:
            transmitting = set(tx)
            heard = {}
            for v in graph.nodes():
                if v not in transmitting:
                    heard[v] = sorted(graph.neighbors(v) & transmitting)
            hears = [v for v, us in heard.items() if len(us) == 1]
            expected = (
                tx,
                hears,
                [heard[v][0] for v in hears],
                [v for v, us in heard.items() if len(us) >= 2],
            )
            for branch in ("dense", "sparse"):
                with _channel(branch):
                    out = channel_.resolve(np.array(tx, dtype=np.int64))
                assert tuple(a.tolist() for a in out) == expected, (branch, tx)
                assert {a.dtype for a in out} == {np.dtype(np.int64)}

    @pytest.mark.parametrize("scheme_name", BATCHED_SCHEMES)
    def test_switching_branches_mid_run_matches_reference(self, scheme_name, monkeypatch):
        # A factor of 8 on this 126-node stack sends a round to the sparse
        # branch below 16 targets and to bincount above, so every scheme's
        # run mixes both branches from round to round.
        members = [("star", 40, 0), ("grid", 36, 1), ("path", 20, 2), ("gnp_sparse", 30, 3)]
        tasks = [_build_task(scheme_name, f, n, s, "full")[-1] for f, n, s in members]
        log = _branch_log(monkeypatch)
        with mock.patch.multiple(batched, _SPARSE_MIN_NODES=0, _SPARSE_FACTOR=8):
            outs = VECTORIZED.run_batch(tasks)
        assert {"dense", "sparse"} <= set(log)
        for task, out in zip(tasks, outs):
            ref = REFERENCE.run_task(task)
            assert out.trace.to_json() == ref.trace.to_json()
            assert (out.simulation.stop_round, out.simulation.stop_reason) == \
                (ref.simulation.stop_round, ref.simulation.stop_reason)

    @pytest.mark.parametrize("copies", [1, 2, 3, 7])
    def test_stacked_worst_case_paths_through_the_sparse_branch(self, copies):
        # Each sender is found by a search over the stacked transmitters'
        # neighbour slices, so blocks sitting side by side must not leak
        # senders into each other.
        tasks = [_build_task("lambda", "path", 40, s, "full")[-1] for s in range(copies)]
        with _channel("sparse"):
            outs = VECTORIZED.run_batch(tasks)
        for task, out in zip(tasks, outs):
            with _channel("dense"):
                solo = VECTORIZED.run_task(task)
            assert _fingerprint(out) == _fingerprint(solo)
            ref = REFERENCE.run_task(task)
            assert out.trace.to_json() == ref.trace.to_json()
            assert out.simulation.stop_round == ref.simulation.stop_round


class TestRetiredEngines:
    """The ``batched``, ``sharded`` and ``ell`` engine names and the
    ``batch_size`` knob are gone; rows stored under those names are not."""

    #: Every spec the retired engines answered to, suffixed forms included:
    #: with the suffix parser gone, none may resolve to a surviving engine.
    RETIRED_SPECS = [
        "batched", "sharded", "sharded:2", "ell",
        "sharded:0", "sharded:-1", "sharded:many", "sharded:K", "vectorized:3",
        "ell:fast", "ell:2", "ell:jit", "ell:numpy", "vectorized:jit",
    ]

    #: Store keys of the one row of ``GridConfig(families=["path"],
    #: sizes=[9], schemes=["lambda"])`` as every earlier version wrote them:
    #: a changed key would orphan every saved store.
    STORE_KEYS = {
        None: "719e91063f962372adeea1c7fa9d3ca6954467f69eadd1d7b6dd7b18e0351c1d",
        "reference": "719e91063f962372adeea1c7fa9d3ca6954467f69eadd1d7b6dd7b18e0351c1d",
        "vectorized": "84ca7a2ed6aa0823da2d8df8da1d97ccf22dc9ddc2db2c1e8b1f43960db4cc43",
        "batched": "36cc1428ff4d2c36827827353109c302bb132733634179411672336c5612d3bc",
        "sharded": "7b591fbb87643220a91b7f7d4eb3265bb0ac057d8884d68e7a5dc23e669c7fe6",
        "ell": "6df3b20fc80b4c89a9fd5576a4922a425a2ae01f19eda1278de0f0d39fc71f63",
    }

    @pytest.mark.parametrize("spec", RETIRED_SPECS)
    def test_resolve_backend_lists_the_valid_specs(self, spec):
        with pytest.raises(BackendError) as err:
            resolve_backend(spec)
        assert BACKEND_NAMES == ("reference", "vectorized")
        assert "valid backend specs: reference, vectorized" in str(err.value)

    @pytest.mark.parametrize("spec", ["batched", "sharded", "sharded:2", "ell"])
    def test_cli_backend_rejects_retired_specs(self, spec, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(
                ["sweep", "--families", "path", "--sizes", "9", "--backend", spec]
            )
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"unknown backend {spec!r}" in err
        assert "reference, vectorized" in err

    def test_cli_sweep_rejects_batch_size(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--families", "path", "--sizes", "9",
                  "--batch-size", "4"])
        assert exit_.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_grid_config_rejects_batch_size(self):
        with pytest.raises(TypeError, match="batch_size"):
            GridConfig(families=["path"], sizes=[9], batch_size=4)

    def test_submit_grid_file_with_batch_size_exits_2(self, tmp_path, capsys):
        # Rejected while the file is parsed, before any connection attempt.
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(
            {"families": ["path"], "sizes": [9], "batch_size": 4}))
        assert main(["submit", str(grid_file), "--connect", "127.0.0.1:9"]) == 2
        err = capsys.readouterr().err
        assert "invalid grid file" in err and "batch_size" in err

    @pytest.mark.parametrize("backend", list(STORE_KEYS))
    def test_store_keys_match_earlier_versions(self, backend):
        cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda"])
        (unit,) = grid_row_specs(cfg)
        assert grid_unit_key(cfg, unit, backend=backend) == self.STORE_KEYS[backend]

    def test_store_rows_keyed_by_retired_engines_still_load(self, tmp_path):
        cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda"])
        rows = run_grid(cfg, backend="vectorized")
        (unit,) = grid_row_specs(cfg)
        keys = {name: grid_unit_key(cfg, unit, backend=name)
                for name in ("batched", "sharded", "ell")}
        assert keys["batched"] == self.STORE_KEYS["batched"]
        store = ResultStore(tmp_path / "store")
        for name, key in keys.items():
            store.put(key, replace(rows[0], backend=name))
        store.close()
        reopened = ResultStore(tmp_path / "store")
        for name, key in keys.items():
            row = reopened.get(key)
            assert row == rows[0] and row.backend == name
        assert sorted(r.backend for r in reopened.rows()) == [
            "batched", "ell", "sharded"]


class TestCollisionDetectionVectorized:
    """The last baseline off the reference engine now runs as a kernel."""

    CASES = [("path", 9, 1), ("grid", 16, 1), ("gnp_sparse", 25, 7)]

    @pytest.mark.parametrize("family,size,seed", CASES,
                             ids=[f"{f}-{n}" for f, n, _ in CASES])
    def test_with_detection_identical_to_reference(self, family, size, seed):
        graph = generate_family(family, size, seed)
        source = seed % graph.n
        ref = get_scheme("collision_detection").run(
            graph, source, backend="reference", trace_level="summary"
        )
        alt = get_scheme("collision_detection").run(
            graph, source, backend="vectorized", trace_level="summary"
        )
        assert alt.completion_round == ref.completion_round
        assert alt.extras["decoded_correctly"] and ref.extras["decoded_correctly"]
        assert alt.simulation.trace == ref.simulation.trace
        assert len(alt.simulation.nodes) == 0  # kernel path, no node objects

    def test_without_detection_fails_identically(self):
        # The protocol genuinely needs the detection channel; under the
        # paper's default model it must fail the same way on every engine.
        graph = generate_family("grid", 16, 1)
        ref = get_scheme("collision_detection").run(
            graph, 0, with_detection=False, backend="reference", trace_level="summary"
        )
        alt = get_scheme("collision_detection").run(
            graph, 0, with_detection=False, backend="vectorized", trace_level="summary"
        )
        assert ref.completion_round is None and alt.completion_round is None
        assert not alt.extras["decoded_correctly"]
        assert alt.simulation.trace == ref.simulation.trace

    def test_full_trace_identical(self):
        graph = generate_family("gnp_sparse", 16, 3)
        ref = get_scheme("collision_detection").run(
            graph, 1, backend="reference", trace_level="full"
        )
        vec = get_scheme("collision_detection").run(
            graph, 1, backend="vectorized", trace_level="full"
        )
        assert vec.trace.to_json() == ref.trace.to_json()


# --------------------------------------------------------------------------- #
# grid-level equality: window sizes × job counts × fault/clock axes
# --------------------------------------------------------------------------- #
GRID_CFG = GridConfig(
    families=["path", "gnp_sparse"],
    sizes=[9, 16],
    seeds_per_size=2,
    schemes=["lambda", "lambda_ack", "round_robin", "collision_detection", "lambda_arb"],
    # Every fault/clock spec kind: non-default models route through the
    # per-task fallback, which must be just as invisible as the stacking.
    faults=[None, "drop:0.15:3", "crash:2@4"],
    clocks=[None, "offset:2", "random_offsets:5:1"],
)


@pytest.fixture(scope="module")
def reference_rows():
    return run_grid(GRID_CFG, backend="reference", jobs=1)


class TestGridBatching:
    def test_vectorized_rows_match_reference(self, reference_rows):
        assert run_grid(GRID_CFG, backend="vectorized", jobs=1) == reference_rows

    #: ``STACK_NODES`` values that cut GRID_CFG's eight instances (requested
    #: sizes 9, 9, 16, 16 per family) into windows of 1, 2, 7 (plus 1) and
    #: all 8 instances, and into a mix of 2- and 1-instance windows, with
    #: the largest stacked kernel call each gives.
    WINDOWS = [(0, 1), (32, 2), (84, 7), (512, 8), (20, 2)]

    @pytest.mark.parametrize("stack_nodes,per_call", WINDOWS,
                             ids=["1", "2", "7", "all", "mixed"])
    def test_batched_rows_match_reference(self, reference_rows, monkeypatch,
                                          stack_nodes, per_call):
        monkeypatch.setattr(grid, "STACK_NODES", stack_nodes)
        calls = _count_kernel_calls(monkeypatch)
        rows = run_grid(GRID_CFG, backend="vectorized", jobs=1)
        assert rows == reference_rows
        assert max(b for _, b in calls) == per_call

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_batched_rows_independent_of_jobs(self, reference_rows, jobs):
        rows = run_grid(GRID_CFG, backend="vectorized", jobs=jobs)
        assert rows == reference_rows

    def test_grid_rows_format_no_label_strings(self, monkeypatch):
        # Every labeler of one width returns a label array, and the task
        # checks, the label summaries and the kernels read its codes: a
        # string is formatted only when someone reads a label.  One window
        # holds n = 32 and n = 64 instances, so the round-robin kernel
        # stacks 10- and 12-bit slot labels in one call.
        config = GridConfig(families=["path", "grid"], sizes=[32, 64],
                            seeds_per_size=2, schemes=EVENT_SCHEMES)
        reads = []
        read = LabelArray.__getitem__

        def spy(labels, key):
            reads.append(key)
            return read(labels, key)

        monkeypatch.setattr(LabelArray, "__getitem__", spy)
        widths = []
        for protocol, kernel in list(batched._BATCH_KERNELS.items()):
            def logged(tasks, _kernel=kernel):
                widths.append({task.labels.width for task in tasks})
                return _kernel(tasks)

            monkeypatch.setitem(batched._BATCH_KERNELS, protocol, logged)
        rows = run_grid(config, backend="vectorized", jobs=1)
        assert reads == []
        assert {10, 12} in widths
        assert {row.backend for row in rows} == {"vectorized"}
        monkeypatch.undo()
        assert rows == run_grid(config, backend="reference", jobs=1)

    def test_grid_rows_leave_numpy_ma_unimported(self):
        # np.unique and np.isin import numpy.ma on their first call (about
        # 8 ms and 1.3 MB in a fresh process), so no row path may call them.
        script = "\n".join([
            "import sys",
            "from repro.api import GridConfig, run_grid",
            f"config = GridConfig(families=['gnp_sparse'], sizes=[16], "
            f"schemes={BATCHED_SCHEMES!r})",
            "for backend in ('vectorized', 'reference'):",
            "    rows = run_grid(config, backend=backend)",
            "    assert {row.status for row in rows} == {'ok'}, rows",
            "    assert {row.backend for row in rows} == {backend}, rows",
            "print('numpy.ma' in sys.modules)",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["False"]


# --------------------------------------------------------------------------- #
# the grid's window rule: instances per kernel call
# --------------------------------------------------------------------------- #
class TestStackingWindows:
    """``vectorized`` stacks whole instances while their requested sizes sum
    to at most ``STACK_NODES``; every other engine runs one instance per
    window.  ``STACK_NODES = 0`` is the one-instance-per-call baseline."""

    def test_stacks_up_to_the_node_cap(self, monkeypatch):
        # Requested sizes 1024, 1024, 2048 | 2048: the first window holds
        # exactly STACK_NODES nodes, so the last instance starts a second.
        assert STACK_NODES == 4096
        cfg = GridConfig(families=["gnp_sparse"],
                         sizes=[STACK_NODES // 4, STACK_NODES // 2], seeds_per_size=2,
                         schemes=["lambda", "round_robin"])
        with monkeypatch.context() as patch:
            patch.setattr(grid, "STACK_NODES", 0)
            per_instance = run_grid(cfg, backend="vectorized")
        calls = _count_kernel_calls(monkeypatch)
        snapshots = []
        rows = run_grid(cfg, backend="vectorized", on_chunk=snapshots.append)
        assert calls == [("broadcast", 3), ("round_robin", 3),
                         ("broadcast", 1), ("round_robin", 1)]
        assert snapshots[-1].total_chunks == 2  # at jobs=1 a chunk is a window
        assert [r.as_dict() for r in rows] == [r.as_dict() for r in per_instance]
        assert {r.backend for r in rows} == {"vectorized"}

    def test_instances_at_or_past_the_cap_run_alone(self, monkeypatch):
        # Random trees: the window rule reads requested sizes only, and a
        # tree keeps the cap-sized instances cheap.
        cfg = GridConfig(families=["random_tree"],
                         sizes=[16, STACK_NODES, STACK_NODES + 88, 16],
                         seeds_per_size=2, schemes=["lambda"])
        with monkeypatch.context() as patch:
            patch.setattr(grid, "STACK_NODES", 0)
            per_instance = run_grid(cfg, backend="vectorized")
        calls = _count_kernel_calls(monkeypatch)
        rows = run_grid(cfg, backend="vectorized")
        assert calls == [("broadcast", 2)] + [("broadcast", 1)] * 4 + [("broadcast", 2)]
        assert rows == per_instance

    def test_patched_node_cap_sets_the_window(self, monkeypatch):
        cfg = GridConfig(families=["path"], sizes=[9], seeds_per_size=6,
                         schemes=["lambda"])
        monkeypatch.setattr(grid, "STACK_NODES", 36)
        calls = _count_kernel_calls(monkeypatch)
        rows = run_grid(cfg, backend="vectorized")
        assert calls == [("broadcast", 4), ("broadcast", 2)]
        assert [r.backend for r in rows] == ["vectorized"] * 6

    def test_reference_default_streams_one_instance_per_chunk(self, monkeypatch):
        cfg = GridConfig(families=["path", "grid"], sizes=[9, 12],
                         schemes=["lambda", "round_robin"])
        calls = _count_kernel_calls(monkeypatch)
        snapshots = []
        rows = run_grid(cfg, on_chunk=snapshots.append)
        assert calls == []
        assert snapshots[-1].total_chunks == 4
        assert {r.backend for r in rows} == {"reference"}


# --------------------------------------------------------------------------- #
# negative paths
# --------------------------------------------------------------------------- #
class TestBatchingNegativePaths:
    def test_empty_batch(self):
        assert VECTORIZED.run_batch([]) == []

    def test_mixed_protocols_refuse_to_batch(self):
        _, _, _, a = _build_task("lambda", "path", 9, 1)
        _, _, _, b = _build_task("round_robin", "path", 9, 1)
        with pytest.raises(BackendError, match="mixed protocols"):
            VECTORIZED.run_batch([a, b])

    def test_mixed_trace_levels_refuse_to_batch(self):
        _, _, _, a = _build_task("lambda", "path", 9, 1, trace_level="summary")
        _, _, _, b = _build_task("lambda", "path", 9, 2, trace_level="full")
        with pytest.raises(BackendError, match="mixed trace levels"):
            VECTORIZED.run_batch([a, b])

    def test_arb_runs_stacked_without_fallback(self, monkeypatch):
        # B_arb is stacked natively: the per-task fallback must never be
        # touched for default channel models.
        built = [_build_task("lambda_arb", f, n, s)
                 for f, n, s in [("grid", 16, 2), ("path", 9, 1), ("star", 7, 3)]]
        solos = [VECTORIZED.run_task(task) for *_, task in built]

        def boom(self, task):
            raise AssertionError("stacked B_arb must not fall back per task")

        monkeypatch.setattr(ReferenceBackend, "run_task", boom)
        outs = VECTORIZED.run_batch([task for *_, task in built])
        for out, solo in zip(outs, solos):
            assert _fingerprint(out) == _fingerprint(solo)
            assert out.backend == "vectorized"

    def test_fallback_covers_non_default_models(self):
        from repro.radio.clock import OffsetClocks

        graph = generate_family("path", 9, 1)
        scheme = get_scheme("lambda")
        info = scheme.build_labels(graph, 0)
        tasks = []
        for _ in range(2):
            tasks.append(scheme.build_task(
                graph, info, 0, payload="MSG",
                max_rounds=scheme.default_budget(graph, info),
                trace_level="summary", fault_model=None,
                clock_model=OffsetClocks({v: 3 for v in graph.nodes()}),
            ))
        out = VECTORIZED.run_batch([tasks[0]])[0]
        ref = REFERENCE.run_task(tasks[1])
        assert out.trace == ref.trace
        # The provenance tag says the reference fallback ran, not a kernel.
        assert out.backend == "reference" and out.simulation.nodes

    def test_resolve_backend_shares_one_vectorized_instance(self):
        backend = resolve_backend("vectorized")
        assert isinstance(backend, VectorizedBackend)
        assert resolve_backend("vectorized") is backend
        # The two calls a per-call tracer wraps on the shared instance.
        assert callable(backend.run_task) and callable(backend._fallback.run_task)

    def test_vectorized_run_batch_is_one_kernel_call(self, monkeypatch):
        # run_batch stacks the whole batch into one kernel call, equal task
        # by task to run_task.
        backend = resolve_backend("vectorized")
        *_, a = _build_task("lambda", "grid", 16, 1)
        *_, b = _build_task("lambda", "path", 9, 2)
        solos = [backend.run_task(task) for task in (a, b)]
        calls = _count_kernel_calls(monkeypatch)
        outs = backend.run_batch([a, b])
        assert calls == [("broadcast", 2)]
        assert [out.backend for out in outs] == ["vectorized", "vectorized"]
        for solo, out in zip(solos, outs):
            assert _fingerprint(out) == _fingerprint(solo)


# --------------------------------------------------------------------------- #
# failing cells surface their scenario spec
# --------------------------------------------------------------------------- #
class TestGridExecutionError:
    #: A payload too long for the bit-signalling 16-bit length header: the
    #: collision-detection scheme fails at execution time on every backend.
    BAD_PAYLOAD = "x" * 9000

    def test_serial_failure_names_the_spec(self):
        cfg = GridConfig(families=["path"], sizes=[9],
                         schemes=["collision_detection"], payload=self.BAD_PAYLOAD)
        with pytest.raises(GridExecutionError) as excinfo:
            run_grid(cfg, backend="reference", jobs=1)
        message = str(excinfo.value)
        assert "collision_detection" in message
        assert "path" in message and "seed=" in message
        assert excinfo.value.spec["scheme"] == "collision_detection"
        assert excinfo.value.spec["family"] == "path"

    def test_batched_failure_names_the_spec(self):
        cfg = GridConfig(families=["path"], sizes=[9],
                         schemes=["collision_detection"], payload=self.BAD_PAYLOAD)
        with pytest.raises(GridExecutionError) as excinfo:
            run_grid(cfg, backend="vectorized", jobs=1)
        assert excinfo.value.spec["scheme"] == "collision_detection"

    def test_parallel_failure_names_the_spec(self):
        # The error must cross the process-pool boundary intact instead of
        # surfacing as a bare pool traceback.
        cfg = GridConfig(families=["path"], sizes=[9, 16], seeds_per_size=2,
                         schemes=["lambda", "collision_detection"],
                         payload=self.BAD_PAYLOAD)
        with pytest.raises(GridExecutionError) as excinfo:
            run_grid(cfg, backend="vectorized", jobs=2)
        assert excinfo.value.spec["scheme"] == "collision_detection"
        assert "seed=" in str(excinfo.value)

    def test_pickles_with_spec_intact(self):
        err = GridExecutionError("boom", {"scheme": "lambda", "n": 9})
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, GridExecutionError)
        assert str(clone) == "boom"
        assert clone.spec == {"scheme": "lambda", "n": 9}


# --------------------------------------------------------------------------- #
# execution provenance: rows name the engine that actually ran them
# --------------------------------------------------------------------------- #
class TestBackendProvenance:
    def test_fallback_rows_report_their_actual_backend(self):
        # Fault-model cells cannot run stacked: dispatched to the vectorized
        # backend they execute on the reference engine, and the row must say
        # so instead of being labeled "vectorized".
        cfg = GridConfig(families=["path"], sizes=[9], seeds_per_size=4,
                         schemes=["lambda"], faults=[None, "drop:0.2:3"])
        rows = run_grid(cfg, backend="vectorized", jobs=1)
        assert {(r.fault, r.backend) for r in rows} == {
            ("none", "vectorized"), ("drop:0.2:3", "reference")}

    def test_arb_rows_report_vectorized(self):
        cfg = GridConfig(families=["path"], sizes=[9], seeds_per_size=4,
                         schemes=["lambda_arb"])
        rows = run_grid(cfg, backend="vectorized", jobs=1)
        assert [r.backend for r in rows] == ["vectorized"] * 4

    def test_vectorized_fallback_reports_reference(self):
        cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda"],
                         faults=["drop:0.2:3"])
        rows = run_grid(cfg, backend="vectorized", jobs=1)
        assert [r.backend for r in rows] == ["reference"]

    def test_provenance_is_not_part_of_row_equality(self):
        cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda"])
        ref_rows = run_grid(cfg, backend="reference")
        vec_rows = run_grid(cfg, backend="vectorized")
        assert ref_rows == vec_rows  # measurements agree ...
        assert ref_rows[0].backend == "reference"  # ... provenance differs
        assert vec_rows[0].backend == "vectorized"
        assert ref_rows[0].as_dict()["backend"] == "reference"

    def test_coverage_probe_reflects_stacked_arb(self):
        from repro.api import scheme_backend_coverage

        assert scheme_backend_coverage("lambda_arb") == ["reference", "vectorized"]
