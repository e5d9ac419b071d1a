"""Differential suite for the sharded single-instance backend.

The sharded backend's entire claim is that splitting the round loop's CSR
segments across a process pool is invisible: traces, derived values and stop
bookkeeping must be bit-for-bit identical to the single-instance vectorized
engine at **any** shard count.  The suite also pins the shard-selection
plumbing (``resolve_backend("sharded:K")``, ``Scenario.shards``,
``GridConfig.shards``, the CLI ``--shards`` flag, shard-independent store
keys) and the int64 hardening of the CSR receive-count kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GridConfig, Scenario, get_scheme, run_grid
from repro.api.grid import grid_unit_key
from repro.backends import (
    BackendError,
    ShardedVectorizedBackend,
    VectorizedBackend,
    resolve_backend,
)
from repro.graphs import generate_family
from repro.store.keys import normalize_backend_name

VECTORIZED = VectorizedBackend()

#: Protocol schemes the sharded segment kernels cover natively.
SHARDED_SCHEMES = ["lambda", "round_robin", "coloring_tdma"]

FAMILIES = ["path", "cycle", "star", "grid", "gnp_sparse", "geometric"]

SHARD_COUNTS = [1, 2, 3, 7]

#: One shared backend per shard count, so the persistent pools are reused
#: across the whole module instead of being re-forked per example.
BACKENDS = {k: ShardedVectorizedBackend(shards=k) for k in SHARD_COUNTS}


def _build_task(scheme_name, family, size, seed, trace_level="summary"):
    graph = generate_family(family, size, seed)
    source = seed % graph.n
    scheme = get_scheme(scheme_name)
    options = scheme.grid_options(graph, source)
    info = scheme.build_labels(graph, source, _payload_text="MSG", **options)
    return scheme.build_task(
        graph, info, source,
        payload="MSG",
        max_rounds=scheme.default_budget(graph, info),
        trace_level=trace_level,
        fault_model=None,
        clock_model=None,
    )


def _fingerprint(result):
    return (
        result.trace,
        result.derived,
        result.simulation.stop_round,
        result.simulation.stop_reason,
    )


# --------------------------------------------------------------------------- #
# property-based differential grid: sharded == vectorized at any shard count
# --------------------------------------------------------------------------- #
class TestShardedDifferential:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        scheme_name=st.sampled_from(SHARDED_SCHEMES),
        family=st.sampled_from(FAMILIES),
        size=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=6),
        shards=st.sampled_from(SHARD_COUNTS),
        trace_level=st.sampled_from(["summary", "full"]),
    )
    def test_sharded_matches_vectorized(
        self, scheme_name, family, size, seed, shards, trace_level
    ):
        task = _build_task(scheme_name, family, size, seed, trace_level)
        out = BACKENDS[shards].run_task(task)
        solo = VECTORIZED.run_task(task)
        assert out.simulation.nodes == []  # the segment kernels really ran
        assert out.backend == "sharded"
        assert _fingerprint(out) == _fingerprint(solo)
        if trace_level == "full":
            assert out.trace.to_json() == solo.trace.to_json()

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_worst_case_path_all_shard_counts(self, shards):
        # The 2n−3-round path maximises rounds (and therefore pool round
        # trips); every shard count must agree with the single-core engine.
        task = _build_task("lambda", "path", 40, 1)
        out = BACKENDS[shards].run_task(task)
        solo = VECTORIZED.run_task(task)
        assert _fingerprint(out) == _fingerprint(solo)

    def test_segments_cover_every_node_exactly_once(self):
        backend = ShardedVectorizedBackend(shards=3)
        graph = generate_family("gnp_sparse", 50, 2)
        indptr, _ = graph.csr()
        segments = backend._segments(np.asarray(indptr, dtype=np.int64), graph.n)
        covered = [v for lo, hi in segments for v in range(lo, hi)]
        assert covered == list(range(graph.n))

    def test_more_shards_than_nodes(self):
        task = _build_task("lambda", "path", 3, 0)
        out = BACKENDS[7].run_task(task)
        assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))


# --------------------------------------------------------------------------- #
# dispatch: fallback, strict mode, provenance
# --------------------------------------------------------------------------- #
class TestShardedDispatch:
    def test_uncovered_scheme_falls_back_with_true_provenance(self):
        task = _build_task("lambda_ack", "grid", 16, 2)
        out = BACKENDS[2].run_task(task)
        solo = VECTORIZED.run_task(task)
        assert _fingerprint(out) == _fingerprint(solo)
        assert out.backend == "vectorized"  # the engine that actually ran it

    def test_non_default_models_fall_back_to_reference(self):
        from repro.radio.clock import OffsetClocks

        graph = generate_family("path", 9, 1)
        scheme = get_scheme("lambda")
        info = scheme.build_labels(graph, 0)
        task = scheme.build_task(
            graph, info, 0, payload="MSG",
            max_rounds=scheme.default_budget(graph, info),
            trace_level="summary", fault_model=None,
            clock_model=OffsetClocks({v: 3 for v in graph.nodes()}),
        )
        out = BACKENDS[2].run_task(task)
        assert out.backend == "reference"

    def test_strict_raises_for_uncovered_task(self):
        task = _build_task("lambda_ack", "path", 9, 1)
        with pytest.raises(BackendError, match="no segment kernel"):
            ShardedVectorizedBackend(shards=2, strict=True).run_task(task)


# --------------------------------------------------------------------------- #
# shard-selection threading: resolver, scenario, grid config, CLI, store keys
# --------------------------------------------------------------------------- #
class TestShardSelectionThreading:
    def test_resolve_backend_parses_shard_specs(self):
        backend = resolve_backend("sharded:3")
        assert isinstance(backend, ShardedVectorizedBackend)
        assert backend.shards == 3
        assert resolve_backend("sharded:3") is backend  # shared per spec
        assert resolve_backend("sharded") is not backend

    @pytest.mark.parametrize("bad", ["sharded:0", "sharded:-1", "sharded:many",
                                     "vectorized:3"])
    def test_resolve_backend_rejects_bad_specs(self, bad):
        with pytest.raises(BackendError):
            resolve_backend(bad)

    def test_scenario_shards_round_trip_and_backend_spec(self):
        scenario = Scenario(graph="path:9", scheme="lambda", shards=2,
                            trace_level="summary")
        clone = Scenario.from_json(scenario.to_json())
        assert clone.shards == 2
        assert clone.backend_spec() == "sharded:2"
        assert Scenario(graph="path:9").backend_spec() is None

    def test_scenario_rejects_shards_with_other_backend(self):
        with pytest.raises(ValueError, match="shards"):
            Scenario(graph="path:9", backend="batched", shards=2)

    @pytest.mark.parametrize("bad", [0, -2])
    def test_grid_config_rejects_non_positive_shards(self, bad):
        with pytest.raises(ValueError, match="shards"):
            GridConfig(families=["path"], sizes=[9], shards=bad)

    def test_grid_config_shards_conflicts_with_other_backend(self):
        cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda"], shards=2)
        with pytest.raises(ValueError, match="shards"):
            run_grid(cfg, backend="batched")

    def test_grid_config_shards_refuses_to_override_an_instance(self):
        # An explicit backend instance carries its own shards/strict settings;
        # swapping it for the pooled default would silently discard them.
        cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda"], shards=2)
        explicit = ShardedVectorizedBackend(shards=7, strict=True)
        with pytest.raises(ValueError, match="backend instance"):
            run_grid(cfg, backend=explicit)
        # Without config.shards, the instance is honored — strict mode and
        # all: lambda_ack has no segment kernel, so strict must surface.
        strict_cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda_ack"])
        from repro.analysis.executor import GridExecutionError

        with pytest.raises(GridExecutionError, match="no segment kernel"):
            run_grid(strict_cfg, backend=ShardedVectorizedBackend(shards=2, strict=True))

    def test_session_cleans_up_partial_shm_on_create_failure(self, monkeypatch):
        from multiprocessing import shared_memory as shm_mod

        from repro.backends.sharded import _Session

        created = []
        real = shm_mod.SharedMemory

        class Flaky:
            calls = 0

            def __new__(cls, *args, **kwargs):
                Flaky.calls += 1
                if Flaky.calls == 3:
                    raise OSError("no space left on /dev/shm")
                block = real(*args, **kwargs)
                created.append(block)
                return block

        monkeypatch.setattr("repro.backends.sharded.shared_memory.SharedMemory", Flaky)
        arrays = {f"a{i}": np.zeros(8, dtype=np.int64) for i in range(4)}
        with pytest.raises(OSError, match="no space"):
            _Session(arrays)
        monkeypatch.undo()
        # Both successfully created blocks were unlinked by the cleanup path.
        for block in created:
            with pytest.raises(FileNotFoundError):
                real(name=block.name)

    def test_cli_run_shards_respects_scenario_backend(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        Scenario(graph="path:9", scheme="lambda", backend="vectorized",
                 trace_level="summary").save(path)
        # The scenario declares vectorized; --shards must refuse rather than
        # silently override the author's backend choice.
        assert main(["run", str(path), "--shards", "2"]) == 2
        assert "sharded" in capsys.readouterr().err
        # An explicit --backend sharded (overriding the file) composes fine.
        assert main(["run", str(path), "--backend", "sharded", "--shards", "2"]) == 0

    def test_grid_rows_match_reference_through_shards(self):
        cfg = GridConfig(families=["path", "gnp_sparse"], sizes=[9], shards=2,
                         schemes=["lambda", "round_robin", "lambda_ack"])
        sharded_rows = run_grid(cfg)
        plain = GridConfig(families=["path", "gnp_sparse"], sizes=[9],
                           schemes=["lambda", "round_robin", "lambda_ack"])
        assert sharded_rows == run_grid(plain, backend="reference")
        by_scheme = {r.scheme: r.backend for r in sharded_rows}
        assert by_scheme["lambda"] == "sharded"
        assert by_scheme["lambda_ack"] == "vectorized"  # fallback provenance

    def test_cli_shards_implies_sharded_backend(self):
        import argparse

        from repro.cli import build_parser, sweep_backend

        args = build_parser().parse_args(
            ["sweep", "--families", "path", "--sizes", "9", "--shards", "4"]
        )
        assert args.backend is None
        assert sweep_backend(args.backend, args.batch_size, args.shards) == "sharded:4"
        assert sweep_backend("sharded", None, 2) == "sharded:2"
        with pytest.raises(argparse.ArgumentTypeError):
            sweep_backend("batched", None, 2)

    @pytest.mark.parametrize("bad", ["0", "-1", "lots"])
    def test_cli_rejects_bad_shards(self, bad, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--families", "path", "--sizes", "9", "--shards", bad]
            )
        assert "shard count" in capsys.readouterr().err

    def test_store_keys_are_shard_count_independent(self):
        # Shard count is parallelism: resuming with a different count (or the
        # bare name) must hit the same cache entries.
        assert normalize_backend_name("sharded:2") == "sharded"
        cfg = GridConfig(families=["path"], sizes=[9], schemes=["lambda"])
        unit = ("path", 9, 0, None, None, "lambda")
        keys = {
            grid_unit_key(cfg, unit, backend=spec)
            for spec in ("sharded", "sharded:2", "sharded:7")
        }
        assert len(keys) == 1
        assert keys != {grid_unit_key(cfg, unit, backend="vectorized")}


# --------------------------------------------------------------------------- #
# int64 hardening of the CSR receive-count kernels
# --------------------------------------------------------------------------- #
class TestReceiveCountInt64:
    def test_channel_counts_are_int64_on_a_high_degree_star(self):
        from repro.backends.batched import _Channel

        n = 4097
        graph = generate_family("star", n, 0)
        channel = _Channel(*graph.csr(), graph.n)
        tx_mask = np.zeros(n, dtype=bool)
        tx_mask[0] = True  # the hub transmits to every leaf at once
        tx_ids, hears_ids, senders, collision_ids = channel.resolve(tx_mask)
        assert hears_ids.size == n - 1 and collision_ids.size == 0
        for arr in (tx_ids, hears_ids, senders):
            assert arr.dtype == np.int64
        # All leaves answering floods the hub with one (colliding) burst.
        tx_mask[:] = True
        tx_mask[0] = False
        _, hears_ids, _, collision_ids = channel.resolve(tx_mask)
        assert collision_ids.tolist() == [0] and hears_ids.size == 0
        assert collision_ids.dtype == np.int64

    @pytest.mark.parametrize("backend_spec", ["vectorized", "sharded:2", "batched"])
    def test_star_broadcast_counts_survive_every_engine(self, backend_spec):
        task = _build_task("lambda", "star", 2000, 0)
        out = resolve_backend(backend_spec).run_task(task)
        ref = VECTORIZED.run_task(task)
        assert out.trace == ref.trace
        assert out.trace.total_receptions() == ref.trace.total_receptions()

    def test_batched_per_instance_counts_are_int64(self):
        from repro.backends.batched import _BatchLayout

        tasks = [_build_task("lambda", "star", 64, s) for s in range(3)]
        lay = _BatchLayout(tasks)
        counts = lay.counts(np.arange(lay.total, dtype=np.int64))
        assert counts.dtype == np.int64
        assert counts.tolist() == [64, 64, 64]
