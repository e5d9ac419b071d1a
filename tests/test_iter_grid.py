"""Streaming sessions: iter_grid, resumable store-backed sweeps, strict mode.

The resume tests simulate the two ways a sweep dies mid-grid:

* the consumer stops pulling rows (generator closed — a crashed driver), and
* a worker raises after K cells (a monkeypatched scheme method; worker
  processes are forked, so the patch reaches them).

Either way the store must keep every completed cell, the resumed run must
only compute the missing cells, and the final ResultSet must be bit-identical
to an uninterrupted run — for jobs 1/2/3 and however many instances share
an engine call.
"""

from __future__ import annotations

import time

import pytest

import repro.api.grid as grid
from repro.analysis.executor import GridExecutionError
from repro.api import (
    GridConfig,
    GridProgress,
    ResultSet,
    ResultStore,
    grid_row_specs,
    iter_grid,
    run_grid,
)
from repro.api.grid import STACK_NODES
from repro.backends import BackendError

CFG = GridConfig(
    families=["path", "grid", "gnp_sparse"],
    sizes=[9, 12],
    seeds_per_size=1,
    schemes=["lambda", "round_robin"],
)

FAULT_CFG = GridConfig(
    families=["path", "gnp_sparse"],
    sizes=[12],
    seeds_per_size=2,
    schemes=["lambda", "lambda_ack"],
    faults=[None, "drop:0.2:5"],
)


#: ``(backend, STACK_NODES)``: one instance per engine call, on the
#: reference engine and on ``vectorized`` with a zero node cap.
ALONE = pytest.mark.parametrize(
    "backend,stack_nodes", [(None, STACK_NODES), ("vectorized", 0)],
    ids=["None", "vectorized-0"],
)

#: ``ALONE`` plus ``vectorized`` stacking up to its default node cap.
ALONE_OR_STACKED = pytest.mark.parametrize(
    "backend,stack_nodes",
    [(None, STACK_NODES), ("vectorized", 0), ("vectorized", STACK_NODES)],
    ids=["None", "vectorized-0", "vectorized"],
)


@pytest.fixture
def backend_calls(monkeypatch):
    """Counts every reference-backend task execution in this process."""
    from repro.backends import ReferenceBackend

    calls = []
    original = ReferenceBackend.run_task

    def counting(self, task):
        calls.append(task)
        return original(self, task)

    monkeypatch.setattr(ReferenceBackend, "run_task", counting)
    return calls


# --------------------------------------------------------------------------- #
# streaming semantics
# --------------------------------------------------------------------------- #
class TestStreaming:
    def test_first_row_observable_before_the_grid_drains(self, backend_calls):
        total = len(grid_row_specs(CFG))
        stream = iter_grid(CFG, ordered=True)
        first = next(stream)
        # Only the first chunk (one instance) has executed at this point.
        calls_at_first_row = len(backend_calls)
        assert 0 < calls_at_first_row < total
        rest = list(stream)
        assert len(backend_calls) == total
        assert [first] + rest == run_grid(CFG)

    def test_ordered_stream_equals_run_grid(self):
        assert list(iter_grid(CFG, ordered=True)) == run_grid(CFG)
        assert list(iter_grid(FAULT_CFG, ordered=True)) == run_grid(FAULT_CFG)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unordered_stream_is_a_permutation(self, jobs):
        expected = run_grid(CFG)
        rows = list(iter_grid(CFG, jobs=jobs, chunk_size=3))
        assert len(rows) == len(expected)
        assert sorted(map(repr, rows)) == sorted(map(repr, expected))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ordered_parallel_stream_matches(self, jobs):
        rows = list(iter_grid(CFG, ordered=True, jobs=jobs, chunk_size=2))
        assert rows == run_grid(CFG)

    def test_progress_callbacks(self):
        cells, snapshots = [], []
        rows = run_grid(CFG, on_cell=cells.append, on_chunk=snapshots.append)
        assert cells == list(rows)
        assert all(isinstance(p, GridProgress) for p in snapshots)
        # One planning snapshot + one per chunk.
        assert snapshots[0].completed_chunks == 0
        assert snapshots[0].total_rows == len(rows)
        final = snapshots[-1]
        assert final.completed_chunks == final.total_chunks > 0
        assert final.computed_rows == len(rows)
        assert final.failed_rows == 0 and final.remaining_rows == 0

    def test_iter_grid_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown schemes"):
            iter_grid(GridConfig(families=["path"], sizes=[6], schemes=["nope"]))

    @pytest.mark.parametrize("backend", ["nope", "batched", "sharded"])
    def test_unknown_backend_raises_before_any_instance(self, monkeypatch,
                                                        backend):
        import repro.analysis.sweep as sweep

        def built(*args):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(sweep, "materialize_instance", built)
        with pytest.raises(BackendError, match="reference, vectorized"):
            iter_grid(CFG, backend=backend)

    def test_run_grid_returns_a_result_set(self):
        rows = run_grid(CFG)
        assert isinstance(rows, ResultSet)
        assert set(rows.column("scheme").tolist()) == {"lambda", "round_robin"}


# --------------------------------------------------------------------------- #
# store-backed incremental execution
# --------------------------------------------------------------------------- #
class TestStoreBackedGrids:
    @pytest.mark.parametrize(
        "jobs,backend",
        [(1, None), (2, None), (3, None),
         (1, "vectorized"), (2, "vectorized"), (3, "vectorized")],
        ids=["1", "2", "3", "1-vectorized", "2-vectorized", "3-vectorized"],
    )
    def test_abandoned_sweep_resumes_bit_identical(self, tmp_path, monkeypatch,
                                                   jobs, backend):
        baseline = run_grid(FAULT_CFG)
        total = len(baseline)
        # The last instance's chunks cannot finish before the close: pool
        # workers may otherwise complete (and persist) every chunk first.
        gate = tmp_path / "gate"
        _gate_instance(monkeypatch, gate, family="gnp_sparse", rep=1)
        with ResultStore(tmp_path / "s") as store:
            stream = iter_grid(FAULT_CFG, backend=backend, jobs=jobs,
                               ordered=True, store=store, chunk_size=2)
            consumed = [next(stream) for _ in range(total // 3)]
            gate.touch()  # lets the pool shut down; the rows come too late
            stream.close()  # the driver "crashes" mid-grid
            persisted = len(store)
        assert consumed == baseline[: len(consumed)]
        assert 0 < persisted < total
        with ResultStore(tmp_path / "s") as store:
            resumed = run_grid(FAULT_CFG, backend=backend, jobs=jobs, store=store)
        assert resumed == baseline

    @ALONE_OR_STACKED
    def test_resume_is_unaffected_by_stacking(self, tmp_path, monkeypatch,
                                              backend, stack_nodes):
        baseline = run_grid(FAULT_CFG)
        monkeypatch.setattr(grid, "STACK_NODES", stack_nodes)
        with ResultStore(tmp_path / "s") as store:
            stream = iter_grid(FAULT_CFG, backend=backend, ordered=True,
                               store=store, chunk_size=3)
            for _ in range(4):
                next(stream)
            stream.close()
        with ResultStore(tmp_path / "s") as store:
            resumed = run_grid(FAULT_CFG, backend=backend, store=store)
        assert resumed == baseline

    def test_warm_store_skips_every_cell(self, tmp_path, backend_calls):
        with ResultStore(tmp_path / "s") as store:
            cold = run_grid(CFG, store=store)
        cold_calls = len(backend_calls)
        assert cold_calls == len(cold)  # one backend task per row
        snapshots = []
        with ResultStore(tmp_path / "s") as store:
            warm = run_grid(CFG, store=store, on_chunk=snapshots.append)
        assert warm == cold
        assert len(backend_calls) == cold_calls  # zero new invocations
        assert snapshots[-1].cached_rows == len(cold)
        assert snapshots[-1].computed_rows == 0

    def test_partially_warm_store_computes_only_missing_cells(
        self, tmp_path, backend_calls
    ):
        small = GridConfig(families=["path"], sizes=[9, 12],
                           schemes=["lambda", "round_robin"])
        grown = GridConfig(families=["path"], sizes=[9, 12, 16],
                           schemes=["lambda", "round_robin"])
        with ResultStore(tmp_path / "s") as store:
            run_grid(small, store=store)
            before = len(backend_calls)
            rows = run_grid(grown, store=store)
        new_rows = len(grid_row_specs(grown)) - len(grid_row_specs(small))
        assert len(backend_calls) - before == new_rows
        assert rows == run_grid(grown)

    def test_different_knobs_do_not_share_cache_entries(self, tmp_path):
        with ResultStore(tmp_path / "s") as store:
            run_grid(CFG, store=store)
            n = len(store)
            run_grid(CFG, store=store, backend="vectorized")
            assert len(store) == 2 * n  # backend is part of the key


# --------------------------------------------------------------------------- #
# worker failures: strict aborts (with store keys), non-strict records rows
# --------------------------------------------------------------------------- #
def _install_flaky_lambda(monkeypatch, fail_after: int = 4):
    """Make the lambda scheme's task builder raise after ``fail_after`` calls.

    Patched on the class, so forked pool workers inherit it; the call counter
    is per process, so each worker raises after its own ``fail_after`` cells,
    killing the sweep mid-grid.
    """
    from repro.api.schemes import LambdaScheme

    original = LambdaScheme.build_task
    state = {"calls": 0}

    def flaky(self, *args, **kwargs):
        state["calls"] += 1
        if state["calls"] > fail_after:
            raise RuntimeError("injected worker failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LambdaScheme, "build_task", flaky)
    return state


class TestFailureHandling:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_killed_sweep_keeps_completed_cells_and_resumes(
        self, tmp_path, monkeypatch, jobs
    ):
        baseline = run_grid(CFG)
        # fail_after=1: the counter is per forked worker, so every worker
        # (and the inline jobs=1 path) dies on its second lambda cell.
        _install_flaky_lambda(monkeypatch, fail_after=1)
        with ResultStore(tmp_path / "s") as store:
            with pytest.raises(GridExecutionError) as err:
                run_grid(CFG, jobs=jobs, store=store, chunk_size=2)
            persisted = len(store)
        assert err.value.spec["scheme"] == "lambda"
        assert err.value.store_key and len(err.value.store_key) == 64
        assert err.value.spec["store_key"] == err.value.store_key
        assert "store_key=" in str(err.value)
        assert 0 < persisted < len(baseline)
        monkeypatch.undo()  # the flaky worker is "fixed"; resume
        with ResultStore(tmp_path / "s") as store:
            resumed = run_grid(CFG, jobs=jobs, store=store)
        assert resumed == baseline

    def test_strict_error_without_store_still_names_the_key(self, monkeypatch):
        _install_flaky_lambda(monkeypatch)
        with pytest.raises(GridExecutionError) as err:
            run_grid(CFG)
        assert err.value.store_key is not None

    def test_keep_going_records_failures_as_status_rows(self, monkeypatch):
        baseline = run_grid(CFG)
        _install_flaky_lambda(monkeypatch)
        rows = run_grid(CFG, strict=False)
        assert len(rows) == len(baseline)
        failed = rows.filter(status="error:RuntimeError")
        ok = rows.filter(status="ok")
        assert len(failed) > 0 and len(ok) + len(failed) == len(rows)
        assert set(failed.column("scheme").tolist()) == {"lambda"}
        # Failed rows carry the cell identity but zeroed measurements.
        assert all(r.completion_round is None and r.transmissions == 0
                   for r in failed)
        # Non-lambda rows are untouched.
        assert rows.filter(scheme="round_robin") == baseline.filter(
            scheme="round_robin")

    def test_keep_going_batched_path(self, monkeypatch):
        baseline = run_grid(CFG)
        _install_flaky_lambda(monkeypatch)
        # Windows of two instances (requested sizes 9 + 12) per kernel call.
        monkeypatch.setattr(grid, "STACK_NODES", 21)
        rows = run_grid(CFG, backend="vectorized", strict=False)
        assert len(rows) == len(baseline)
        assert len(rows.filter(status="ok")) < len(baseline)
        assert set(rows.filter(lambda r: r.status != "ok").column("scheme")
                   .tolist()) == {"lambda"}

    def test_error_rows_are_never_cached(self, tmp_path, monkeypatch):
        state = _install_flaky_lambda(monkeypatch)
        with ResultStore(tmp_path / "s") as store:
            rows = run_grid(CFG, strict=False, store=store)
            failed = sum(1 for r in rows if r.status != "ok")
            assert failed > 0
            assert len(store) == len(rows) - failed
        monkeypatch.undo()
        with ResultStore(tmp_path / "s") as store:
            healed = run_grid(CFG, store=store)
        # A resumed sweep retried exactly the failed cells and healed them.
        assert healed == run_grid(CFG)
        assert all(r.status == "ok" for r in healed)

    def test_progress_counts_failures(self, monkeypatch):
        _install_flaky_lambda(monkeypatch)
        snapshots = []
        rows = run_grid(CFG, strict=False, on_chunk=snapshots.append)
        final = snapshots[-1]
        assert final.failed_rows == sum(1 for r in rows if r.status != "ok") > 0
        assert final.computed_rows + final.failed_rows == len(rows)


# --------------------------------------------------------------------------- #
# per-cell retries: transient faults heal, deterministic ones still fail
# --------------------------------------------------------------------------- #
def _install_transient_lambda(monkeypatch, fail_first: int = 1):
    """Make the lambda scheme fail its first ``fail_first`` calls, then heal.

    Patched on the class so forked pool workers inherit it; the counter is
    per process, so every worker's *first* lambda cell raises — the transient
    fault a retry is supposed to absorb.
    """
    from repro.api.schemes import LambdaScheme

    original = LambdaScheme.build_task
    state = {"calls": 0}

    def transient(self, *args, **kwargs):
        state["calls"] += 1
        if state["calls"] <= fail_first:
            raise RuntimeError("transient cell failure")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LambdaScheme, "build_task", transient)
    return state


#: ``(backend, STACK_NODES)`` cases of the retry rule: one unit per engine
#: call (the reference engine, and ``vectorized`` with a zero node cap),
#: stacked windows of four instances (requested sizes 9 + 12 + 9 + 12), and
#: the default cap, which stacks the whole six-instance grid.
RETRY_CASES = pytest.mark.parametrize(
    "backend,stack_nodes",
    [(None, STACK_NODES), ("vectorized", 0), ("vectorized", 42),
     ("vectorized", STACK_NODES)],
    ids=["None", "vectorized-0", "vectorized-42", "vectorized"],
)


class TestCellRetries:
    """One retry rule however many units share an engine call: the
    reference engine and ``vectorized`` with ``STACK_NODES = 0`` both run
    one unit per call and must spend exactly the same attempts; a unit
    whose task build fails inside a stacked window is re-run alone on the
    same budget."""

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries must be >= 0"):
            iter_grid(CFG, retries=-1)

    @RETRY_CASES
    def test_transient_failure_heals_with_one_retry(self, monkeypatch,
                                                    backend, stack_nodes):
        baseline = run_grid(CFG)
        state = _install_transient_lambda(monkeypatch)
        monkeypatch.setattr(grid, "STACK_NODES", stack_nodes)
        assert run_grid(CFG, backend=backend, retries=1) == baseline
        # Six lambda units, plus exactly one retry of the first.
        assert state["calls"] == 6 + 1

    @ALONE
    def test_without_retries_the_same_fault_is_fatal(self, monkeypatch,
                                                     backend, stack_nodes):
        _install_transient_lambda(monkeypatch)
        monkeypatch.setattr(grid, "STACK_NODES", stack_nodes)
        with pytest.raises(GridExecutionError, match="transient"):
            run_grid(CFG, backend=backend)  # retries defaults to 0

    @ALONE
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_retry_heals_inside_forked_workers(self, monkeypatch, jobs,
                                               backend, stack_nodes):
        # Each forked worker fails its own first lambda cell; the retry
        # happens inside that worker, so the sweep never sees the fault.
        baseline = run_grid(CFG)
        _install_transient_lambda(monkeypatch)
        monkeypatch.setattr(grid, "STACK_NODES", stack_nodes)
        rows = run_grid(CFG, backend=backend, jobs=jobs, retries=1,
                        chunk_size=2)
        assert rows == baseline

    @RETRY_CASES
    def test_keep_going_only_records_cells_that_exhaust_retries(
        self, monkeypatch, backend, stack_nodes
    ):
        baseline = run_grid(CFG)
        # Fails the first three lambda calls: with one retry the first cell
        # consumes both its attempts and fails, the second cell fails once
        # and heals on its retry (call #4), the rest never fault.
        state = _install_transient_lambda(monkeypatch, fail_first=3)
        monkeypatch.setattr(grid, "STACK_NODES", stack_nodes)
        rows = run_grid(CFG, backend=backend, strict=False, retries=1)
        failed = rows.filter(lambda r: r.status != "ok")
        assert len(failed) == 1
        assert failed[0].scheme == "lambda"
        assert len(rows) == len(baseline)
        # Six lambda units, plus one retry of each of the first two.
        assert state["calls"] == 6 + 2

    def test_batched_replay_retries_transient_kernel_faults(self, monkeypatch):
        # A failed stacked call replays its units one by one; a fault that
        # also kills the first replay must heal on the replay's retry.
        from repro.backends import VectorizedBackend

        baseline = run_grid(CFG, backend="vectorized")
        original = VectorizedBackend.run_batch
        state = {"calls": 0}

        def transient(self, tasks):
            state["calls"] += 1
            if state["calls"] <= 2:  # the whole batch, then the 1st replay
                raise RuntimeError("transient kernel failure")
            return original(self, tasks)

        monkeypatch.setattr(VectorizedBackend, "run_batch", transient)
        assert run_grid(CFG, backend="vectorized", retries=1) == baseline
        monkeypatch.undo()
        state["calls"] = 0
        monkeypatch.setattr(VectorizedBackend, "run_batch", transient)
        with pytest.raises(GridExecutionError):
            # No retries: the replay stays dead.
            run_grid(CFG, backend="vectorized")


def _gate_instance(monkeypatch, marker, *, family, rep):
    """Materializing instance ``(family, ·, rep)`` waits for the marker file.

    Pool workers fork after the patch, so they inherit it, like
    :func:`_install_suicidal_lambda`'s; the marker is the only signal that
    crosses the process boundary.
    """
    import repro.analysis.sweep as sweep

    original = sweep.materialize_instance

    def gated(config, fam, size, r):
        while (fam, r) == (family, rep) and not marker.exists():
            time.sleep(0.005)
        return original(config, fam, size, r)

    monkeypatch.setattr(sweep, "materialize_instance", gated)


# --------------------------------------------------------------------------- #
# pool-worker death: BrokenProcessPool chunks are resubmitted, once
# --------------------------------------------------------------------------- #
def _install_suicidal_lambda(monkeypatch, marker):
    """The first lambda cell with no marker file hard-kills its process.

    ``os._exit`` skips every finally/atexit, exactly like an OOM reap — the
    executor turns into BrokenProcessPool and every outstanding future dies
    with it.  The marker file persists across the pool rebuild, so retried
    chunks run clean.
    """
    from repro.api.schemes import LambdaScheme

    original = LambdaScheme.build_task

    def suicidal(self, *args, **kwargs):
        import os

        if not marker.exists():
            marker.touch()
            os._exit(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LambdaScheme, "build_task", suicidal)


class TestPoolCrashResubmission:
    def test_one_retry_survives_a_killed_pool_worker(self, tmp_path,
                                                     monkeypatch):
        baseline = run_grid(CFG)
        _install_suicidal_lambda(monkeypatch, tmp_path / "died-once")
        rows = run_grid(CFG, jobs=2, retries=1, chunk_size=2)
        assert rows == baseline
        assert (tmp_path / "died-once").exists()

    def test_without_retries_strict_raises_broken_pool(self, tmp_path,
                                                       monkeypatch):
        from concurrent.futures import BrokenExecutor

        _install_suicidal_lambda(monkeypatch, tmp_path / "died-once")
        with pytest.raises(BrokenExecutor):
            run_grid(CFG, jobs=2, chunk_size=2)

    def test_without_retries_keep_going_records_the_lost_chunks(
        self, tmp_path, monkeypatch
    ):
        baseline = run_grid(CFG)
        _install_suicidal_lambda(monkeypatch, tmp_path / "died-once")
        rows = run_grid(CFG, jobs=2, chunk_size=2, strict=False)
        assert len(rows) == len(baseline)
        failed = rows.filter(lambda r: r.status != "ok")
        assert len(failed) > 0
        assert all(r.status == "error:BrokenProcessPool" for r in failed)

    def test_completed_chunks_survive_the_crash_into_the_store(
        self, tmp_path, monkeypatch
    ):
        baseline = run_grid(CFG)
        _install_suicidal_lambda(monkeypatch, tmp_path / "died-once")
        with ResultStore(tmp_path / "s") as store:
            rows = run_grid(CFG, jobs=2, retries=1, chunk_size=2, store=store)
            assert rows == baseline
            assert len(store) == len(baseline)  # every cell cached, none torn
