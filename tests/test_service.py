"""End-to-end tests for the sweep service: coordinator, workers, client.

:class:`ServiceHarness` runs the whole topology (coordinator + worker fleet +
a live TCP port) on a background event loop with ``pool="thread"`` workers,
so cells execute in *this* process — which lets these tests monkeypatch the
reference backend and count its invocations to prove the warm path computed
nothing, slow it down to control timing, or break one scheme to exercise the
failure paths.

The contract under test (ISSUE 9 acceptance):

* remote grid rows are bit-identical to a local ``run_grid`` and share the
  same content-addressed store keys,
* resubmitting a warm grid performs zero backend invocations, and
* killing a worker mid-sweep loses no completed cells — the coordinator
  re-queues its leases and the sweep still finishes.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.api import GridConfig, ResultStore, grid_row_specs, grid_unit_key, run_grid
from repro.service import ServiceClient, ServiceError, ServiceHarness
from repro.service.protocol import parse_address, recv_frame

CFG = GridConfig(
    families=["path", "grid"],
    sizes=[9, 12],
    seeds_per_size=1,
    schemes=["lambda", "round_robin"],
)
TOTAL = len(grid_row_specs(CFG))  # 8 cells


@pytest.fixture
def backend_calls(monkeypatch):
    """Counts every reference-backend task execution in this process.

    Harness workers default to thread pools, so their backend calls land on
    this counter too — the instrument behind every "computed nothing" claim.
    """
    from repro.backends import ReferenceBackend

    calls = []
    original = ReferenceBackend.run_task

    def counting(self, task):
        calls.append(task)
        return original(self, task)

    monkeypatch.setattr(ReferenceBackend, "run_task", counting)
    return calls


def _slow_backend(monkeypatch, seconds: float):
    """Stretch every backend call so a sweep is reliably mid-flight."""
    from repro.backends import ReferenceBackend

    original = ReferenceBackend.run_task

    def slowed(self, task):
        time.sleep(seconds)
        return original(self, task)

    monkeypatch.setattr(ReferenceBackend, "run_task", slowed)


# --------------------------------------------------------------------------- #
# the headline contract: bit-identical rows, warm = zero computation
# --------------------------------------------------------------------------- #
class TestRemoteEqualsLocal:
    def test_cold_submit_matches_local_run_grid(self, tmp_path, backend_calls):
        baseline = run_grid(CFG)
        local_calls = len(backend_calls)
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                remote = client.submit(CFG)
        assert remote == baseline
        assert len(backend_calls) - local_calls == TOTAL
        assert client.last_summary == {
            "total": TOTAL, "cached": 0, "computed": TOTAL, "failed": 0,
        }

    def test_warm_resubmission_computes_nothing(self, tmp_path, backend_calls):
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                cold = client.submit(CFG)
                cold_calls = len(backend_calls)
                warm = client.submit(CFG)
        assert warm == cold
        assert len(backend_calls) == cold_calls  # zero new invocations
        assert client.last_plan == {"total": TOTAL, "cached": TOTAL}
        assert client.last_summary == {
            "total": TOTAL, "cached": TOTAL, "computed": 0, "failed": 0,
        }

    def test_remote_store_keys_match_local_sweep_keys(self, tmp_path):
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            with ServiceClient(svc.address) as client:
                client.submit(CFG)
        # The coordinator keyed every cell with the same content-addressed
        # function a local store-backed sweep uses, so a local resume against
        # the service's store must find every row already present.
        expected = {grid_unit_key(CFG, spec) for spec in grid_row_specs(CFG)}
        with ResultStore(tmp_path / "svc") as store:
            assert set(store.keys()) == expected

    def test_local_sweep_resumes_from_the_service_store(self, tmp_path,
                                                        backend_calls):
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                remote = client.submit(CFG)
        before = len(backend_calls)
        with ResultStore(tmp_path / "svc") as store:
            local = run_grid(CFG, store=store)
        assert local == remote
        assert len(backend_calls) == before  # the cache crossed the wire

    def test_growing_grid_computes_only_the_new_cells(self, tmp_path,
                                                      backend_calls):
        grown = GridConfig(families=["path", "grid"], sizes=[9, 12, 16],
                           seeds_per_size=1,
                           schemes=["lambda", "round_robin"])
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                client.submit(CFG)
                before = len(backend_calls)
                rows = client.submit(grown)
        new = len(grid_row_specs(grown)) - TOTAL
        assert len(backend_calls) - before == new
        assert client.last_summary["cached"] == TOTAL
        assert rows == run_grid(grown)


# --------------------------------------------------------------------------- #
# worker death mid-sweep: leases re-queue, nothing completed is lost
# --------------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_killed_worker_loses_no_cells(self, tmp_path, monkeypatch):
        baseline = run_grid(CFG)
        _slow_backend(monkeypatch, 0.05)  # 8 cells x 50ms across 2 workers
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            result = {}

            def submit():
                with ServiceClient(svc.address) as client:
                    result["rows"] = client.submit(CFG)
                    result["summary"] = client.last_summary

            thread = threading.Thread(target=submit)
            thread.start()
            time.sleep(0.12)  # mid-sweep: both workers hold leases
            svc.kill_worker(0)
            thread.join(timeout=60)
            assert not thread.is_alive(), "sweep did not finish after the kill"
            stats = svc.describe()
        assert result["rows"] == baseline  # complete and bit-identical
        assert result["summary"]["failed"] == 0
        assert stats["workers_lost"] >= 1
        # The dead worker's leased cell went back on the queue and was
        # computed by the survivor — not lost, not failed.
        assert stats["requeued"] >= 1
        assert stats["failed_cells"] == 0

    def test_fresh_worker_can_join_mid_sweep(self, tmp_path, monkeypatch):
        baseline = run_grid(CFG)
        _slow_backend(monkeypatch, 0.05)
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            result = {}

            def submit():
                with ServiceClient(svc.address) as client:
                    result["rows"] = client.submit(CFG)

            thread = threading.Thread(target=submit)
            thread.start()
            time.sleep(0.1)
            svc.add_worker(name="late-joiner")
            thread.join(timeout=60)
            assert not thread.is_alive()
            stats = svc.describe()
        assert result["rows"] == baseline
        assert stats["workers_seen"] == 2


# --------------------------------------------------------------------------- #
# failing cells: strict aborts the stream, keep-going delivers error rows
# --------------------------------------------------------------------------- #
def _break_lambda(monkeypatch):
    """Make every lambda cell fail deterministically, in every attempt."""
    from repro.api.schemes import LambdaScheme

    def broken(self, *args, **kwargs):
        raise RuntimeError("injected scheme failure")

    monkeypatch.setattr(LambdaScheme, "build_task", broken)


class TestFailurePaths:
    def test_strict_submission_raises_service_error(self, tmp_path,
                                                    monkeypatch):
        _break_lambda(monkeypatch)
        with ServiceHarness(tmp_path / "svc", workers=2,
                            max_attempts=2) as svc:
            with ServiceClient(svc.address) as client:
                with pytest.raises(ServiceError):
                    client.submit(CFG)

    def test_keep_going_delivers_error_rows(self, tmp_path, monkeypatch):
        baseline = run_grid(CFG)
        _break_lambda(monkeypatch)
        with ServiceHarness(tmp_path / "svc", workers=2,
                            max_attempts=2) as svc:
            with ServiceClient(svc.address) as client:
                rows = client.submit(CFG, strict=False)
                summary = client.last_summary
            stats = svc.describe()
        assert len(rows) == TOTAL
        failed = rows.filter(lambda r: r.status != "ok")
        assert set(failed.column("scheme").tolist()) == {"lambda"}
        assert summary["failed"] == len(failed) > 0
        assert stats["failed_cells"] == len(failed)
        # Healthy schemes are untouched and bit-identical.
        assert rows.filter(scheme="round_robin") == baseline.filter(
            scheme="round_robin")

    def test_failed_cells_are_never_cached(self, tmp_path, monkeypatch):
        _break_lambda(monkeypatch)
        with ServiceHarness(tmp_path / "svc", workers=1,
                            max_attempts=2) as svc:
            with ServiceClient(svc.address) as client:
                rows = client.submit(CFG, strict=False)
        failed = sum(1 for r in rows if r.status != "ok")
        assert failed > 0
        monkeypatch.undo()  # the scheme is "fixed"
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            with ServiceClient(svc.address) as client:
                healed = client.submit(CFG)
                summary = client.last_summary
        # Only the previously failed cells were recomputed.
        assert summary["cached"] == TOTAL - failed
        assert summary["computed"] == failed
        assert healed == run_grid(CFG)

    def test_transient_cell_failure_heals_via_worker_retry(self, tmp_path,
                                                           monkeypatch):
        # Workers run cells with retries=1: a fault that clears on the second
        # attempt is invisible to the client (satellite: shared re-queue /
        # retry accounting between executor and service).
        from repro.api.schemes import LambdaScheme

        baseline = run_grid(CFG)
        original = LambdaScheme.build_task
        state = {"calls": 0}

        def flaky_once(self, *args, **kwargs):
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("transient cell failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LambdaScheme, "build_task", flaky_once)
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                rows = client.submit(CFG)
        assert rows == baseline
        assert client.last_summary["failed"] == 0
        assert state["calls"] > 1  # the retry really happened


# --------------------------------------------------------------------------- #
# invalid submissions
# --------------------------------------------------------------------------- #
class TestValidation:
    def test_unknown_scheme_rejected_before_any_work(self, tmp_path,
                                                     backend_calls):
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            with ServiceClient(svc.address) as client:
                with pytest.raises(ServiceError, match="unknown schemes"):
                    client.submit({"families": ["path"], "sizes": [9],
                                   "schemes": ["nope"]})
        assert backend_calls == []

    def test_malformed_config_rejected(self, tmp_path):
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            with ServiceClient(svc.address) as client:
                with pytest.raises(ServiceError):
                    client.submit({"families": ["path"], "sizes": [9],
                                   "no_such_field": True})
                # A bare string axis would otherwise run the families p, a,
                # t and h, one error row each.
                with pytest.raises(ServiceError,
                                   match="invalid submission: families"):
                    client.submit({"families": "path", "sizes": [9]})
                # A client of an older version still sending batch_size.
                with pytest.raises(ServiceError,
                                   match="invalid submission.*batch_size"):
                    client.submit({"families": ["path"], "sizes": [9],
                                   "batch_size": 4})

    def test_unknown_backend_rejected_before_any_work(self, tmp_path,
                                                      backend_calls):
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            with ServiceClient(svc.address) as client:
                for backend in ("nope", "batched", "sharded"):
                    with pytest.raises(ServiceError) as err:
                        client.submit(CFG, backend=backend, strict=False)
                    message = str(err.value)
                    assert message.startswith("invalid submission")
                    assert "reference, vectorized" in message
                assert client.ping()  # the connection stays usable
            counters = svc.describe()
        assert counters["computed"] == 0 and counters["submissions"] == 0
        assert backend_calls == []

    def test_deeply_nested_hello_gets_an_error_frame(self, tmp_path):
        # 100,000 open brackets parse past the recursion limit; the peer
        # must get the error frame any malformed hello gets, and the next
        # client must still be served.
        body = b"[" * 100_000
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            host, port = parse_address(svc.address)
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(struct.pack(">I", len(body)) + body)
                reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "nests too deeply" in reply["message"]
            with ServiceClient(svc.address) as client:
                assert client.ping()
                assert client.submit(CFG) == run_grid(CFG)


# --------------------------------------------------------------------------- #
# queries: the store served remotely
# --------------------------------------------------------------------------- #
class TestQueries:
    def test_query_filters_and_key_lookup(self, tmp_path):
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                submitted = client.submit(CFG)
                everything = client.query()
                lambdas = client.query(schemes=["lambda"])
                small = client.query(sizes=[9], status="ok")
                spec = grid_row_specs(CFG)[0]
                one = client.query(key=grid_unit_key(CFG, spec))
                none = client.query(key="ff" * 32)
        assert len(everything) == TOTAL
        assert sorted(map(repr, everything)) == sorted(map(repr, submitted))
        assert len(lambdas) == TOTAL // 2
        assert set(lambdas.column("scheme").tolist()) == {"lambda"}
        assert set(small.column("n").tolist()) == {9}
        assert len(one) == 1 and one[0].scheme == spec[5]
        assert len(none) == 0

    def test_query_against_an_empty_store(self, tmp_path):
        with ServiceHarness(tmp_path / "svc", workers=0) as svc:
            with ServiceClient(svc.address) as client:
                assert client.store_rows == 0
                assert len(client.query()) == 0

    def test_status_error_matches_the_whole_error_class(self, tmp_path):
        # Regression: the query status filter used exact equality, so
        # --status error could never match a stored error:ValueError row.
        from dataclasses import replace

        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                client.submit(CFG)
        with ResultStore(tmp_path / "svc") as store:
            template = store.rows()[0]
            for i, tag in enumerate(["error:ValueError", "error:TypeError"]):
                store.put(f"{i:02d}{'ee' * 31}", replace(template, status=tag))
        with ServiceHarness(tmp_path / "svc", workers=0) as svc:
            with ServiceClient(svc.address) as client:
                errors = client.query(status="error")
                exact = client.query(status="error:ValueError")
                ok = client.query(status="ok")
        assert sorted(errors.column("status").tolist()) == [
            "error:TypeError", "error:ValueError"]
        # Full tags and "ok" still match exactly; "error" never matches ok.
        assert exact.column("status").tolist() == ["error:ValueError"]
        assert len(ok) == TOTAL
        assert all(r.status == "ok" for r in ok)


# --------------------------------------------------------------------------- #
# aggregates: server-side groupby answered from store columns
# --------------------------------------------------------------------------- #
class TestAggregates:
    def test_aggregate_matches_local_eager_answer(self, tmp_path):
        from repro.analysis.stream import aggregate_result_set

        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                rows = client.submit(CFG)
                groups = client.aggregate("rounds", by=["scheme", "n"])
                summary = client.last_summary
        local = aggregate_result_set(rows, "completion_round", ("scheme", "n"))
        # Both sides report groups in first-seen row order: the coordinator
        # reads the store in write order (which of the two workers finished
        # first), the local side reads grid order.  Compare by group key.

        def by_key(group):
            return sorted(group["by"].items())

        assert sorted(groups, key=by_key) == sorted(local, key=by_key)
        assert summary == {"rows_seen": TOTAL, "groups": len(local)}
        assert {(g["by"]["scheme"], g["by"]["n"]) for g in groups} == {
            (scheme, n) for scheme in CFG.schemes for n in CFG.sizes}

    def test_aggregate_filters_and_ci(self, tmp_path):
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                client.submit(CFG)
                lam = client.aggregate("completion_round",
                                       schemes=["lambda"], ci=True)
        assert len(lam) == 1
        stats = lam[0]["stats"]
        assert stats["count"] == TOTAL // 2
        assert stats["ci95_low"] <= stats["mean"] <= stats["ci95_high"]
        assert stats["p05"] <= stats["median"] <= stats["p95"]

    def test_aggregate_against_columnar_store_and_unknown_column(self, tmp_path):
        # Warm the store, compact it columnar, then serve aggregates from the
        # column blocks: same numbers as the eager JSONL answer.
        from repro.store import ResultStore

        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                client.submit(CFG)
                jsonl_answer = client.aggregate("rounds", by=["scheme"])
        with ResultStore(tmp_path / "svc") as store:
            stats = store.compact(format="columnar")
            assert stats["format"] == "columnar"
        with ServiceHarness(tmp_path / "svc", workers=0) as svc:
            with ServiceClient(svc.address) as client:
                columnar_answer = client.aggregate("rounds", by=["scheme"])
                with pytest.raises(ServiceError, match="invalid aggregate"):
                    client.aggregate("no_such_column")
                # The connection survives a rejected aggregate.
                assert client.ping()
        # Group order follows row order, which differs between a live store
        # (insertion order) and a reopened one (shard order) — the per-group
        # statistics must match exactly either way.
        def by_scheme(groups):
            return sorted(groups, key=lambda g: g["by"]["scheme"])

        assert by_scheme(columnar_answer) == by_scheme(jsonl_answer)


# --------------------------------------------------------------------------- #
# connection plumbing
# --------------------------------------------------------------------------- #
class TestConnections:
    def test_ping_and_welcome(self, tmp_path):
        with ServiceHarness(tmp_path / "svc", workers=1) as svc:
            with ServiceClient(svc.address) as client:
                assert client.ping()
                client.submit(CFG)
            with ServiceClient(svc.address) as reconnect:
                # welcome advertises the store the coordinator serves
                assert reconnect.store_rows == TOTAL

    def test_concurrent_clients_share_one_computation(self, tmp_path,
                                                      monkeypatch,
                                                      backend_calls):
        # Two clients race the same grid: cell de-duplication (or the cache,
        # if one finishes first) guarantees each cell is computed exactly
        # once, and both streams still deliver every row.
        _slow_backend(monkeypatch, 0.02)
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            results = {}

            def submit(slot):
                with ServiceClient(svc.address) as client:
                    results[slot] = client.submit(CFG)

            threads = [threading.Thread(target=submit, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        baseline = run_grid(CFG)
        assert results[0] == baseline and results[1] == baseline
        # TOTAL computed cells + TOTAL for the local baseline above.
        assert len(backend_calls) == 2 * TOTAL

    def test_small_credit_window_still_drains_the_stream(self, tmp_path):
        with ServiceHarness(tmp_path / "svc", workers=2) as svc:
            with ServiceClient(svc.address) as client:
                cold = client.submit(CFG, window=2)  # worst-case ping-pong
                warm = client.submit(CFG, window=1)
        assert cold == warm == run_grid(CFG)
