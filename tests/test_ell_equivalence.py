"""Differential suite for the padded-adjacency (ELL) backend.

The ELL backend runs its fused, event-driven JIT kernels over a fixed-width
self-padded neighbour table when numba imports, and hands every task to the
vectorized engine otherwise.  Its claim is that the kernels are invisible:
traces, derived values and stop bookkeeping must be bit-for-bit identical to
the vectorized engine on every graph the regularity probe admits, graphs it
rejects (stars, barbells) must fall back to CSR with true provenance, and on
a machine without numba every row must say ``vectorized``.  Without numba
``@njit`` is an identity decorator, so the exact compiled code paths run
here as plain Python: :func:`_jit_kernels` routes the backend's dispatch to
them as if numba had imported.  The suite also pins the layout round-trip,
degree-0 handling and the spec plumbing (``resolve_backend("ell")``,
``Scenario.backend``, the CLI ``--backend`` spec type, store keys).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GridConfig, Scenario, get_scheme, run_grid
from repro.api.grid import grid_unit_key
from repro.backends import (
    BACKEND_SPECS,
    BackendError,
    EllAdjacency,
    EllBackend,
    ReferenceBackend,
    VectorizedBackend,
    resolve_backend,
)
import repro.backends.ell as ell_module
from repro.backends.ell import (
    DEFAULT_MAX_PADDING_RATIO,
    _run_broadcast_jit,
    _run_slotted_jit,
    jit_available,
    padding_ratio_of,
)
from repro.graphs import Graph, generate_family
from repro.graphs.generators import barbell_graph, family_names
from repro.store.keys import normalize_backend_name

VECTORIZED = VectorizedBackend()
REFERENCE = ReferenceBackend()

#: Protocol schemes the ELL kernels cover natively.
ELL_SCHEMES = ["lambda", "round_robin", "coloring_tdma"]

#: Star sits right on the CSR-fallback boundary: ratio n/2 passes the probe
#: for n ≤ 8 and fails it beyond, so the differential exercises both sides.
FAMILIES = ["path", "cycle", "star", "grid", "gnp_sparse", "geometric"]

#: One shared backend so layout caches are reused across examples.
ELL = EllBackend()

_JIT_WRAPPERS = {
    "broadcast": _run_broadcast_jit,
    "round_robin": _run_slotted_jit,
    "coloring_tdma": _run_slotted_jit,
}


def _jit_kernels(available=True):
    """Dispatch ``EllBackend`` as if numba did (or did not) import.

    Without numba the kernels are plain Python, so forcing the JIT dispatch
    runs the exact compiled code paths here, at small ``n``.
    """
    return mock.patch.object(ell_module, "_HAVE_NUMBA", available)


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


def _trace_fingerprint(result):
    # The reference backend leaves ``derived`` to the schemes, so reference
    # comparisons cover the trace and stop bookkeeping only.
    return (result.trace, result.simulation.stop_round, result.simulation.stop_reason)


# --------------------------------------------------------------------------- #
# property-based differential grid: ell (jit or fallback) == vectorized == ref
# --------------------------------------------------------------------------- #
class TestEllDifferential:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        scheme_name=st.sampled_from(ELL_SCHEMES),
        family=st.sampled_from(FAMILIES),
        size=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=6),
        trace_level=st.sampled_from(["summary", "full"]),
    )
    def test_ell_matches_vectorized_and_reference(
        self, scheme_name, family, size, seed, trace_level
    ):
        task = _build_task(scheme_name, family, size, seed, trace_level)
        solo = VECTORIZED.run_task(task)
        out = ELL.run_task(task)
        assert out.backend == ("ell" if ELL.supports(task) else "vectorized")
        assert _fingerprint(out) == _fingerprint(solo)
        # The JIT kernels run here too: without numba the @njit decorator is
        # an identity, so the exact compiled code paths execute as Python.
        with _jit_kernels():
            admitted = ELL.supports(task)
            jit = ELL.run_task(task)
        # Probe-rejected graphs fall back with CSR provenance.
        assert jit.backend == ("ell" if admitted else "vectorized")
        assert _fingerprint(jit) == _fingerprint(solo)
        direct = _JIT_WRAPPERS[task.protocol](task, EllAdjacency.from_graph(task.graph))
        assert _fingerprint(direct) == _fingerprint(solo)
        assert _trace_fingerprint(jit) == _trace_fingerprint(REFERENCE.run_task(task))
        if trace_level == "full":
            assert jit.trace.to_json() == solo.trace.to_json()
            assert direct.trace.to_json() == solo.trace.to_json()

    def test_trace_level_none_matches_vectorized(self):
        # Reference records "none" as a summary trace (pre-existing), so the
        # none-level check is ell vs vectorized only.
        for scheme_name in ELL_SCHEMES:
            task = _build_task(scheme_name, "grid", 16, 1, trace_level="none")
            with _jit_kernels():
                out = ELL.run_task(task)
            assert out.backend == "ell"
            assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))

    def test_worst_case_path_through_the_jit_kernels(self):
        # The 2n−3-round path maximises rounds; the kernels must agree with
        # the CSR engine round for round.
        task = _build_task("lambda", "path", 40, 1, trace_level="full")
        solo = VECTORIZED.run_task(task)
        with _jit_kernels():
            out = ELL.run_task(task)
        assert out.backend == "ell"
        assert _fingerprint(out) == _fingerprint(solo)
        assert out.trace.to_json() == solo.trace.to_json()

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        scheme_name=st.sampled_from(ELL_SCHEMES),
        fault=st.sampled_from([None, "drop:0.3:2", "crash:1@2"]),
        clock=st.sampled_from([None, "offset:3"]),
        seed=st.integers(min_value=0, max_value=3),
    )
    def test_perturbed_channels_agree_through_the_grid(
        self, scheme_name, fault, clock, seed
    ):
        # Fault/clock cells are not ELL-covered; the backend must route them
        # to engines that are and still match the reference rows exactly.
        cfg = GridConfig(families=["gnp_sparse"], sizes=[12], seeds_per_size=1,
                         schemes=[scheme_name], faults=[fault], clocks=[clock],
                         base_seed=seed)
        rows = run_grid(cfg, backend="ell")
        assert rows == run_grid(cfg, backend="reference")
        # Any channel perturbation leaves the dense-kernel engines, so the
        # delegation chain ends at the reference interpreter.
        native = "ell" if jit_available() else "vectorized"
        expected = native if fault is None and clock is None else "reference"
        assert [r.backend for r in rows] == [expected]


# --------------------------------------------------------------------------- #
# the layout: CSR round-trip, self-padding, regularity probe, degree-0 rows
# --------------------------------------------------------------------------- #
class TestEllAdjacency:
    @pytest.mark.parametrize("family", family_names())
    def test_round_trips_csr_for_every_family(self, family):
        graph = generate_family(family, 17, 3)
        indptr, indices = graph.csr()
        ell = EllAdjacency.from_graph(graph)
        rt_indptr, rt_indices = ell.to_csr()
        assert rt_indptr.tolist() == np.asarray(indptr).tolist()
        assert rt_indices.tolist() == np.asarray(indices).tolist()
        assert ell.degrees.tolist() == np.diff(indptr).tolist()
        assert ell.width == int(np.diff(indptr).max())

    def test_rows_are_self_padded(self):
        ell = EllAdjacency.from_graph(generate_family("star", 5, 0))
        # Leaves have degree 1 and width 4: three trailing self-pads each.
        for v in range(1, 5):
            assert ell.neighbors[v].tolist() == [0, v, v, v]

    def test_isolated_nodes_round_trip_and_self_pad(self):
        graph = Graph.from_edges(5, [(0, 1)])
        ell = EllAdjacency.from_graph(graph)
        assert ell.degrees.tolist() == [1, 1, 0, 0, 0]
        for v in (2, 3, 4):  # degree-0 rows are pure self-pads, never garbage
            assert ell.neighbors[v].tolist() == [v]
        indptr, indices = ell.to_csr()
        assert indptr.tolist() == [0, 1, 2, 2, 2, 2]
        assert indices.tolist() == [1, 0]

    def test_edgeless_graph_has_zero_width(self):
        ell = EllAdjacency.from_graph(Graph.from_edges(3, []))
        assert ell.width == 0 and ell.neighbors.shape == (3, 0)
        assert ell.padding_ratio == 1.0
        indptr, indices = ell.to_csr()
        assert indptr.tolist() == [0, 0, 0, 0] and indices.size == 0

    def test_isolated_nodes_never_hear_or_corrupt_counts(self):
        # A broadcast on a graph with degree-0 nodes: the padded rows of the
        # isolated nodes must neither receive anything nor skew the channel.
        # (The λ schemes require connected graphs, so the slotted protocols
        # are the ones that can actually visit a degree-0 row.)
        graph = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3)])
        for scheme_name in ("round_robin", "coloring_tdma"):
            scheme = get_scheme(scheme_name)
            info = scheme.build_labels(graph, 0)
            task = scheme.build_task(
                graph, info, 0, payload="MSG",
                max_rounds=scheme.default_budget(graph, info),
                trace_level="full", fault_model=None, clock_model=None,
            )
            with _jit_kernels():
                out = ELL.run_task(task)
            solo = VECTORIZED.run_task(task)
            assert out.backend == "ell"
            assert _fingerprint(out) == _fingerprint(solo)
            assert out.trace.to_json() == solo.trace.to_json()

    def test_regularity_probe_values(self):
        # Star: hub degree n−1 ⇒ width n−1, m = 2(n−1) ⇒ ratio n/2.
        assert padding_ratio_of(generate_family("star", 16, 0)) == 8.0
        # Cycle is 2-regular: zero padding.
        assert padding_ratio_of(generate_family("cycle", 16, 0)) == 1.0

    def test_probe_rejects_star_and_barbell(self):
        assert padding_ratio_of(generate_family("star", 33, 0)) > DEFAULT_MAX_PADDING_RATIO
        assert padding_ratio_of(barbell_graph(30, 400)) > DEFAULT_MAX_PADDING_RATIO

    def test_fallback_triggers_on_star_and_barbell_with_true_provenance(self):
        task = _build_task("lambda", "star", 33, 0)
        with _jit_kernels():
            assert not ELL.supports(task)
            out = ELL.run_task(task)
        assert out.backend == "vectorized"
        assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))

        graph = barbell_graph(16, 200)  # ratio ≈ 4.2: rejected
        assert padding_ratio_of(graph) > DEFAULT_MAX_PADDING_RATIO
        scheme = get_scheme("lambda")
        info = scheme.build_labels(graph, 0)
        task = scheme.build_task(
            graph, info, 0, payload="MSG",
            max_rounds=scheme.default_budget(graph, info),
            trace_level="summary", fault_model=None, clock_model=None,
        )
        with _jit_kernels():
            out = ELL.run_task(task)
        assert out.backend == "vectorized"
        assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))

    def test_probe_boundary_star8_runs_natively(self):
        # star:8 has ratio exactly 4.0 — the last star the probe admits.
        task = _build_task("lambda", "star", 8, 0)
        assert padding_ratio_of(task.graph) == DEFAULT_MAX_PADDING_RATIO
        with _jit_kernels():
            out = ELL.run_task(task)
        assert out.backend == "ell"
        assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))

    def test_jit_kernels_stay_exact_past_the_probe(self):
        # The probe guards speed, not correctness: on a star it rejects, the
        # kernels over the (mostly padding) table still match the CSR engine.
        task = _build_task("lambda", "star", 33, 0)
        out = _run_broadcast_jit(task, EllAdjacency.from_graph(task.graph))
        assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))


# --------------------------------------------------------------------------- #
# dispatch: fallback, strict mode, provenance
# --------------------------------------------------------------------------- #
class TestEllDispatch:
    def test_uncovered_scheme_falls_back_with_true_provenance(self):
        task = _build_task("lambda_ack", "grid", 16, 2)
        with _jit_kernels():
            out = ELL.run_task(task)
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
        with _jit_kernels():
            out = ELL.run_task(task)
        assert out.backend == "reference"

    def test_strict_raises_for_uncovered_task(self):
        with _jit_kernels():
            with pytest.raises(BackendError, match="no kernel"):
                EllBackend(strict=True).run_task(
                    _build_task("lambda_ack", "path", 9, 1)
                )
            with pytest.raises(BackendError, match="padding-ratio"):
                EllBackend(strict=True).run_task(
                    _build_task("lambda", "star", 33, 0)
                )

    def test_strict_without_numba_raises(self):
        with _jit_kernels(available=False):
            with pytest.raises(BackendError, match="numba"):
                EllBackend(strict=True).run_task(_build_task("lambda", "grid", 16, 0))

    def test_without_numba_every_task_runs_vectorized(self):
        for scheme_name in ELL_SCHEMES:
            task = _build_task(scheme_name, "grid", 16, 0)
            with _jit_kernels(available=False):
                assert not ELL.supports(task)
                out = ELL.run_task(task)
            assert out.backend == "vectorized"
            assert _fingerprint(out) == _fingerprint(VECTORIZED.run_task(task))

    def test_provenance_matches_jit_availability(self):
        task = _build_task("lambda", "grid", 16, 0)
        assert ELL.supports(task) is jit_available()
        out = ELL.run_task(task)
        assert out.backend == ("ell" if jit_available() else "vectorized")
        # Either way the rows must match the CSR engine bit for bit.
        task = _build_task("round_robin", "cycle", 12, 2, trace_level="full")
        assert ELL.run_task(task).trace.to_json() == \
            VECTORIZED.run_task(task).trace.to_json()


# --------------------------------------------------------------------------- #
# spec threading: resolver, scenario, grid, CLI, store keys
# --------------------------------------------------------------------------- #
class TestEllSelectionThreading:
    def test_resolve_backend_shares_one_ell_instance(self):
        backend = resolve_backend("ell")
        assert isinstance(backend, EllBackend)
        assert resolve_backend("ell") is backend

    @pytest.mark.parametrize(
        "bad", ["ell:fast", "ell:2", "vectorized:jit", "ell:jit", "ell:numpy"]
    )
    def test_resolve_backend_rejects_bad_specs(self, bad):
        with pytest.raises(BackendError):
            resolve_backend(bad)

    def test_retired_tier_spec_error_lists_every_valid_spec(self):
        with pytest.raises(BackendError) as err:
            resolve_backend("ell:numpy")
        for spec in BACKEND_SPECS:
            assert spec in str(err.value)

    def test_unknown_backend_error_lists_every_valid_spec(self):
        # The error message is the discovery surface: it must enumerate the
        # full sorted spec list, parameterized forms included.
        with pytest.raises(BackendError) as err:
            resolve_backend("nope")
        message = str(err.value)
        for spec in BACKEND_SPECS:
            assert spec in message
        assert "ell" in message and "sharded:K" in message

    def test_backend_specs_are_sorted_and_complete(self):
        assert list(BACKEND_SPECS) == sorted(BACKEND_SPECS)
        assert set(BACKEND_SPECS) == {"reference", "vectorized", "batched",
                                      "sharded", "sharded:K", "ell"}

    def test_scenario_ell_backend_round_trip(self):
        scenario = Scenario(graph="grid:16", scheme="lambda", backend="ell",
                            trace_level="summary")
        clone = Scenario.from_json(scenario.to_json())
        assert clone.backend == "ell"
        assert clone.backend_spec() == "ell"

    def test_scenario_rejects_shards_with_ell_backend(self):
        with pytest.raises(ValueError, match="shards"):
            Scenario(graph="path:9", backend="ell", shards=2)

    def test_cli_backend_accepts_specs_and_rejects_unknown(self, capsys):
        import argparse

        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--families", "path", "--sizes", "9", "--backend", "ell"]
        )
        assert args.backend == "ell"
        for bad in ("ell:fast", "ell:numpy"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["sweep", "--families", "path", "--sizes", "9",
                     "--backend", bad]
                )
            assert "ell" in capsys.readouterr().err

    def test_cli_broadcast_with_ell_backend(self, capsys):
        from repro.cli import main

        assert main(["broadcast", "grid:16", "--backend", "ell"]) == 0
        out = capsys.readouterr().out
        assert "completion round" in out and "PASS" in out

    def test_grid_rows_match_reference_through_ell(self):
        cfg = GridConfig(families=["path", "gnp_sparse"], sizes=[9],
                         schemes=["lambda", "round_robin", "lambda_ack"])
        ell_rows = run_grid(cfg, backend="ell")
        assert ell_rows == run_grid(cfg, backend="reference")
        by_scheme = {r.scheme: r.backend for r in ell_rows}
        native = "ell" if jit_available() else "vectorized"
        assert by_scheme["lambda"] == native
        assert by_scheme["round_robin"] == native
        assert by_scheme["lambda_ack"] == "vectorized"  # fallback provenance

    def test_numba_less_rows_say_vectorized_under_ell_keys(self, tmp_path):
        # Without numba an ell row ran on the vectorized engine and says so;
        # its store key still names the requested engine.
        from repro.store import ResultStore

        cfg = GridConfig(families=["path", "grid"], sizes=[9],
                         schemes=["lambda", "round_robin"])
        store = ResultStore(tmp_path / "store")
        with _jit_kernels(available=False):
            rows = run_grid(cfg, backend="ell", store=store)
        assert {r.backend for r in rows} == {"vectorized"}
        assert rows == run_grid(cfg, backend="vectorized")
        assert normalize_backend_name("ell") == "ell"
        unit = ("path", 9, 0, None, None, "lambda")
        key = grid_unit_key(cfg, unit, backend="ell")
        assert key in ResultStore(tmp_path / "store")
        assert key != grid_unit_key(cfg, unit, backend="vectorized")

    def test_sweep_store_resume_keys_on_the_requested_engine(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        sweep = ["sweep", "--families", "path", "--sizes", "9",
                 "--schemes", "lambda", "--store", store]
        assert main(sweep + ["--backend", "ell", "--output", "json"]) == 0
        assert "computed=1" in capsys.readouterr().err
        # Resuming the same spec is a full cache hit ...
        assert main(sweep + ["--backend", "ell", "--resume",
                             "--output", "json"]) == 0
        assert "cached=1 computed=0" in capsys.readouterr().err
        # ... while another engine's spec keys its rows apart.
        assert main(sweep + ["--backend", "vectorized", "--resume",
                             "--output", "json"]) == 0
        assert "cached=0 computed=1" in capsys.readouterr().err
