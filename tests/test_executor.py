"""Tests for the parallel grid executor and sweep determinism."""

from __future__ import annotations

import pytest

from repro.analysis import chunk_specs, instance_seed, materialize_instance
from repro.api import GridConfig, grid_cell_specs, run_grid

CFG = GridConfig(
    families=["path", "grid", "gnp_sparse"],
    sizes=[9, 16],
    seeds_per_size=2,
    schemes=["lambda", "round_robin"],
)


class TestSeedDeterminism:
    def test_instance_seed_is_stable(self):
        # CRC-based family hashing: the same cell always derives the same
        # seed, in this process and in any worker process.
        assert instance_seed(2019, "path", 16, 0) == instance_seed(2019, "path", 16, 0)
        assert instance_seed(2019, "path", 16, 0) != instance_seed(2019, "grid", 16, 0)
        assert instance_seed(2019, "path", 16, 0) != instance_seed(2019, "path", 16, 1)
        assert instance_seed(2019, "path", 16, 0) != instance_seed(7, "path", 16, 0)

    def test_specs_cover_the_grid_in_order(self):
        specs = grid_cell_specs(CFG)
        assert len(specs) == 3 * 2 * 2
        assert specs[0] == ("path", 9, 0, None, None)
        assert specs[-1] == ("gnp_sparse", 16, 1, None, None)

    def test_generated_instances_match_specs(self):
        for family, size, rep, _fault, _clock in grid_cell_specs(CFG):
            inst = materialize_instance(CFG, family, size, rep)
            assert inst.family == family
            assert inst.seed == instance_seed(CFG.base_seed, family, size, rep)


class TestChunking:
    def test_chunks_are_contiguous_and_exhaustive(self):
        specs = grid_cell_specs(CFG)
        chunks = chunk_specs(specs, 5)
        assert [s for chunk in chunks for s in chunk] == specs
        assert all(len(c) <= 5 for c in chunks)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            chunk_specs(grid_cell_specs(CFG), 0)


class TestParallelSweep:
    def test_parallel_rows_equal_serial_rows(self):
        serial = run_grid(CFG)
        for jobs in (2, 3):
            # RunMetrics are frozen dataclasses: field-exact equality.
            assert run_grid(CFG, jobs=jobs) == serial

    def test_rows_independent_of_job_count_and_chunking(self):
        one = run_grid(CFG, jobs=1)
        three = run_grid(CFG, jobs=3, chunk_size=1)
        assert one == three

    def test_parallel_sweep_with_vectorized_backend(self):
        ref = run_grid(CFG, backend="reference")
        vec = run_grid(CFG, jobs=2, backend="vectorized")
        assert vec == ref

    def test_backend_instances_are_reduced_to_names(self):
        from repro.backends import VectorizedBackend

        rows = run_grid(CFG, jobs=2, backend=VectorizedBackend())
        assert rows == run_grid(CFG, backend="vectorized")

    def test_unregistered_backend_instances_rejected(self):
        from repro.backends import SimulationBackend

        class CustomBackend(SimulationBackend):
            name = "custom-xyz"

            def run_task(self, task):  # pragma: no cover - never reached
                raise NotImplementedError

        with pytest.raises(ValueError, match="registered backend name"):
            run_grid(CFG, jobs=2, backend=CustomBackend())

    def test_empty_grid_returns_no_rows(self):
        cfg = GridConfig(families=[], sizes=[], schemes=["lambda"])
        assert run_grid(cfg, jobs=2) == []

    def test_unknown_scheme_rejected(self):
        cfg = GridConfig(families=["path"], sizes=[6], schemes=["nope"])
        with pytest.raises(ValueError, match="unknown schemes"):
            run_grid(cfg, jobs=2)
