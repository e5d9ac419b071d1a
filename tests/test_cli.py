"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import csv
import io
import json

import pytest

from repro.api import Scenario
from repro.cli import build_parser, main, parse_graph_spec
from repro.graphs import path_graph, save_edge_list


class TestGraphSpecParsing:
    def test_family_spec(self):
        g = parse_graph_spec("path:7")
        assert g.num_nodes == 7

    def test_family_spec_with_seed(self):
        a = parse_graph_spec("gnp_sparse:20:3")
        b = parse_graph_spec("gnp_sparse:20:3")
        assert a == b

    def test_edge_list_file(self, tmp_path):
        path = tmp_path / "g.edges"
        save_edge_list(path_graph(5), path)
        g = parse_graph_spec(str(path))
        assert g.num_nodes == 5

    def test_bad_spec_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_graph_spec("nonsense:10")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_graph_spec("just-a-word")

    def test_non_positive_sizes_rejected_with_clear_error(self):
        # Regression: `path:0` used to crash deep inside the generator.
        with pytest.raises(argparse.ArgumentTypeError, match="positive integer"):
            parse_graph_spec("path:0")
        with pytest.raises(argparse.ArgumentTypeError, match="positive integer"):
            parse_graph_spec("grid:-4")
        with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
            parse_graph_spec("path:8:one")


class TestCommands:
    def test_label_command(self, capsys):
        assert main(["label", "grid:9", "--scheme", "lambda"]) == 0
        out = capsys.readouterr().out
        assert "length=2" in out
        assert out.strip().count("\n") == 9  # header + one line per node

    def test_label_ack_and_arb(self, capsys):
        assert main(["label", "path:6", "--scheme", "lambda_ack"]) == 0
        assert main(["label", "path:6", "--scheme", "lambda_arb"]) == 0
        out = capsys.readouterr().out
        assert "length=3" in out

    def test_broadcast_command(self, capsys):
        assert main(["broadcast", "grid:16", "--render"]) == 0
        out = capsys.readouterr().out
        assert "completion round" in out
        assert "PASS" in out
        assert "source" in out  # rendering present

    def test_broadcast_acknowledged(self, capsys):
        assert main(["broadcast", "cycle:8", "--scheme", "lambda_ack"]) == 0
        out = capsys.readouterr().out
        assert "acknowledgement round" in out

    def test_broadcast_arbitrary(self, capsys):
        assert main(["broadcast", "star:8", "--scheme", "lambda_arb", "--source", "3"]) == 0
        out = capsys.readouterr().out
        assert "common completion round" in out

    def test_figure1_command(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "dist 4" in out and "completion round: 7" in out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--families", "path", "--sizes", "8",
                     "--schemes", "lambda", "round_robin"]) == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "round_robin" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunCommand:
    def test_run_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        Scenario(graph="grid:16:1", scheme="lambda_ack",
                 trace_level="summary").save(path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "scheme: lambda_ack" in out
        assert "acknowledgement round" in out
        assert "COMPLETED" in out

    @staticmethod
    def _shards_era_file(tmp_path, **fields):
        # Scenario files saved while scenarios had a ``shards`` field (for
        # the retired sharded engine) carry it, null unless set.
        doc = json.loads(Scenario(graph="path:9", trace_level="summary").to_json())
        doc.update({"shards": None, **fields})
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return path

    def test_run_a_scenario_file_saved_with_null_shards(self, capsys, tmp_path):
        path = self._shards_era_file(tmp_path)
        assert main(["run", str(path), "--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "scheme: lambda" in out and "COMPLETED" in out

    def test_run_refuses_a_scenario_file_with_a_shard_count(self, tmp_path):
        path = self._shards_era_file(tmp_path, shards=2, backend="sharded")
        with pytest.raises(ValueError, match="sharded backend was retired"):
            main(["run", str(path)])

    def test_run_any_registered_scheme_from_config_alone(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        Scenario(graph="star:9:1", scheme="centralized",
                 trace_level="summary").save(path)
        assert main(["run", str(path), "--backend", "vectorized"]) == 0
        assert "scheme: centralized" in capsys.readouterr().out

    def test_run_scheme_override_and_json_output(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        Scenario(graph="path:9", scheme="lambda",
                 faults={"kind": "drop", "prob": 0.0, "seed": 1}).save(path)
        assert main(["run", str(path), "--scheme", "round_robin",
                     "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["scheme"] == "round_robin"
        assert rows[0]["family"] == "path"
        assert rows[0]["fault"] == "drop:0:1"

    def test_schemes_command_lists_registry(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        for name in ("lambda", "lambda_ack", "lambda_arb", "round_robin",
                     "coloring_tdma", "collision_detection", "centralized"):
            assert name in out


class TestSweepOutputs:
    def test_sweep_parallel_json_end_to_end(self, capsys):
        assert main(["sweep", "--families", "path", "grid",
                     "--sizes", "9", "--schemes", "lambda", "round_robin",
                     "--jobs", "2", "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert {r["scheme"] for r in rows} == {"lambda", "round_robin"}
        assert all(r["completion_round"] is not None for r in rows)

    def test_sweep_csv_output(self, capsys):
        assert main(["sweep", "--families", "path", "--sizes", "8",
                     "--schemes", "lambda", "--output", "csv"]) == 0
        out = capsys.readouterr().out
        parsed = list(csv.DictReader(io.StringIO(out)))
        assert len(parsed) == 1
        assert parsed[0]["scheme"] == "lambda"
        assert parsed[0]["fault"] == "none"

    def test_sweep_fault_axis(self, capsys):
        assert main(["sweep", "--families", "path", "--sizes", "12",
                     "--schemes", "lambda", "--faults", "none", "drop:0.4:2",
                     "--jobs", "2", "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["fault"] for r in rows] == ["none", "drop:0.4:2"]


class TestSessionCommands:
    """The streaming-session surface: schemes --json, sweep --store/--resume/
    --keep-going/--progress and the results subcommand."""

    SWEEP = ["sweep", "--families", "path", "grid", "--sizes", "9",
             "--schemes", "lambda", "round_robin"]

    def test_schemes_json_is_machine_readable(self, capsys):
        assert main(["schemes", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"schemes", "backends"}
        by_name = {entry["name"]: entry for entry in doc["schemes"]}
        assert set(by_name) >= {"lambda", "lambda_ack", "lambda_arb",
                                "round_robin", "coloring_tdma",
                                "collision_detection", "centralized"}
        for entry in doc["schemes"]:
            assert set(entry) == {"name", "kind", "description", "backends"}
            assert "reference" in entry["backends"]
        assert by_name["lambda"]["kind"] == "paper"
        assert "vectorized" in by_name["lambda"]["backends"]
        # B_arb is stacked by the vectorized kernels (per-instance
        # coordinator state as arrays).
        assert "vectorized" in by_name["lambda_arb"]["backends"]
        # Machine-level backend registry info.
        assert doc["backends"] == {"names": ["reference", "vectorized"]}

    def test_sweep_store_then_resume_reports_full_cache_hits(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(self.SWEEP + ["--store", store, "--output", "json"]) == 0
        captured = capsys.readouterr()
        first = json.loads(captured.out)
        assert "cached=0 computed=4" in captured.err
        assert main(self.SWEEP + ["--store", store, "--resume",
                                  "--output", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == first
        assert "cached=4 computed=0 failed=0" in captured.err

    def test_sweep_progress_flag(self, capsys, tmp_path):
        assert main(self.SWEEP + ["--store", str(tmp_path / "s"),
                                  "--progress", "--output", "csv"]) == 0
        err = capsys.readouterr().err
        assert "[sweep] rows 0/4" in err
        assert "[sweep] rows 4/4" in err

    def test_resume_requires_a_store_argument(self, capsys):
        assert main(self.SWEEP + ["--resume"]) == 2
        assert "--resume requires --store" in capsys.readouterr().err

    def test_resume_refuses_a_missing_store(self, capsys, tmp_path):
        assert main(self.SWEEP + ["--store", str(tmp_path / "nope"),
                                  "--resume"]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_results_filters_and_exports(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(self.SWEEP + ["--store", store, "--output", "csv"]) == 0
        capsys.readouterr()
        assert main(["results", store, "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4
        assert main(["results", store, "--schemes", "lambda",
                     "--families", "path", "--output", "csv"]) == 0
        parsed = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(parsed) == 1
        assert parsed[0]["scheme"] == "lambda" and parsed[0]["family"] == "path"
        assert main(["results", store, "--sizes", "9",
                     "--status", "ok", "--output", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4 and all(json.loads(l)["n"] == 9 for l in lines)
        assert main(["results", store]) == 0
        assert "4/4 rows" in capsys.readouterr().out

    def test_results_refuses_a_missing_store(self, capsys, tmp_path):
        assert main(["results", str(tmp_path / "nothing")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_keep_going_records_failures_with_status_column(
        self, capsys, monkeypatch
    ):
        from repro.api.schemes import LambdaScheme

        def boom(self, *args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(LambdaScheme, "build_task", boom)
        assert main(self.SWEEP + ["--keep-going"]) == 1
        out = capsys.readouterr().out
        assert "status" in out and "error:RuntimeError" in out

    def test_results_csv_on_a_fresh_store_keeps_the_header(self, capsys, tmp_path):
        # Regression: an empty export used to emit zero bytes, breaking
        # downstream CSV concatenation/readers.
        from repro.store import ResultStore

        ResultStore(tmp_path / "s").close()
        assert main(["results", str(tmp_path / "s"), "--output", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("scheme,family,n,")
        assert len(out.splitlines()) == 1

    def test_store_describe_reports_counters(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(self.SWEEP + ["--store", store, "--output", "csv"]) == 0
        capsys.readouterr()
        assert main(["store", "describe", store]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == 4
        assert doc["scanned_lines"] == 0  # reopened straight off the sidecars

    def test_store_compact_then_resume_still_hits_every_cell(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(self.SWEEP + ["--store", store, "--output", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["store", "compact", store]) == 0
        captured = capsys.readouterr()
        stats = json.loads(captured.out)
        assert stats["rows_kept"] == 4
        assert "[compact]" in captured.err
        assert main(self.SWEEP + ["--store", store, "--resume",
                                  "--output", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == first
        assert "cached=4 computed=0 failed=0" in captured.err

    def test_store_compact_refuses_a_missing_store(self, capsys, tmp_path):
        assert main(["store", "compact", str(tmp_path / "nope")]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_strict_sweep_aborts_with_the_cell_spec(self, monkeypatch):
        from repro.analysis.executor import GridExecutionError
        from repro.api.schemes import LambdaScheme

        def boom(self, *args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(LambdaScheme, "build_task", boom)
        with pytest.raises(GridExecutionError, match="scheme='lambda'"):
            main(self.SWEEP)
