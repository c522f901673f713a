from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spal
from spal.cli import main
from spal.synthetic import export_graph_files, sbm_graph


@pytest.fixture
def graph_files(tmp_path):
    g = sbm_graph(2, 30, 0.35, 0.03, feature_snr=2.0, seed=13)
    paths = (tmp_path / "edges.txt", tmp_path / "features.csv", tmp_path / "labels.txt")
    export_graph_files(g, *paths)
    return [
        "--edges", str(paths[0]),
        "--features", str(paths[1]),
        "--labels", str(paths[2]),
    ]


TWO_TRIANGLES = "sbm:2,6,1.0,0.0,1.0,0"  # two disjoint triangles


def read_rows(path):
    with path.open() as f:
        return list(csv.DictReader(f))


def read_selection(path):
    data = json.loads(path.read_text())
    data.pop("query_time_ms")  # wall-clock field, varies per run
    return data


class TestPartition:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([
            "partition", "--synthetic", TWO_TRIANGLES,
            "--epsilon", "0.7", "--mu", "2", "--out", str(out),
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "communities: 2" in captured
        assert "outliers: 0" in captured
        rows = read_rows(out / "communities.csv")
        assert len(rows) == 6
        assert {r["community_id"] for r in rows} == {"0", "1"}

    def test_unsatisfiable_all_outliers(self, tmp_path, capsys):
        rc = main([
            "partition", "--synthetic", "sbm:2,40,0.2,0.05,1.0,1",
            "--epsilon", "1.0", "--mu", "10", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "outliers: 40" in capsys.readouterr().out

    def test_missing_graph_input(self, tmp_path, capsys):
        rc = main(["partition", "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @staticmethod
    def partition_two_nodes(tmp_path, edge_text):
        edges = tmp_path / "edges.txt"
        edges.write_text(edge_text)
        feats = tmp_path / "f.csv"
        feats.write_text("1\n2\n")
        labels = tmp_path / "l.txt"
        labels.write_text("0\n0\n")
        return main([
            "partition", "--edges", str(edges), "--features", str(feats),
            "--labels", str(labels), "--out", str(tmp_path),
        ])

    def test_load_failure_exit_code(self, tmp_path, capsys):
        assert self.partition_two_nodes(tmp_path, "") == 1
        assert "empty graph" in capsys.readouterr().err

    def test_id_past_int64_exit_code(self, tmp_path, capsys):
        # rejected like any other malformed id, as is "1_0", which Python's
        # int() would read as 10
        assert self.partition_two_nodes(tmp_path, "99999999999999999999 1\n") == 1
        assert "error:" in capsys.readouterr().err


class TestSelect:
    def test_budget_saturation(self, tmp_path):
        rc = main([
            "select", "--synthetic", TWO_TRIANGLES, "--strategy", "spa",
            "--budgets", "10", "--seeds", "0", "--epsilon", "0.5", "--mu", "1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        data = json.loads((tmp_path / "select_spa_b10_s0.json").read_text())
        assert sorted(data["selected"]) == list(range(6))
        assert data["seed"] == 0  # run seed recorded even for seedless strategies

    def test_unknown_strategy_lists_valid(self, tmp_path, capsys):
        rc = main([
            "select", "--synthetic", TWO_TRIANGLES, "--strategy", "banana",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "spa" in err and "featprop" in err

    def test_random_rerun_identical(self, tmp_path, graph_files):
        args = [
            "select", *graph_files, "--strategy", "random",
            "--budgets", "5", "--seeds", "7", "--out", str(tmp_path),
        ]
        assert main(args) == 0
        first = read_selection(tmp_path / "select_random_b5_s7.json")
        assert main(args) == 0
        second = read_selection(tmp_path / "select_random_b5_s7.json")
        assert first == second

    def test_multiple_combinations(self, tmp_path, graph_files, capsys):
        rc = main([
            "select", *graph_files, "--strategy", "random,pagerank",
            "--budgets", "2,4", "--seeds", "0,1", "--out", str(tmp_path),
        ])
        assert rc == 0
        files = sorted(p.name for p in tmp_path.glob("select_*.json"))
        assert len(files) == 8
        assert "query_time" in capsys.readouterr().out

    def test_unconverged_pagerank_warns_on_stderr(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(spal.__file__).parent.parent))
        proc = subprocess.run(
            [
                sys.executable, "-m", "spal.cli", "select",
                "--synthetic", "sbm:4,400,0.1,0.01,1.0,7", "--epsilon", "0.28",
                "--max-iterations", "1", "--budgets", "10", "--out", str(tmp_path),
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert "RuntimeWarning" in proc.stderr
        assert "community blocks" in proc.stderr


class TestEvaluate:
    def test_bookkeeping(self, tmp_path, graph_files):
        rc = main([
            "evaluate", *graph_files, "--strategy", "random,pagerank",
            "--budgets", "3,6,9", "--seeds", "0,1", "--epochs", "10",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        runs = read_rows(tmp_path / "runs.csv")
        aggs = read_rows(tmp_path / "aggregates.csv")
        assert len(runs) == 2 * 3 * 2
        assert len(aggs) == 6
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["runs"]) == 12

    def test_budget_over_nodes_fails_fast(self, tmp_path, graph_files, capsys):
        rc = main([
            "evaluate", *graph_files, "--strategy", "random",
            "--budgets", "999", "--seeds", "0", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "budget" in capsys.readouterr().err

    def test_config_file_with_override(self, tmp_path, graph_files):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budgets=3\nseeds=0\nstrategy=random\nepochs=5\n# comment\n")
        out = tmp_path / "out"
        rc = main([
            "evaluate", *graph_files, "--config", str(cfg),
            "--budgets", "4", "--out", str(out),  # flag overrides config
        ])
        assert rc == 0
        runs = read_rows(out / "runs.csv")
        assert len(runs) == 1
        assert runs[0]["budget"] == "4"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("banana=1\n")
        rc = main(["evaluate", "--config", str(cfg), "--synthetic", TWO_TRIANGLES])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_mid_run_abort_flushes_partial_results(self, tmp_path, graph_files, capsys):
        import numpy as np

        # an absurd learning rate makes training diverge after selection
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main([
                "evaluate", *graph_files, "--strategy", "random",
                "--budgets", "3", "--seeds", "0,1", "--lr", "1e300",
                "--epochs", "5", "--out", str(tmp_path),
            ])
        assert rc == 1
        assert "aborted" in capsys.readouterr().err
        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert lines[0].startswith("strategy,")  # header flushed before abort


class TestBenchmark:
    def test_csv_shape(self, tmp_path, graph_files):
        rc = main([
            "benchmark", *graph_files, "--strategy", "spa,random",
            "--budgets", "4", "--repetitions", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "benchmark.csv").read_text().strip().splitlines()
        assert lines[0] == "strategy,median_ms,p95_ms"
        assert len(lines) == 3
        for line in lines[1:]:
            name, median, p95 = line.split(",")
            assert float(median) <= float(p95) + 1e-9

    def test_single_repetition(self, tmp_path, graph_files):
        rc = main([
            "benchmark", *graph_files, "--strategy", "pagerank",
            "--budgets", "2", "--repetitions", "1", "--out", str(tmp_path),
        ])
        assert rc == 0
        lines = (tmp_path / "benchmark.csv").read_text().strip().splitlines()
        assert len(lines) == 2


class TestSweep:
    def test_grid(self, tmp_path, graph_files):
        rc = main([
            "sweep", *graph_files, "--epsilon", "0.3,0.5", "--mu", "1,2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert len(rows) == 4
        assert {(r["epsilon"], r["mu"]) for r in rows} == {
            ("0.3", "1"), ("0.3", "2"), ("0.5", "1"), ("0.5", "2"),
        }


class TestIdempotency:
    def test_partition_outputs_byte_identical(self, tmp_path, graph_files):
        args = ["partition", *graph_files, "--epsilon", "0.4", "--out", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "communities.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "communities.csv").read_bytes() == first

    def test_evaluate_outputs_identical_modulo_timing(self, tmp_path, graph_files):
        args = [
            "evaluate", *graph_files, "--strategy", "random", "--budgets", "3",
            "--seeds", "0,1", "--epochs", "5", "--out", str(tmp_path),
        ]

        def strip_timing(path):
            rows = read_rows(path)
            for row in rows:
                row.pop("query_time_ms")
            return rows

        assert main(args) == 0
        first = strip_timing(tmp_path / "runs.csv")
        assert main(args) == 0
        assert strip_timing(tmp_path / "runs.csv") == first


class TestMoreStrategies:
    def test_uncertainty_and_featprop_select(self, tmp_path, graph_files):
        rc = main([
            "select", *graph_files, "--strategy", "uncertainty,featprop",
            "--budgets", "3", "--seeds", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        unc = json.loads((tmp_path / "select_uncertainty_b3_s2.json").read_text())
        assert unc["seed"] == 2
        assert len(unc["selected"]) == 3
        fp = json.loads((tmp_path / "select_featprop_b3_s2.json").read_text())
        assert len(fp["selected"]) == 3

    def test_evaluate_with_jobs(self, tmp_path, graph_files):
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        base = [
            "evaluate", *graph_files, "--strategy", "random,pagerank",
            "--budgets", "3", "--seeds", "0,1", "--epochs", "5",
        ]
        assert main([*base, "--out", str(serial_out)]) == 0
        assert main([*base, "--jobs", "2", "--out", str(parallel_out)]) == 0

        def strip_timing(path):
            rows = read_rows(path)
            for row in rows:
                row.pop("query_time_ms")
            return rows

        assert strip_timing(serial_out / "runs.csv") == strip_timing(parallel_out / "runs.csv")

    def test_pagerank_flags_plumbed(self, tmp_path, graph_files):
        rc = main([
            "select", *graph_files, "--strategy", "pagerank", "--budgets", "2",
            "--seeds", "0", "--damping", "0.5", "--tolerance", "1e-6",
            "--max-iterations", "50", "--out", str(tmp_path),
        ])
        assert rc == 0
        rc = main([
            "select", *graph_files, "--strategy", "pagerank", "--budgets", "2",
            "--seeds", "0", "--damping", "1.5", "--out", str(tmp_path),
        ])
        assert rc == 1  # damping outside [0, 1) rejected
