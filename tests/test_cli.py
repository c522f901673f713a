from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spal
from spal.cli import _FLAG_OF, _FLAGS, _build_parser, _resolve_settings, main
from spal.gcn import TrainConfig
from spal.pagerank import PageRankParams
from spal.scan import ScanParams
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


@pytest.fixture
def overflowing_files(tmp_path):
    """4 nodes whose features, near the float64 limit, overflow the GCN's
    forward pass, so every uncertainty query fails."""
    paths = (tmp_path / "edges.txt", tmp_path / "features.csv", tmp_path / "labels.txt")
    paths[0].write_text("0 1\n1 2\n2 3\n0 2\n")
    paths[1].write_text("1.7e308,-1.7e308,1.7e308\n" * 4)
    paths[2].write_text("0\n1\n2\n1\n")
    return ["--edges", str(paths[0]), "--features", str(paths[1]), "--labels", str(paths[2])]


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

    def test_golden_bytes(self, tmp_path):
        assert main([
            "partition", "--synthetic", TWO_TRIANGLES, "--epsilon", "0.7", "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "communities.csv").read_bytes() == (
            # the triangles are {0, 2, 3} and {1, 4, 5}
            b"node_id,community_id\r\n0,0\r\n1,1\r\n2,0\r\n3,0\r\n4,1\r\n5,1\r\n"
        )

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

    def test_every_budget_checked_before_any_file(self, tmp_path, capsys):
        # spa accepts b=10 on 6 nodes, featprop does not: nothing may be written
        rc = main([
            "select", "--synthetic", TWO_TRIANGLES, "--strategy", "spa,featprop",
            "--budgets", "10", "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k-medoids cannot place 10 medoids among 6 nodes")
        assert not list(tmp_path.glob("*.json"))

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

    def test_runs_before_a_failing_run_stay_on_disk(self, tmp_path, graph_files, monkeypatch):
        from spal import experiment

        real_run_single = experiment.run_single
        on_disk = []

        def fail_on_second_seed(strategy, g, budget, seed, *args):
            if seed == 1:
                on_disk.append(read_rows(tmp_path / "runs.csv"))
                raise ValueError("run failed")
            return real_run_single(strategy, g, budget, seed, *args)

        monkeypatch.setattr(experiment, "run_single", fail_on_second_seed)
        rc = main([
            "evaluate", *graph_files, "--strategy", "random", "--budgets", "3",
            "--seeds", "0,1", "--epochs", "5", "--out", str(tmp_path),
        ])
        assert rc == 1
        # the first run's row was on disk while the second run was failing
        assert [(r["strategy"], r["seed"]) for r in on_disk[0]] == [("random", "0")]
        assert read_rows(tmp_path / "runs.csv") == on_disk[0]

    def test_unopenable_runs_csv_is_not_called_partial(self, tmp_path, capsys):
        runs_path = tmp_path / "runs.csv"
        runs_path.mkdir()  # a directory where the file should go
        rc = main([
            "evaluate", "--synthetic", "sbm:2,6,1.0,0.0,1.0,0", "--strategy", "random",
            "--budgets", "2", "--epochs", "2", "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {runs_path}: ")
        assert "Is a directory" in err and "partial" not in err
        assert err.count("\n") == 1

    def test_non_finite_lr_rejected_before_training(self, tmp_path, graph_files, capsys):
        # nan used to pass the config check and surface only as divergence
        rc = main([
            "evaluate", *graph_files, "--strategy", "random",
            "--budgets", "3", "--seeds", "0", "--lr", "nan", "--out", str(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: learning_rate must be positive and finite, got nan")
        assert not (tmp_path / "runs.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--epsilon", "2"], "error: epsilon must be in [0, 1], got 2.0"),
        (["--budgets", "999"], "error: budget 999 outside [1, 30): no node would be left"),
        (["--budgets", "30"], "error: budget 30 outside [1, 30): no node would be left"),
        (["--seeds", "-1"], "error: seed must be >= 0, got -1"),
        (["--seeds", "0,0"], "error: repeated seed 0"),
    ])
    def test_bad_setting_rejected_before_runs_csv(
        self, tmp_path, graph_files, capsys, flags, message
    ):
        rc = main([
            "evaluate", *graph_files, "--strategy", "random", "--budgets", "3",
            "--seeds", "0", *flags, "--out", str(tmp_path),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "runs.csv").exists()


class TestBenchmark:
    def test_csv_shape(self, tmp_path, graph_files):
        rc = main([
            "benchmark", *graph_files, "--strategy", "spa,random",
            "--budgets", "4", "--repetitions", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        data = (tmp_path / "benchmark.csv").read_bytes()
        assert data.startswith(b"strategy,median_ms,p95_ms\r\n")
        lines = data.decode().strip().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            name, median, p95 = line.split(",")
            assert float(median) <= float(p95) + 1e-9

    def test_one_budget_only(self, tmp_path, graph_files, capsys):
        rc = main([
            "benchmark", *graph_files, "--strategy", "random",
            "--budgets", "5,10", "--repetitions", "1", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "--budgets expects a single value" in capsys.readouterr().err
        assert not (tmp_path / "benchmark.csv").exists()

    def test_every_budget_checked_before_first_timed_call(self, tmp_path, capsys):
        # spa accepts b=10 on 6 nodes, featprop does not: nothing may be timed
        out = tmp_path / "out"
        rc = main([
            "benchmark", "--synthetic", TWO_TRIANGLES, "--strategy", "spa,featprop",
            "--budgets", "10", "--repetitions", "3", "--out", str(out),
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: k-medoids cannot place 10 medoids among 6 nodes")
        assert captured.out == ""
        assert not out.exists()

    def test_repetitions_past_ssize_t(self, tmp_path, capsys, monkeypatch):
        # the repetition seeds 0..R-1 are valid by construction, so the plan
        # check does not list them
        def stop(*args, **kwargs):
            raise ValueError("stop")

        monkeypatch.setattr(spal.cli, "run_strategy", stop)
        rc = main([
            "benchmark", "--synthetic", TWO_TRIANGLES, "--strategy", "random",
            "--budgets", "2", "--repetitions", "1e19", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: aborted after 0 strategies (partial results in {tmp_path / 'benchmark.csv'}): "
            "stop\n"
        )

    def test_strategies_before_a_failing_one_stay_on_disk(self, overflowing_files, capsys):
        out = Path(overflowing_files[1]).parent / "out"
        rc = main([
            "benchmark", *overflowing_files, "--strategy", "random,uncertainty",
            "--budgets", "2", "--repetitions", "2", "--out", str(out),
        ])
        assert rc == 1
        assert [row["strategy"] for row in read_rows(out / "benchmark.csv")] == ["random"]
        assert capsys.readouterr().err == (
            f"error: aborted after 1 strategies (partial results in {out / 'benchmark.csv'}): "
            "forward pass output row 0 is not finite\n"
        )

    def test_overflowing_forward_pass_prints_one_error_line(self, overflowing_files):
        # run outside pytest, so numpy's RuntimeWarnings would reach stderr
        env = dict(os.environ, PYTHONPATH=str(Path(spal.__file__).parent.parent))
        proc = subprocess.run(
            [
                sys.executable, "-m", "spal.cli", "benchmark", *overflowing_files,
                "--strategy", "uncertainty", "--budgets", "2", "--repetitions", "1",
                "--out", str(Path(overflowing_files[1]).parent / "out"),
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1

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

    def test_golden_bytes(self, tmp_path):
        rc = main([
            "sweep", "--synthetic", TWO_TRIANGLES, "--epsilon", "0.5,1", "--mu", "2,4",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "sweep.csv").read_bytes() == (
            b"epsilon,mu,num_communities,num_outliers,largest_community\r\n"
            b"0.5,2,2,0,3\r\n"
            b"0.5,4,0,6,0\r\n"
            b"1.0,2,2,0,3\r\n"
            b"1.0,4,0,6,0\r\n"
        )

    def test_edge_pass_runs_once_per_sweep(self, tmp_path, monkeypatch):
        from spal import scan

        calls = []
        real_edge_overlap = scan._edge_overlap

        def counted(g):
            calls.append(g)
            return real_edge_overlap(g)

        monkeypatch.setattr(scan, "_edge_overlap", counted)
        rc = main([
            "sweep", "--synthetic", TWO_TRIANGLES, "--epsilon", "0.3,0.5,1", "--mu", "1,2,4",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert len(read_rows(tmp_path / "sweep.csv")) == 9
        assert len(calls) == 1

    def test_points_before_a_failing_point_stay_on_disk(self, tmp_path, monkeypatch, capsys):
        from spal import cli

        real_scan_sweep = cli.scan_sweep
        on_disk = []

        def fail_on_second_mu(g, grid):
            # the sweep yields the real first point, then fails on the second
            yield next(real_scan_sweep(g, grid[:1]))
            on_disk.append((tmp_path / "sweep.csv").read_bytes())
            raise ValueError("partition failed")

        monkeypatch.setattr(cli, "scan_sweep", fail_on_second_mu)
        rc = main([
            "sweep", "--synthetic", TWO_TRIANGLES, "--epsilon", "0.5", "--mu", "2,3",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        # the first point's row was on disk while the second point was failing
        assert on_disk == [
            b"epsilon,mu,num_communities,num_outliers,largest_community\r\n0.5,2,2,0,3\r\n"
        ]
        assert (tmp_path / "sweep.csv").read_bytes() == on_disk[0]
        assert capsys.readouterr().err == (
            f"error: aborted after 1 grid points (partial results in {tmp_path / 'sweep.csv'}): "
            "partition failed\n"
        )

    def test_every_grid_point_checked_before_sweep_csv(self, tmp_path, graph_files, capsys):
        rc = main([
            "sweep", *graph_files, "--epsilon", "0.3,2", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: epsilon must be in [0, 1], got 2.0")
        assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv, written", [
    (["partition"], ["communities.csv"]),
    (["evaluate", "--strategy", "random,spa", "--budgets", "2,3", "--seeds", "0,1",
      "--epochs", "2"], ["runs.csv", "aggregates.csv"]),
    (["benchmark", "--strategy", "random,spa", "--budgets", "2", "--repetitions", "2"],
     ["benchmark.csv"]),
    (["sweep", "--epsilon", "0.5,0.9", "--mu", "1,2"], ["sweep.csv"]),
])
def test_every_csv_line_ends_in_crlf(tmp_path, argv, written):
    """Also checks each header against README's "Output files" list."""
    section = README.read_text(encoding="utf-8").split("## Output files\n", 1)[1]
    documented = dict(re.findall(r"- `(\w+\.csv)` \(`\w+`\):\s+`([\w,]+)`", section))
    assert main([*argv, "--synthetic", TWO_TRIANGLES, "--out", str(tmp_path)]) == 0
    for name in written:
        data = (tmp_path / name).read_bytes()
        assert data.endswith(b"\r\n") and data.count(b"\n") == data.count(b"\r\n") >= 2, name
        assert data.split(b"\r\n", 1)[0].decode() == documented[name]


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


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["partition", "--epochs", "5"],
        ["sweep", "--budgets", "3"],
        ["select", "--jobs", "2"],
        ["benchmark", "--seeds", "1"],
    ])
    def test_flag_the_subcommand_does_not_read_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--synthetic", TWO_TRIANGLES, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["partition", "--mu", "inf"], "error: --mu expects an integer, got inf"),
        (["partition", "--mu", "nan"], "error: --mu expects an integer, got nan"),
        (["select", "--max-iterations", "1,2"],
         "error: --max-iterations expects a single value here, got 2"),
        (["evaluate", "--weight-decay", "1,2"],
         "error: --weight-decay expects a single value here, got 2"),
        (["evaluate", "--budgets", "3", "--jobs", "0"], "error: jobs must be >= 1, got 0"),
        (["evaluate", "--budgets", "3", "--jobs", "-3"], "error: jobs must be >= 1, got -3"),
        (["select", "--strategy", " , "], "error: --strategy expects at least one value"),
        (["evaluate", "--budgets", ","], "error: --budgets expects at least one value"),
        (["sweep", "--epsilon", ","], "error: --epsilon expects at least one value, got ','"),
        (["sweep", "--mu", ","], "error: --mu expects at least one value, got ','"),
        (["select", "--strategy", "spa,random", "--budgets", "3", "--seeds", "-1"],
         "error: seed must be >= 0, got -1"),
        (["select", "--strategy", "pagerank", "--budgets", "3", "--tolerance", "nan"],
         "error: tolerance must be positive and finite, got nan"),
        (["select", "--strategy", "random,random", "--budgets", "3"],
         "error: repeated strategy 'random'"),
        (["select", "--strategy", "random", "--budgets", "3,3"], "error: repeated budget 3"),
        (["select", "--strategy", "pagerank", "--budgets", "3", "--max-iterations", "1e19"],
         "error: max_iterations must be <= 2**63 - 1"),
    ])
    def test_bad_value_names_the_flag(self, tmp_path, capsys, argv, message):
        rc = main([*argv, "--synthetic", TWO_TRIANGLES, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)
        assert not list(tmp_path.iterdir())

    def test_config_keys_of_other_subcommands_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\njobs=4\nepsilon=0.7\n")
        rc = main([
            "partition", "--config", str(cfg), "--synthetic", TWO_TRIANGLES,
            "--out", str(tmp_path),
        ])
        assert rc == 0
        assert "communities: 2" in capsys.readouterr().out

    def test_unset_flags_keep_class_defaults(self):
        settings = _resolve_settings(_build_parser().parse_args(["evaluate"]))
        assert settings.params(ScanParams) == ScanParams()
        assert settings.params(PageRankParams) == PageRankParams()
        assert settings.params(TrainConfig) == TrainConfig()

    @pytest.mark.parametrize("cls", [ScanParams, PageRankParams, TrainConfig])
    def test_every_settings_field_is_a_flag(self, cls):
        # a library setting no flag reaches is one no run can vary
        for fld in dataclasses.fields(cls):
            assert _FLAG_OF.get(fld.name, fld.name) in _FLAGS, fld.name


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_parse():
    """The CLI examples in README.md take only flags their subcommand reads."""
    block = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1].split("```")[1]
    commands = [
        shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("spal ")
    ]
    assert {argv[1] for argv in commands} == {
        "partition", "select", "evaluate", "benchmark", "sweep",
    }
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # exits with code 2 on a flag it does not take


def test_readme_python_api_runs(capsys):
    """The Python API example in README.md runs as written."""
    section = README.read_text(encoding="utf-8").split("## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    accuracy, macro_f1 = map(float, capsys.readouterr().out.split())
    assert 0.0 <= accuracy <= 1.0 and 0.0 <= macro_f1 <= 1.0


def test_readme_flag_table_matches_parser():
    subparsers = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    documented = {name: set() for name in subparsers.choices}
    for row in README.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        if row.startswith("| `--"):
            names = documented if cells[1] == "all" else cells[1].split(", ")
            for name in names:
                documented[name].update(re.findall(r"--[a-z-]+", cells[0]))
    for name, sub in subparsers.choices.items():
        taken = {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
        assert documented[name] == taken, name
