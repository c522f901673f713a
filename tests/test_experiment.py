from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import spal.experiment
import spal.selection
from spal.experiment import (
    aggregate_runs,
    check_plan,
    iter_runs,
    run_experiment,
    run_strategy,
)
from spal.gcn import TrainConfig
from spal.scan import ScanParams
from spal.synthetic import sbm_graph



@pytest.fixture(scope="module")
def small_sbm():
    return sbm_graph(2, 60, 0.25, 0.02, feature_snr=2.0, seed=9)


FAST = TrainConfig(epochs=30)


def _content(record):
    """Run record minus the wall-clock field, which varies between reruns."""
    fields = dict(vars(record))
    fields.pop("query_time_ms")
    return fields


class TestRunStrategy:
    def test_dispatch_names(self, small_sbm):
        for name in ("spa", "random", "pagerank", "uncertainty", "featprop"):
            res = run_strategy(name, small_sbm, 4, seed=1, train_cfg=FAST)
            assert res.strategy == name
            assert len(res.selected) == 4

    def test_unknown_name(self, small_sbm):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_strategy("banana", small_sbm, 2, seed=0)

    def test_uncertainty_deterministic_per_seed(self, small_sbm):
        a = run_strategy("uncertainty", small_sbm, 5, seed=2, train_cfg=FAST)
        b = run_strategy("uncertainty", small_sbm, 5, seed=2, train_cfg=FAST)
        assert a.selected == b.selected


def test_dispatch_goes_through_module_attributes(small_sbm, monkeypatch):
    """Instrumentation that replaces these module attributes sees every call:
    each run calls its strategy once through ``spal.experiment``, and the
    strategies reach the pipeline stages through ``spal.selection``."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    strategies = ["spa", "random", "pagerank", "uncertainty", "featprop"]
    for name in ["spa_select", "random_select", "pagerank_select", "uncertainty_select",
                 "featprop_select"]:
        count(spal.experiment, name)
    for name in ["scan_partition", "pagerank_partition", "pagerank", "propagate", "kmedoids"]:
        count(spal.selection, name)

    budgets, seeds = [2, 3], [0, 1]
    runs = list(iter_runs(small_sbm, strategies, budgets, seeds, FAST, ScanParams(0.3, 2)))
    per_strategy = len(budgets) * len(seeds)
    assert len(runs) == len(strategies) * per_strategy
    for name in strategies:
        assert calls[f"{name}_select"] == per_strategy, name
    assert calls["scan_partition"] == calls["pagerank_partition"] == per_strategy
    assert calls["propagate"] == calls["kmedoids"] == per_strategy
    assert calls["pagerank"] >= per_strategy  # spa adds global calls to pagerank's own


class TestCheckPlan:
    def test_plan_in_strategy_budget_seed_order(self, small_sbm):
        assert check_plan(small_sbm, ["spa", "random"], [2, 3], [0]) == [
            ("spa", 2, 0), ("spa", 3, 0), ("random", 2, 0), ("random", 3, 0),
        ]

    @pytest.mark.parametrize("strategies, budgets, seeds, match", [
        ([], [2], [0], "non-empty"),
        (["spa"], [], [0], "non-empty"),
        (["spa"], [2], [], "non-empty"),
        (["spa", "banana"], [2], [0], "unknown strategy 'banana'"),
        (["spa"], [2, 0], [0], "budget must be >= 1, got 0"),
        (["spa", "featprop"], [2, 61], [0], "cannot place 61 medoids among 60 nodes"),
        (["spa"], [2], [0, -1], "seed must be >= 0, got -1"),
        (["spa", "random", "spa"], [2], [0], "repeated strategy 'spa'"),
        (["spa"], [2, 3, 2], [0], "repeated budget 2"),
        (["random"], [2], [0, 1, 0, 1], "repeated seed 0"),
    ])
    def test_rejects(self, small_sbm, strategies, budgets, seeds, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            check_plan(small_sbm, strategies, budgets, seeds)

    def test_evaluation_needs_an_unselected_node(self, small_sbm):
        # spa returns every node at b >= n, which leaves nothing to evaluate on
        assert check_plan(small_sbm, ["spa"], [60], [0])
        with pytest.raises(ValueError, match=re.escape("budget 60 outside [1, 60)")):
            iter_runs(small_sbm, ["spa"], [60], [0], FAST)


class TestRunExperiment:
    def test_bookkeeping(self, small_sbm):
        report = run_experiment(
            small_sbm, ["random"], [5], list(range(10)), FAST
        )
        assert len(report.runs) == 10
        assert len(report.aggregates) == 1
        agg = report.aggregates[0]
        assert agg.num_seeds == 10
        assert 0.0 <= agg.accuracy_mean <= 1.0
        assert 0.0 <= agg.macro_f1_mean <= 1.0

    def test_more_labels_help(self):
        # noisy enough that a budget of 4 cannot saturate accuracy
        g = sbm_graph(4, 80, 0.15, 0.05, feature_snr=0.8, seed=14)
        report = run_experiment(g, ["random"], [4, 40], list(range(6)), FAST)
        by_budget = {a.budget: a.accuracy_mean for a in report.aggregates}
        assert by_budget[40] > by_budget[4]

    def test_deterministic_report(self, small_sbm):
        kwargs = dict(strategies=["spa", "random"], budgets=[4], seeds=[0, 1], cfg=FAST,
                      scan_params=ScanParams(0.3, 2))
        r1 = run_experiment(small_sbm, **kwargs)
        r2 = run_experiment(small_sbm, **kwargs)
        assert [_content(r) for r in r1.runs] == [_content(r) for r in r2.runs]

    def test_budget_validation(self, small_sbm):
        with pytest.raises(ValueError, match="budget"):
            run_experiment(small_sbm, ["random"], [500], [0], FAST)

    def test_empty_plan_validation(self, small_sbm):
        with pytest.raises(ValueError):
            run_experiment(small_sbm, [], [5], [0], FAST)

    def test_parallel_matches_serial(self, small_sbm, monkeypatch):
        # spa's global vector on a worker thread: 7 communities, so both budgets use it
        monkeypatch.setattr(spal.selection, "_OVERLAP_FROM", 0)
        kwargs = dict(strategies=["random", "pagerank", "spa"], budgets=[4, 8], seeds=[0, 1],
                      cfg=FAST)
        serial = run_experiment(small_sbm, **kwargs, jobs=1)
        parallel = run_experiment(small_sbm, **kwargs, jobs=2)
        assert [_content(r) for r in serial.runs] == [_content(r) for r in parallel.runs]

    def test_pool_no_larger_than_plan(self, small_sbm, monkeypatch):
        sizes = []

        def pool(max_workers):  # threads start lazily, one per submitted run
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(spal.experiment, "ProcessPoolExecutor", pool)
        runs = list(iter_runs(small_sbm, ["random"], [2], [0, 1], FAST, jobs=1000))
        assert sizes == [2]
        assert len(runs) == 2

    def test_eval_set_excludes_selected(self):
        # a graph the model fits perfectly on the labeled nodes but cannot
        # generalize from keeps eval honest only if selected nodes are excluded
        g = sbm_graph(2, 30, 0.3, 0.05, feature_snr=5.0, seed=10)
        report = run_experiment(g, ["random"], [10], [0], FAST)
        assert report.runs[0].accuracy <= 1.0


class TestAggregation:
    def test_single_seed_std_zero(self, small_sbm):
        report = run_experiment(small_sbm, ["random"], [5], [3], FAST)
        assert report.aggregates[0].accuracy_std == 0.0

    def test_sample_std(self):
        from spal.experiment import RunRecord

        runs = [
            RunRecord("random", 5, s, acc, acc, 1.0)
            for s, acc in enumerate([0.5, 0.7, 0.9])
        ]
        agg = aggregate_runs(runs)[0]
        assert agg.accuracy_mean == pytest.approx(0.7)
        assert agg.accuracy_std == pytest.approx(np.std([0.5, 0.7, 0.9], ddof=1))


def test_report_serialization(tmp_path, small_sbm):
    report = run_experiment(small_sbm, ["random"], [4], [0, 1], FAST)
    from spal.experiment import write_aggregates_csv, write_runs_csv

    runs_csv = tmp_path / "runs.csv"
    agg_csv = tmp_path / "agg.csv"
    report_json = tmp_path / "report.json"
    write_runs_csv(report.runs, runs_csv)
    write_aggregates_csv(report.aggregates, agg_csv)
    report.write_json(report_json)

    lines = runs_csv.read_text().strip().splitlines()
    assert lines[0] == "strategy,budget,seed,accuracy,macro_f1,query_time_ms"
    assert len(lines) == 3
    agg_lines = agg_csv.read_text().strip().splitlines()
    assert agg_lines[0].startswith("strategy,budget,num_seeds,accuracy_mean,accuracy_std")
    import json

    data = json.loads(report_json.read_text())
    assert len(data["runs"]) == 2
    assert len(data["aggregates"]) == 1
