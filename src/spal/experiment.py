"""Experiment harness: run (strategy, budget, seed) combinations, train the
GCN on each selected set, and aggregate accuracy / macro-F1 per strategy
and budget."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import gcn
from .graph import AttributedGraph, check_int
from .metrics import accuracy, macro_f1
from .output import write_json, write_records_csv
from .pagerank import PageRankParams
from .scan import ScanParams
from .selection import (
    SelectionResult,
    check_budget,
    check_strategies,
    featprop_select,
    pagerank_select,
    random_select,
    spa_select,
    uncertainty_select,
)


@dataclass
class RunRecord:
    strategy: str
    budget: int
    seed: int
    accuracy: float
    macro_f1: float
    query_time_ms: float


@dataclass
class AggregateRecord:
    strategy: str
    budget: int
    num_seeds: int
    accuracy_mean: float
    accuracy_std: float
    macro_f1_mean: float
    macro_f1_std: float
    query_time_ms_mean: float


@dataclass
class EvalReport:
    runs: list[RunRecord] = field(default_factory=list)
    aggregates: list[AggregateRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "runs": [vars(r) for r in self.runs],
            "aggregates": [vars(a) for a in self.aggregates],
        }

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def write_runs_csv(runs: Iterable[RunRecord], path: str | Path) -> None:
    write_records_csv(path, RunRecord, runs)


def write_aggregates_csv(aggregates: Iterable[AggregateRecord], path: str | Path) -> None:
    write_records_csv(path, AggregateRecord, aggregates)


def run_strategy(
    name: str,
    g: AttributedGraph,
    b: int,
    seed: int,
    scan_params: ScanParams | None = None,
    pr_params: PageRankParams | None = None,
) -> SelectionResult:
    """Dispatch a strategy by name with uniform inputs.

    The run seed is recorded on every result (deterministic strategies
    ignore it for selection).
    """
    check_strategies([name])
    if name == "spa":
        result = spa_select(g, scan_params, pr_params, b)
    elif name == "random":
        result = random_select(g, b, seed)
    elif name == "pagerank":
        result = pagerank_select(g, pr_params, b)
    elif name == "featprop":
        result = featprop_select(g, b=b, seed=seed)
    else:
        result = uncertainty_select(g, b, seed)
    result.seed = seed
    return result


def run_single(
    strategy: str,
    g: AttributedGraph,
    budget: int,
    seed: int,
    cfg: gcn.TrainConfig,
    scan_params: ScanParams | None = None,
    pr_params: PageRankParams | None = None,
) -> RunRecord:
    """One (strategy, budget, seed) run: select, train, evaluate on the rest."""
    selection = run_strategy(strategy, g, budget, seed, scan_params, pr_params)
    selected = np.asarray(selection.selected, dtype=np.int64)
    model = gcn.train(g, selected, cfg, seed)
    preds = gcn.predict(model, g)
    unlabeled = np.ones(g.num_nodes, dtype=bool)
    unlabeled[selected] = False
    eval_set = np.flatnonzero(unlabeled)
    return RunRecord(
        strategy=strategy,
        budget=budget,
        seed=seed,
        accuracy=accuracy(preds, g.labels, eval_set),
        macro_f1=macro_f1(preds, g.labels, eval_set, g.num_classes),
        query_time_ms=selection.query_time_ms,
    )


def check_plan(
    g: AttributedGraph, strategies: list[str], budgets: list[int], seeds: list[int]
) -> list[tuple[str, int, int]]:
    """The (strategy, budget, seed) runs in order, once every list is
    non-empty and free of repeats, every seed is a non-negative integer
    and every strategy accepts every budget on ``g``."""
    if not strategies or not budgets or not seeds:
        raise ValueError("strategies, budgets, and seeds must be non-empty")
    check_strategies(strategies)
    for seed in seeds:
        check_int(seed, "seed", 0)
    # a repeat would be run again and counted as one more independent run
    for what, values in (("strategy", strategies), ("budget", budgets), ("seed", seeds)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"repeated {what} {repeated[0]!r}")
    for name, b in itertools.product(strategies, budgets):
        check_budget(name, b, g.num_nodes)
    return list(itertools.product(strategies, budgets, seeds))


def iter_runs(
    g: AttributedGraph,
    strategies: list[str],
    budgets: list[int],
    seeds: list[int],
    cfg: gcn.TrainConfig | None = None,
    scan_params: ScanParams | None = None,
    pr_params: PageRankParams | None = None,
    jobs: int = 1,
) -> Iterator[RunRecord]:
    """Run records in deterministic (strategy, budget, seed) order.

    The plan is checked on the call, before any run starts: ``check_plan``,
    plus a node left to evaluate on (b < n). The runs happen as the returned
    iterator is consumed. Each run's seed drives both its selection RNG and
    the model init. With jobs > 1 the independent runs execute on a process
    pool; results are still yielded in plan order.
    """
    plan = check_plan(g, strategies, budgets, seeds)
    for b in budgets:
        if b >= g.num_nodes:
            raise ValueError(
                f"budget {b} outside [1, {g.num_nodes}): no node would be left to evaluate on"
            )
    check_int(jobs, "jobs", 1)
    return _run_plan(g, plan, cfg or gcn.TrainConfig(), scan_params, pr_params, jobs)


def _run_plan(g, plan, cfg, scan_params, pr_params, jobs) -> Iterator[RunRecord]:
    if jobs == 1:
        for strategy, budget, seed in plan:
            yield run_single(strategy, g, budget, seed, cfg, scan_params, pr_params)
        return
    from concurrent.futures import ProcessPoolExecutor  # multiprocessing only when pooled

    # a fork pool starts all its workers at once, so it is no larger than the plan
    with ProcessPoolExecutor(max_workers=min(jobs, len(plan))) as pool:
        futures = [
            pool.submit(run_single, strategy, g, budget, seed, cfg, scan_params, pr_params)
            for strategy, budget, seed in plan
        ]
        for fut in futures:
            yield fut.result()


def aggregate_runs(runs: list[RunRecord]) -> list[AggregateRecord]:
    """Mean and sample stddev per (strategy, budget), in first-seen order."""
    groups: dict[tuple[str, int], list[RunRecord]] = {}
    for r in runs:
        groups.setdefault((r.strategy, r.budget), []).append(r)
    out = []
    for (strategy, budget), members in groups.items():
        acc = np.array([m.accuracy for m in members])
        f1 = np.array([m.macro_f1 for m in members])
        qt = np.array([m.query_time_ms for m in members])
        ddof_std = lambda a: float(a.std(ddof=1)) if len(a) > 1 else 0.0
        out.append(AggregateRecord(
            strategy=strategy,
            budget=budget,
            num_seeds=len(members),
            accuracy_mean=float(acc.mean()),
            accuracy_std=ddof_std(acc),
            macro_f1_mean=float(f1.mean()),
            macro_f1_std=ddof_std(f1),
            query_time_ms_mean=float(qt.mean()),
        ))
    return out


def run_experiment(
    g: AttributedGraph,
    strategies: list[str],
    budgets: list[int],
    seeds: list[int],
    cfg: gcn.TrainConfig | None = None,
    scan_params: ScanParams | None = None,
    pr_params: PageRankParams | None = None,
    jobs: int = 1,
) -> EvalReport:
    """Run the full grid and aggregate; see ``iter_runs`` for ordering."""
    runs = list(iter_runs(g, strategies, budgets, seeds, cfg, scan_params, pr_params, jobs))
    return EvalReport(runs=runs, aggregates=aggregate_runs(runs))
