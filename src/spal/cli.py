"""Command-line entry point: partition, select, evaluate, benchmark, and
sweep subcommands over plain-text graph exports or synthetic fixtures.

A plain-text config file (``key=value`` per line, ``#`` comments) can seed
any flag; explicit command-line flags win.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .experiment import (
    EvalReport,
    RunRecord,
    aggregate_runs,
    iter_runs,
    run_strategy,
    write_aggregates_csv,
    write_runs_csv,
)
from .gcn import TrainConfig
from .graph import AttributedGraph, GraphLoadError, load_graph
from .pagerank import PageRankParams
from .scan import ScanParams, scan_partition, write_communities_csv
from .selection import check_budget, check_strategies
from .synthetic import parse_synthetic_spec

_DEFAULTS = {
    "epsilon": "0.5",
    "mu": "2",
    "damping": "0.95",
    "tolerance": "1e-8",
    "max_iterations": "1000",
    "budgets": "20",
    "seeds": "0",
    "strategy": "spa",
    "epochs": "200",
    "lr": "1e-2",
    "weight_decay": "5e-4",
    "jobs": "1",
    "out": ".",
    "repetitions": "10",
}


class CliError(ValueError):
    pass


def _parse_int_list(text: str, name: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"--{name} expects comma-separated integers, got {text!r}") from None


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"--{name} expects comma-separated numbers, got {text!r}") from None


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


@dataclass
class Settings:
    """Flag values resolved from defaults, config file, and CLI overrides."""

    raw: dict[str, str]

    def get(self, key: str) -> str | None:
        return self.raw.get(key)

    def require(self, key: str) -> str:
        value = self.raw.get(key)
        if value is None:
            raise CliError(f"missing required option --{key.replace('_', '-')}")
        return value

    def scalar_float(self, key: str) -> float:
        values = _parse_float_list(self.require(key), key)
        if len(values) != 1:
            raise CliError(f"--{key} expects a single value here, got {len(values)}")
        return values[0]

    def scalar_int(self, key: str) -> int:
        value = self.scalar_float(key)
        if value != int(value):
            raise CliError(f"--{key.replace('_', '-')} expects an integer, got {value}")
        return int(value)

    def scan_params(self) -> ScanParams:
        return ScanParams(epsilon=self.scalar_float("epsilon"), mu=self.scalar_int("mu"))

    def pagerank_params(self) -> PageRankParams:
        return PageRankParams(
            damping=self.scalar_float("damping"),
            tolerance=self.scalar_float("tolerance"),
            max_iterations=self.scalar_int("max_iterations"),
        )

    def train_config(self) -> TrainConfig:
        """The GCN settings; each run supplies its own seed."""
        return TrainConfig(
            learning_rate=self.scalar_float("lr"),
            weight_decay=self.scalar_float("weight_decay"),
            epochs=self.scalar_int("epochs"),
        )

    def strategies(self) -> list[str]:
        names = [s.strip() for s in self.require("strategy").split(",") if s.strip()]
        check_strategies(names)
        if not names:
            raise CliError("--strategy must name at least one strategy")
        return names

    def budgets(self) -> list[int]:
        values = _parse_int_list(self.require("budgets"), "budgets")
        if not values:
            raise CliError("--budgets must be non-empty")
        return values

    def seeds(self) -> list[int]:
        values = _parse_int_list(self.require("seeds"), "seeds")
        if not values:
            raise CliError("--seeds must be non-empty")
        return values

    def out_dir(self) -> Path:
        out = Path(self.require("out"))
        out.mkdir(parents=True, exist_ok=True)
        return out

    def load_graph(self) -> AttributedGraph:
        synthetic = self.get("synthetic")
        if synthetic:
            return parse_synthetic_spec(synthetic)
        for key in ("edges", "features", "labels"):
            if not self.get(key):
                raise CliError(
                    "graph input missing: pass --edges/--features/--labels or --synthetic"
                )
        return load_graph(self.raw["edges"], self.raw["features"], self.raw["labels"])


def _resolve_settings(args: argparse.Namespace) -> Settings:
    raw = dict(_DEFAULTS)
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(_DEFAULTS) - {"edges", "features", "labels", "synthetic"}
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
        raw.update(file_values)
    for key in list(_DEFAULTS) + ["edges", "features", "labels", "synthetic"]:
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = str(value)
    return Settings(raw=raw)


def cmd_partition(settings: Settings) -> int:
    g = settings.load_graph()
    assignment = scan_partition(g, settings.scan_params())
    out = settings.out_dir() / "communities.csv"
    write_communities_csv(assignment, out)
    sizes = Counter(len(c) for c in assignment.communities)
    histogram = " ".join(f"{size}x{count}" for size, count in sorted(sizes.items()))
    print(f"communities: {assignment.num_communities}")
    print(f"outliers: {len(assignment.outliers)}")
    print(f"size histogram: {histogram or '-'}")
    print(f"wrote {out}")
    return 0


def cmd_select(settings: Settings) -> int:
    g = settings.load_graph()
    scan_params = settings.scan_params()
    pr_params = settings.pagerank_params()
    train_cfg = settings.train_config()
    plan = list(itertools.product(settings.strategies(), settings.budgets(), settings.seeds()))
    # every combination is checked before the first file is written
    for strategy, budget, _ in plan:
        check_budget(strategy, budget, g.num_nodes)
    out_dir = settings.out_dir()
    for strategy, budget, seed in plan:
        result = run_strategy(strategy, g, budget, seed, scan_params, pr_params, train_cfg)
        path = out_dir / f"select_{strategy}_b{budget}_s{seed}.json"
        result.write_json(path)
        print(
            f"{strategy} b={budget} seed={seed}: "
            f"query_time={result.query_time_ms:.3f} ms -> {path}"
        )
    return 0


def cmd_evaluate(settings: Settings) -> int:
    g = settings.load_graph()
    # a bad setting or plan raises here, before runs.csv is opened
    records = iter_runs(
        g, settings.strategies(), settings.budgets(), settings.seeds(),
        settings.train_config(), settings.scan_params(), settings.pagerank_params(),
        jobs=settings.scalar_int("jobs"),
    )
    out_dir = settings.out_dir()
    runs_path = out_dir / "runs.csv"
    runs: list[RunRecord] = []

    def collect() -> Iterator[RunRecord]:
        for record in records:
            runs.append(record)
            yield record

    try:
        write_runs_csv(collect(), runs_path)
    except Exception as e:
        print(f"aborted after {len(runs)} runs (partial results in {runs_path}): {e}",
              file=sys.stderr)
        return 1
    aggregates = aggregate_runs(runs)
    write_aggregates_csv(aggregates, out_dir / "aggregates.csv")
    EvalReport(runs=runs, aggregates=aggregates).write_json(out_dir / "report.json")
    for agg in aggregates:
        print(
            f"{agg.strategy} b={agg.budget}: "
            f"acc={agg.accuracy_mean:.4f}±{agg.accuracy_std:.4f} "
            f"macro_f1={agg.macro_f1_mean:.4f}±{agg.macro_f1_std:.4f}"
        )
    print(f"wrote {runs_path}, {out_dir / 'aggregates.csv'}, {out_dir / 'report.json'}")
    return 0


def cmd_benchmark(settings: Settings) -> int:
    g = settings.load_graph()
    out_dir = settings.out_dir()
    budget = settings.scalar_int("budgets")
    repetitions = settings.scalar_int("repetitions")
    if repetitions < 1:
        raise CliError("--repetitions must be >= 1")
    scan_params = settings.scan_params()
    pr_params = settings.pagerank_params()
    train_cfg = settings.train_config()
    rows = []
    for strategy in settings.strategies():
        times = []
        for rep in range(repetitions):
            result = run_strategy(strategy, g, budget, rep, scan_params, pr_params, train_cfg)
            times.append(result.query_time_ms)
        median = float(np.median(times))
        p95 = float(np.percentile(times, 95))
        rows.append((strategy, median, p95))
        print(f"{strategy}: median={median:.3f} ms p95={p95:.3f} ms (n={repetitions})")
    bench_path = out_dir / "benchmark.csv"
    with bench_path.open("w", encoding="utf-8") as f:
        f.write("strategy,median_ms,p95_ms\n")
        for strategy, median, p95 in rows:
            f.write(f"{strategy},{median},{p95}\n")
    print(f"wrote {bench_path}")
    return 0


def cmd_sweep(settings: Settings) -> int:
    g = settings.load_graph()
    out_dir = settings.out_dir()
    epsilons = _parse_float_list(settings.require("epsilon"), "epsilon")
    mus = _parse_int_list(settings.require("mu"), "mu")
    sweep_path = out_dir / "sweep.csv"
    with sweep_path.open("w", encoding="utf-8") as f:
        f.write("epsilon,mu,num_communities,num_outliers,largest_community\n")
        for epsilon in epsilons:
            for mu in mus:
                assignment = scan_partition(g, ScanParams(epsilon=epsilon, mu=mu))
                largest = max((len(c) for c in assignment.communities), default=0)
                f.write(
                    f"{epsilon},{mu},{assignment.num_communities},"
                    f"{len(assignment.outliers)},{largest}\n"
                )
                print(
                    f"epsilon={epsilon} mu={mu}: "
                    f"{assignment.num_communities} communities, "
                    f"{len(assignment.outliers)} outliers"
                )
    print(f"wrote {sweep_path}")
    return 0


_COMMANDS = {
    "partition": cmd_partition,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
    "benchmark": cmd_benchmark,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spal",
        description="Structural-clustering PageRank active learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("partition", "cluster the graph and write communities.csv"),
        ("select", "run selection strategies and write one JSON per combination"),
        ("evaluate", "select, train, and report accuracy / macro-F1 per strategy"),
        ("benchmark", "time selection calls and write median/p95 per strategy"),
        ("sweep", "grid over epsilon/mu and report community counts"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--edges", help="edge list path (u v per line)")
        p.add_argument("--features", help="features CSV path (one row per node)")
        p.add_argument("--labels", help="labels path (one integer per line)")
        p.add_argument("--synthetic", help="e.g. sbm:4,400,0.1,0.01,1.5,7")
        p.add_argument("--epsilon", help="similarity threshold (sweep: comma list)")
        p.add_argument("--mu", help="min shared neighbors (sweep: comma list)")
        p.add_argument("--damping", help="PageRank damping factor (default 0.95)")
        p.add_argument("--tolerance", help="PageRank L1 convergence threshold")
        p.add_argument("--max-iterations", dest="max_iterations", help="PageRank iteration cap")
        p.add_argument("--budgets", help="comma-separated labeling budgets")
        p.add_argument("--seeds", help="comma-separated run seeds")
        p.add_argument("--strategy", help="comma-separated strategy names")
        p.add_argument("--epochs", help="GCN training epochs (default 200)")
        p.add_argument("--lr", help="GCN learning rate (default 1e-2)")
        p.add_argument("--weight-decay", dest="weight_decay", help="GCN weight decay")
        p.add_argument("--jobs", help="parallel workers for evaluate (default 1)")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--repetitions", help="benchmark repetitions (default 10)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve_settings(args)
        return _COMMANDS[args.command](settings)
    except (CliError, GraphLoadError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
