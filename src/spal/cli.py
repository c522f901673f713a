"""Command-line entry point: partition, select, evaluate, benchmark, and
sweep subcommands over plain-text graph exports or synthetic fixtures.

Each subcommand takes only the flags it reads. A plain-text config file
(``key=value`` per line, ``#`` comments) can seed any of them; explicit
command-line flags win, and keys that only other subcommands read are
ignored.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .experiment import (
    EvalReport,
    RunRecord,
    aggregate_runs,
    check_plan,
    iter_runs,
    run_strategy,
    write_aggregates_csv,
)
from .gcn import TrainConfig
from .graph import AttributedGraph, GraphLoadError, load_graph
from .output import write_records_csv
from .pagerank import PageRankParams
from .scan import ScanParams, scan_partition, scan_sweep, write_communities_csv
from .synthetic import parse_synthetic_spec

# Every settings flag once, with its help text. A flag that sets a field of
# ScanParams, PageRankParams or TrainConfig takes its default from the class.
_FLAGS = {
    "edges": "edge list path (u v per line)",
    "features": "features CSV path (one row per node)",
    "labels": "labels path (one integer per line)",
    "synthetic": "e.g. sbm:4,400,0.1,0.01,1.5,7",
    "epsilon": f"similarity threshold (default {ScanParams.epsilon}; sweep: comma list)",
    "mu": f"min shared neighbors (default {ScanParams.mu}; sweep: comma list)",
    "out": "output directory",
    "damping": f"PageRank damping factor (default {PageRankParams.damping})",
    "tolerance": f"PageRank L1 convergence threshold (default {PageRankParams.tolerance})",
    "max_iterations": f"PageRank iteration cap (default {PageRankParams.max_iterations})",
    "strategy": "comma-separated strategy names",
    "budgets": "comma-separated labeling budgets",
    "seeds": "comma-separated run seeds",
    "repetitions": "timed calls per strategy, seeded 0, 1, ...",
    "epochs": f"GCN training epochs (default {TrainConfig.epochs})",
    "lr": f"GCN learning rate (default {TrainConfig.learning_rate})",
    "weight_decay": f"GCN weight decay (default {TrainConfig.weight_decay})",
    "jobs": "parallel worker processes",
}
_FLAG_OF = {"learning_rate": "lr"}  # the one field whose flag has another name

# the CLI's own defaults; every other flag is unset unless given
_DEFAULTS = {
    "budgets": "20",
    "seeds": "0",
    "strategy": "spa",
    "jobs": "1",
    "out": ".",
    "repetitions": "10",
}


class CliError(ValueError):
    pass


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _parse_list(text: str, key: str, kind: type = float) -> list:
    """The comma-separated values of flag ``key``, each parsed by ``kind``;
    empty tokens are skipped, but at least one value must remain."""
    try:
        values = [kind(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise CliError(f"{_flag(key)} expects comma-separated {noun}, got {text!r}") from None
    if not values:
        raise CliError(f"{_flag(key)} expects at least one value, got {text!r}")
    return values


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
    """The subcommand's flag values resolved from its defaults, the config
    file and the command line; a flag that was not given is absent."""

    raw: dict[str, str]

    def scalar_float(self, key: str) -> float:
        values = _parse_list(self.raw[key], key)
        if len(values) != 1:
            raise CliError(f"{_flag(key)} expects a single value here, got {len(values)}")
        return values[0]

    def scalar_int(self, key: str) -> int:
        value = self.scalar_float(key)
        if not value.is_integer():  # also false for inf and nan
            raise CliError(f"{_flag(key)} expects an integer, got {value}")
        return int(value)

    def params(self, cls):
        """A ScanParams, PageRankParams or TrainConfig from the flags given
        for its fields; every other field keeps its class default, and each
        flag parses as the type of its field's default."""
        given = {}
        for fld in fields(cls):
            key = _FLAG_OF.get(fld.name, fld.name)
            if key in self.raw:
                is_int = isinstance(fld.default, int)
                given[fld.name] = self.scalar_int(key) if is_int else self.scalar_float(key)
        return cls(**given)

    def strategies(self) -> list[str]:
        return _parse_list(self.raw["strategy"], "strategy", str)

    def ints(self, key: str) -> list[int]:
        return _parse_list(self.raw[key], key, int)

    def out_dir(self) -> Path:
        out = Path(self.raw["out"])
        out.mkdir(parents=True, exist_ok=True)
        return out

    def load_graph(self) -> AttributedGraph:
        synthetic = self.raw.get("synthetic")
        if synthetic:
            return parse_synthetic_spec(synthetic)
        for key in ("edges", "features", "labels"):
            if not self.raw.get(key):
                raise CliError(
                    "graph input missing: pass --edges/--features/--labels or --synthetic"
                )
        return load_graph(self.raw["edges"], self.raw["features"], self.raw["labels"])


def _stream_csv(path: Path, cls, records: Iterator, noun: str) -> list:
    """Write each record to ``path`` as it is drawn, and return them all. If
    drawing one raises, the rows before it stay on disk and a CliError says
    how many there are and where; if the file cannot be opened, it says so."""
    done: list = []
    opened = False

    def collect() -> Iterator:
        nonlocal opened
        opened = True  # first drawn after the file is open and its header written
        for record in records:
            done.append(record)
            yield record

    try:
        write_records_csv(path, cls, collect())
    except Exception as e:
        if not opened:
            raise CliError(f"cannot write {path}: {e}") from e
        raise CliError(f"aborted after {len(done)} {noun} (partial results in {path}): {e}") from e
    return done


def _resolve_settings(args: argparse.Namespace) -> Settings:
    """Each of the subcommand's flags from the command line, else the config
    file, else the CLI default. Config keys of other subcommands are ignored."""
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = set(file_values) - set(_FLAGS)
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
    given = {key: value for key, value in vars(args).items() if value is not None}
    merged = {**_DEFAULTS, **file_values, **given}
    return Settings({key: merged[key] for key in _COMMANDS[args.command][2] if key in merged})


def cmd_partition(settings: Settings) -> int:
    g = settings.load_graph()
    assignment = scan_partition(g, settings.params(ScanParams))
    out = settings.out_dir() / "communities.csv"
    write_communities_csv(assignment, out)
    counts = np.bincount(assignment.sizes)
    histogram = " ".join(f"{size}x{counts[size]}" for size in np.flatnonzero(counts))
    print(f"communities: {assignment.num_communities}")
    print(f"outliers: {len(assignment.outliers)}")
    print(f"size histogram: {histogram or '-'}")
    print(f"wrote {out}")
    return 0


def cmd_select(settings: Settings) -> int:
    g = settings.load_graph()
    scan_params = settings.params(ScanParams)
    pr_params = settings.params(PageRankParams)
    plan = check_plan(g, settings.strategies(), settings.ints("budgets"), settings.ints("seeds"))
    out_dir = settings.out_dir()
    for strategy, budget, seed in plan:
        result = run_strategy(strategy, g, budget, seed, scan_params, pr_params)
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
        g, settings.strategies(), settings.ints("budgets"), settings.ints("seeds"),
        settings.params(TrainConfig), settings.params(ScanParams), settings.params(PageRankParams),
        jobs=settings.scalar_int("jobs"),
    )
    out_dir = settings.out_dir()
    runs_path = out_dir / "runs.csv"
    runs = _stream_csv(runs_path, RunRecord, records, "runs")
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


@dataclass
class StrategyTiming:
    """One row of ``benchmark.csv``."""

    strategy: str
    median_ms: float
    p95_ms: float


def cmd_benchmark(settings: Settings) -> int:
    g = settings.load_graph()
    budget = settings.scalar_int("budgets")
    repetitions = settings.scalar_int("repetitions")
    if repetitions < 1:
        raise CliError("--repetitions must be >= 1")
    scan_params = settings.params(ScanParams)
    pr_params = settings.params(PageRankParams)
    strategies = settings.strategies()
    check_plan(g, strategies, [budget], [0])  # the seeds 0..R-1 are valid by construction
    bench_path = settings.out_dir() / "benchmark.csv"

    def timings() -> Iterator[StrategyTiming]:
        for strategy in strategies:
            times = [
                run_strategy(strategy, g, budget, rep, scan_params, pr_params).query_time_ms
                for rep in range(repetitions)
            ]
            row = StrategyTiming(strategy, float(np.median(times)), float(np.percentile(times, 95)))
            print(f"{strategy}: median={row.median_ms:.3f} ms p95={row.p95_ms:.3f} ms "
                  f"(n={repetitions})")
            yield row

    _stream_csv(bench_path, StrategyTiming, timings(), "strategies")
    print(f"wrote {bench_path}")
    return 0


@dataclass
class SweepPoint:
    """One row of ``sweep.csv``."""

    epsilon: float
    mu: int
    num_communities: int
    num_outliers: int
    largest_community: int


def cmd_sweep(settings: Settings) -> int:
    g = settings.load_graph()
    raw = settings.raw
    epsilons = _parse_list(raw.get("epsilon", str(ScanParams.epsilon)), "epsilon")
    mus = _parse_list(raw.get("mu", str(ScanParams.mu)), "mu", int)
    # every grid point is checked before sweep.csv is opened
    grid = [ScanParams(epsilon=epsilon, mu=mu) for epsilon in epsilons for mu in mus]
    sweep_path = settings.out_dir() / "sweep.csv"

    def points() -> Iterator[SweepPoint]:
        for params, assignment in zip(grid, scan_sweep(g, grid)):
            sizes = assignment.sizes
            point = SweepPoint(params.epsilon, params.mu, sizes.size,
                               g.num_nodes - int(sizes.sum()), int(sizes.max(initial=0)))
            print(f"epsilon={point.epsilon} mu={point.mu}: {point.num_communities} "
                  f"communities, {point.num_outliers} outliers")
            yield point

    _stream_csv(sweep_path, SweepPoint, points(), "grid points")
    print(f"wrote {sweep_path}")
    return 0


_SCAN_KEYS = ("edges", "features", "labels", "synthetic", "epsilon", "mu", "out")
_SELECT_KEYS = (*_SCAN_KEYS, "damping", "tolerance", "max_iterations", "strategy", "budgets")

# subcommand -> (handler, help, the settings flags it reads); each also takes --config
_COMMANDS = {
    "partition": (cmd_partition, "cluster the graph and write communities.csv", _SCAN_KEYS),
    "select": (cmd_select, "run selection strategies and write one JSON per combination",
               (*_SELECT_KEYS, "seeds")),
    "evaluate": (cmd_evaluate, "select, train, and report accuracy / macro-F1 per strategy",
                 tuple(key for key in _FLAGS if key != "repetitions")),
    "benchmark": (cmd_benchmark, "time selection calls and write median/p95 per strategy",
                  (*_SELECT_KEYS, "repetitions")),
    "sweep": (cmd_sweep, "grid over epsilon/mu and report community counts", _SCAN_KEYS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spal",
        description="Structural-clustering PageRank active learning toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file; explicit flags override it")
        for key in keys:
            default = f" (default {_DEFAULTS[key]})" if key in _DEFAULTS else ""
            p.add_argument(_flag(key), dest=key, help=_FLAGS[key] + default)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve_settings(args)
        return _COMMANDS[args.command][0](settings)
    except (CliError, GraphLoadError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
