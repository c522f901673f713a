"""One benchmark workload in one fresh process: set up, measure, check.

``run.py`` starts this script; it is not meant to be run by hand, but can
be, with the same arguments ``run.py`` passes. The process prints ``ready``
as soon as its input graph is in memory (the parent times set-up from its
own clock), then, unless ``--setup-only``, runs whole rounds of the
workload's fixed operations until the rounds have taken ``--seconds`` (at
least one round), reads its peak RSS, runs the correctness checks and prints
one ``record`` line and one result line of JSON. Between two rounds it
prints ``pause`` and waits for a line on stdin, so that ``run.py`` can time
a set-up in a fresh process while nothing else runs; a closed stdin does
not wait.

Untraced rounds run under the workload's host-speed probe
(``hostprobe.py``): operations are timed without the probe's samples, and
the time metrics are reported at the probe's reference speed.

With ``--trace 1`` the process runs one untraced round and then one traced
round, without the probe; it reports the per-layer metrics of the traced
round and the difference between the two rounds' wall times as the tracing
overhead.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from hostprobe import HostProbe  # noqa: E402  (stdlib only, so `import spal` is timed cold)
from tracing import Tracer  # noqa: E402


@dataclass
class Round:
    op_seconds: dict = field(default_factory=dict)  # operation key -> s, completed ops only
    attempted: int = 0
    wall_s: float = 0.0  # probe samples excluded
    runs: list = field(default_factory=list)  # RunRecords (grid workloads)
    selections: list = field(default_factory=list)  # SelectionResults (dcsbm)


class GridWorkload:
    """``spal evaluate`` over one synthetic graph: iter_runs, then the
    aggregate and the three result files, as the CLI writes them."""

    reads_captures = True  # the checks read each run's selection and predictions

    def __init__(self, spec, strategies, budgets, seeds, epsilon, mu, probe_kernels):
        self.spec = spec
        self.probe_kernels = probe_kernels
        self.strategies, self.budgets, self.seeds = strategies, budgets, seeds
        self.epsilon, self.mu = epsilon, mu

    def setup(self, args):
        from spal import synthetic

        return synthetic.parse_synthetic_spec(self.spec)

    def run_round(self, g, out: Path, clock=time.perf_counter) -> Round:
        from spal import experiment
        from spal.gcn import TrainConfig
        from spal.pagerank import PageRankParams
        from spal.scan import ScanParams

        rnd = Round(attempted=len(self.strategies) * len(self.budgets) * len(self.seeds))
        t0 = last = clock()
        try:
            for record in experiment.iter_runs(
                g, self.strategies, self.budgets, self.seeds, TrainConfig(),
                ScanParams(self.epsilon, self.mu), PageRankParams(), jobs=1,
            ):
                now = clock()
                rnd.op_seconds[(record.strategy, record.budget, record.seed)] = now - last
                rnd.runs.append(record)
                last = now
        except Exception as e:  # the rest of the round's runs are lost
            print(f"run {len(rnd.runs)} of the round failed: {e!r}", file=sys.stderr)
        aggregates = experiment.aggregate_runs(rnd.runs)
        experiment.write_runs_csv(rnd.runs, out / "runs.csv")
        experiment.write_aggregates_csv(aggregates, out / "aggregates.csv")
        experiment.EvalReport(runs=rnd.runs, aggregates=aggregates).write_json(out / "report.json")
        rnd.wall_s = clock() - t0
        return rnd

    def quality(self, rounds: list[Round]) -> dict[str, float]:
        runs = rounds[-1].runs
        return {"accuracy_mean": statistics.fmean(r.accuracy for r in runs),
                "macro_f1_mean": statistics.fmean(r.macro_f1 for r in runs)}

    def check(self, g, rounds: list[Round], out: Path, captured: Tracer, args) -> list[str]:
        import checks

        failures = []
        key = [(r.strategy, r.budget, r.seed, r.accuracy, r.macro_f1) for r in rounds[0].runs]
        for rnd in rounds[1:]:
            if [(r.strategy, r.budget, r.seed, r.accuracy, r.macro_f1) for r in rnd.runs] != key:
                failures.append("runs differ between rounds of identical work")
        with (out / "runs.csv").open(newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != len(rounds[-1].runs):
            failures.append(f"runs.csv has {len(rows)} rows for {len(rounds[-1].runs)} runs")
        expected = checks.aggregate_rows(rows)
        with (out / "aggregates.csv").open(newline="") as f:
            failures += checks.check_aggregates(expected, list(csv.DictReader(f)), "aggregates.csv")
        report = json.loads((out / "report.json").read_text())
        failures += checks.check_aggregates(expected, report["aggregates"], "report.json")
        if {"spa", "random", "pagerank"} <= set(self.strategies):
            acc = {k: v["accuracy_mean"] for k, v in expected.items()}
            failures += checks.check_grid_ordering(acc, self.budgets)
        failures += self.check_selections(g, rounds[-1], captured)
        return failures

    def check_selections(self, g, rnd: Round, captured: Tracer) -> list[str]:
        """Metrics recomputed from a confusion matrix over predict's output,
        and (for featprop) k-medoids local optimality of every selection."""
        import numpy as np

        import checks

        failures = []
        selections = captured.results("selection")
        predictions = captured.results("gcn.predict")
        if len(selections) != len(rnd.runs) or len(predictions) != len(rnd.runs):
            return [f"captured {len(selections)} selections and {len(predictions)} "
                    f"predictions for {len(rnd.runs)} runs"]
        n = g.num_nodes
        edges = np.stack([np.repeat(np.arange(n), g.degrees), g.csr_targets], axis=1)
        edges = edges[edges[:, 0] < edges[:, 1]]
        Z = None
        for run, sel, pred in zip(rnd.runs, selections, predictions):
            eval_idx = np.setdiff1d(np.arange(n), np.asarray(sel.selected))
            acc, f1 = checks.confusion_scores(np.asarray(pred), g.labels, eval_idx, g.num_classes)
            if abs(acc - run.accuracy) > 1e-12 or abs(f1 - run.macro_f1) > 1e-12:
                failures.append(f"{run.strategy} b={run.budget} s={run.seed}: reported "
                                f"({run.accuracy}, {run.macro_f1}), confusion matrix "
                                f"gives ({acc}, {f1})")
            if run.strategy == "featprop":
                if Z is None:
                    A_hat = checks.normalized_adjacency(edges, n)
                    Z = A_hat @ (A_hat @ np.asarray(g.features))
                failures += [f"featprop s={run.seed}: {msg}"
                             for msg in checks.check_kmedoids(Z, np.asarray(sel.selected))]
        return failures


class SpaWorkload:
    """``spal select --strategy spa`` on the plain-text exports of a large
    degree-corrected planted partition, one JSON file per budget."""

    reads_captures = False  # the checks recompute the scores instead
    probe_kernels = ("interpreter",)  # SCAN's per-node loop is most of each selection

    def __init__(self, budgets, epsilon, mu):
        self.budgets, self.epsilon, self.mu = budgets, epsilon, mu

    def setup(self, args):
        from spal import graph

        return graph.load_graph(args.edges, args.features, args.labels)

    def run_round(self, g, out: Path, clock=time.perf_counter) -> Round:
        from spal import experiment
        from spal.pagerank import PageRankParams
        from spal.scan import ScanParams

        rnd = Round(attempted=len(self.budgets))
        t0 = clock()
        for b in self.budgets:
            t = clock()
            try:
                result = experiment.run_strategy(
                    "spa", g, b, 0, ScanParams(self.epsilon, self.mu), PageRankParams())
            except Exception as e:
                print(f"spa b={b} failed: {e!r}", file=sys.stderr)
                continue
            rnd.op_seconds[b] = clock() - t
            result.write_json(out / f"select_spa_b{b}_s0.json")
            rnd.selections.append(result)
        rnd.wall_s = clock() - t0
        return rnd

    def quality(self, rounds: list[Round]) -> dict[str, float]:
        return {}  # no training: one GCN fit takes ~20 s at this scale

    def check(self, g, rounds: list[Round], out: Path, captured: Tracer, args) -> list[str]:
        import numpy as np

        import checks
        from spal.pagerank import PageRankParams, pagerank, pagerank_blocks
        from spal.scan import ScanParams, scan_partition

        failures = []
        n = g.num_nodes
        edges = np.loadtxt(args.edges, dtype=np.int64, ndmin=2)
        assignment = scan_partition(g, ScanParams(self.epsilon, self.mu))
        reference = checks.scan_reference(edges, n, self.epsilon, self.mu)
        failures += checks.check_partition(assignment.community_of, reference)
        if assignment.num_communities <= max(self.budgets):
            failures.append(f"{assignment.num_communities} communities do not outnumber "
                            f"the largest budget {max(self.budgets)}")

        params = PageRankParams()
        block_scores = np.full(n, np.nan)
        for sv in pagerank_blocks(g, assignment.communities, params):
            block_scores[sv.node_ids] = sv.scores
        failures += checks.check_pagerank(edges, n, assignment.community_of, block_scores,
                                          params.damping, params.tolerance, "block PageRank")
        global_sv = pagerank(g, params=params)
        failures += checks.check_pagerank(edges, n, np.zeros(n, dtype=np.int64),
                                          global_sv.scores, params.damping,
                                          params.tolerance, "global PageRank")

        for rnd in rounds:
            if [len(s.selected) for s in rnd.selections] != self.budgets:
                failures.append("a round's selections do not match its budgets")
        for b, result in zip(self.budgets, rounds[-1].selections):
            expected = checks.expected_spa_picks(
                assignment.community_of, block_scores, global_sv.scores, b)
            failures += checks.check_spa_picks(result.selected, expected, b)
            written = json.loads((out / f"select_spa_b{b}_s0.json").read_text())
            if written["selected"] != expected:
                failures.append(f"b={b}: the written selection JSON differs from the picks")
        return failures


WORKLOADS = {
    # README's evaluate grid (acceptance criterion 6) with the uncertainty baseline;
    # small-matrix GCN training is bound by the interpreter
    "grid-sbm400": GridWorkload(
        "sbm:4,400,0.1,0.01,1.0,7", ["spa", "random", "pagerank", "uncertainty"],
        [10, 20, 40], list(range(10)), epsilon=0.28, mu=2, probe_kernels=("interpreter",)),
    # thresholds from `spal sweep` on the 1e5-node draws: ~14k communities
    "spa-dcsbm100k": SpaWorkload([100, 1000], epsilon=0.3, mu=2),
    # citation-scale degree (~1.3k edges); k-medoids' swap search, a Python
    # loop of numpy calls on dense 1000 x 1000 matrices, dominates each run
    "featprop-sbm1k": GridWorkload(
        "sbm:6,1000,0.01,0.0013,1.0,42", ["featprop"], [20], list(range(8)),
        epsilon=0.5, mu=2, probe_kernels=("interpreter", "memory")),
}


def reference_loop_ms() -> float:
    """Time of a fixed pure-Python loop that calls no spal code; recorded
    beside each run so that host drift shows in the record."""
    t = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i & 7
    return (time.perf_counter() - t) * 1000.0


def op_ms_p50(rounds: list[Round]) -> float:
    """Median over the round's operations of each one's mean time across
    rounds. Averaging an operation over rounds spread through the run keeps
    the median from landing wholly in one of the host's speed states."""
    per_op: dict = {}
    for rnd in rounds:
        for key, seconds in rnd.op_seconds.items():
            per_op.setdefault(key, []).append(seconds)
    return statistics.median(statistics.fmean(v) for v in per_op.values()) * 1000.0


def per_layer(setup: dict, rnd: dict, tracer: Tracer, import_ms: float, overhead_ms: float):
    from spal.gcn import TrainConfig

    epochs = TrainConfig().epochs  # the config every run here trains with

    def get(name, key="ms"):
        return rnd.get(name, {}).get(key, 0)

    blocks = [sv for res in tracer.results("pagerank.blocks") for sv in res]
    globals_ = tracer.results("pagerank.global")
    train_calls = get("gcn.train", "calls")
    values = {
        "spal.import_ms": (import_ms, "ms"),
        "synthetic.sbm_graph_ms": (setup.get("synthetic.sbm_graph", {}).get("ms", 0.0), "ms"),
        "graph.load_graph_ms": (setup.get("graph.load_graph", {}).get("ms", 0.0), "ms"),
        "graph.from_edges_ms": (setup.get("graph.from_edges", {}).get("ms", 0.0), "ms"),
        "graph.adjacency_builds": (get("graph.adjacency_build", "calls"), "count"),
        "graph.adjacency_build_ms": (get("graph.adjacency_build"), "ms"),
        "graph.adjacency_applies": (get("graph.adjacency_apply", "calls"), "count"),
        "graph.adjacency_apply_ms": (get("graph.adjacency_apply"), "ms"),
        "graph.propagate_ms": (get("graph.propagate"), "ms"),
        "scan.partition_calls": (get("scan.partition", "calls"), "count"),
        "scan.partition_ms": (get("scan.partition"), "ms"),
        "pagerank.blocks_calls": (get("pagerank.blocks", "calls"), "count"),
        "pagerank.blocks_ms": (get("pagerank.blocks"), "ms"),
        "pagerank.block_iterations_max":
            (max((sv.iterations_used for sv in blocks), default=0), "count"),
        "pagerank.global_calls": (get("pagerank.global", "calls"), "count"),
        "pagerank.global_ms": (get("pagerank.global"), "ms"),
        "pagerank.global_iterations":
            (max((sv.iterations_used for sv in globals_), default=0), "count"),
        "selection.spa_self_ms": (get("selection.spa", "self_ms"), "ms"),
        "selection.pagerank_ms": (get("selection.pagerank"), "ms"),
        "selection.random_ms": (get("selection.random"), "ms"),
        "selection.uncertainty_ms": (get("selection.uncertainty"), "ms"),
        "selection.featprop_self_ms": (get("selection.featprop", "self_ms"), "ms"),
        "kmedoids.calls": (get("kmedoids.kmedoids", "calls"), "count"),
        "kmedoids.ms": (get("kmedoids.kmedoids"), "ms"),
        "gcn.train_calls": (train_calls, "count"),
        "gcn.train_ms": (get("gcn.train"), "ms"),
        "gcn.epoch_ms": (get("gcn.train") / (train_calls * epochs) if train_calls else 0.0, "ms"),
        "gcn.predict_ms": (get("gcn.predict"), "ms"),
        "gcn.forward_ms": (get("gcn.forward"), "ms"),
        "metrics.ms": (get("metrics.accuracy") + get("metrics.macro_f1"), "ms"),
        "experiment.run_self_ms": (get("experiment.run", "self_ms"), "ms"),
        "experiment.report_ms": (get("experiment.report"), "ms"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--edges")
    parser.add_argument("--features")
    parser.add_argument("--labels")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import spal

    import_ms = (time.perf_counter() - t) * 1000.0
    if Path(spal.__file__).resolve().parent != SRC / "spal":
        raise SystemExit(f"imported spal from {spal.__file__}, not from {SRC}")
    tracer = Tracer()
    if args.trace:
        tracer.install()
    g = workload.setup(args)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    setup_summary = tracer.summary()
    tracer.uninstall()
    tracer.clear()

    args.out.mkdir(parents=True, exist_ok=True)
    drift_before = reference_loop_ms()
    rounds: list[Round] = []
    if args.trace:
        rounds.append(workload.run_round(g, args.out))
        tracer.install()
        rounds.append(workload.run_round(g, args.out))
        tracer.uninstall()
    else:
        probe = HostProbe(workload.probe_kernels)
        if workload.reads_captures:
            tracer.install(capture_only=True)
        while not rounds or sum(r.wall_s for r in rounds) < args.seconds:
            if rounds:
                print("pause", flush=True)
                sys.stdin.readline()
            tracer.clear()  # the checks read the last round's captures
            probe.start()
            rounds.append(workload.run_round(g, args.out, probe.clock))
            probe.stop()
        tracer.uninstall()
    drift_after = reference_loop_ms()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.attempted for r in rounds)
    completed = sum(len(r.op_seconds) for r in rounds)
    failures = workload.check(g, rounds, args.out, tracer, args)
    if args.trace:
        overhead_ms = (rounds[1].wall_s - rounds[0].wall_s) * 1000.0
        metrics = per_layer(setup_summary, tracer.summary(), tracer, import_ms, overhead_ms)
    else:
        ops_per_s = completed / sum(r.wall_s for r in rounds)
        op_ms = op_ms_p50(rounds)
        host_factor = probe.factor()
        metrics = {
            "ops_per_s_norm": {"value": ops_per_s * host_factor, "unit": "1/s"},
            "op_ms_p50_norm": {"value": op_ms / host_factor, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        **({} if args.trace else {
            "ops_per_s": ops_per_s, "op_ms_p50": op_ms, "host_factor": host_factor,
            "probe_kernels": workload.probe_kernels, "probe_samples": len(probe.samples_ms),
            "probe_ms_mean": statistics.fmean(probe.samples_ms)}),
        "reference_loop_ms": [drift_before, drift_after],
        "import_ms": import_ms,
        "checks_failed": len(failures),
        **workload.quality(rounds),
    }
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - completed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
