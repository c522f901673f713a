"""Tests of the benchmark itself: small-scale passes of each workload, and
each correctness check failing on a planted wrong answer.

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import dcsbm  # noqa: E402
import workloads  # noqa: E402
from spal.graph import from_edges  # noqa: E402
from spal.kmedoids import kmedoids  # noqa: E402
from spal.pagerank import pagerank, pagerank_blocks  # noqa: E402
from spal.scan import ScanParams, scan_partition  # noqa: E402
from spal.selection import spa_select  # noqa: E402

SMALL = dcsbm.DcsbmSpec(num_nodes=3000, num_edges=12000, blocks=4)


def graph_edges(g) -> np.ndarray:
    e = np.stack([np.repeat(np.arange(g.num_nodes), g.degrees), g.csr_targets], axis=1)
    return e[e[:, 0] < e[:, 1]]


@pytest.fixture(scope="module")
def small_draw():
    return dcsbm.sample_dcsbm(SMALL, seed=3)


@pytest.fixture(scope="module")
def small_graph(small_draw):
    return from_edges(small_draw.edges, small_draw.features, small_draw.labels)


# --- the sampler -------------------------------------------------------------

def test_sampler_is_reproducible_and_clean(small_draw):
    again = dcsbm.sample_dcsbm(SMALL, seed=3)
    np.testing.assert_array_equal(small_draw.edges, again.edges)
    np.testing.assert_array_equal(small_draw.features, again.features)
    e = small_draw.edges
    assert e.shape == (SMALL.num_edges, 2)
    assert (e[:, 0] < e[:, 1]).all()
    assert np.unique(e, axis=0).shape[0] == e.shape[0]
    other = dcsbm.sample_dcsbm(SMALL, seed=4).edges
    assert other.shape == e.shape and not np.array_equal(other, e)


def test_sampler_plants_blocks_and_heavy_tail(small_draw):
    e, labels = small_draw.edges, small_draw.labels
    intra = (labels[e[:, 0]] == labels[e[:, 1]]).mean()
    assert 0.8 < intra < 0.95  # mixing 0.1 minus redrawn pairs
    deg = np.bincount(e.ravel(), minlength=SMALL.num_nodes)
    assert deg.max() > 10 * np.median(deg)


def test_files_round_trip_through_load_graph(small_draw, tmp_path):
    from spal.graph import load_graph

    g = load_graph(*dcsbm.write_files(small_draw, tmp_path))
    assert g.num_edges == SMALL.num_edges and g.duplicates_dropped == 0
    np.testing.assert_array_equal(g.labels, small_draw.labels)
    np.testing.assert_allclose(g.features, small_draw.features, rtol=1e-8)


# --- checks pass on spal's answers and fail on planted wrong ones -------------

def test_scan_check_catches_a_moved_member(small_graph):
    params = ScanParams(0.3, 2)
    reference = checks.scan_reference(graph_edges(small_graph), small_graph.num_nodes,
                                      params.epsilon, params.mu)
    assignment = scan_partition(small_graph, params)
    assert checks.check_partition(assignment.community_of, reference) == []
    moved = assignment.community_of.copy()
    moved[assignment.communities[0][0]] = 1
    assert checks.check_partition(moved, reference)


def test_pagerank_check_catches_a_perturbed_score(small_graph):
    n, edges = small_graph.num_nodes, graph_edges(small_graph)
    sv = pagerank(small_graph)
    block_of = np.zeros(n, dtype=np.int64)
    assert checks.check_pagerank(edges, n, block_of, sv.scores, 0.95, 1e-8, "global") == []
    bad = sv.scores.copy()
    bad[0] += 1e-6
    bad /= bad.sum()
    assert checks.check_pagerank(edges, n, block_of, bad, 0.95, 1e-8, "global")


def test_block_pagerank_and_picks_checks(small_graph):
    n, edges = small_graph.num_nodes, graph_edges(small_graph)
    assignment = scan_partition(small_graph, ScanParams(0.3, 2))
    assert assignment.num_communities > 20
    block_scores = np.full(n, np.nan)
    for sv in pagerank_blocks(small_graph, assignment.communities):
        block_scores[sv.node_ids] = sv.scores
    assert checks.check_pagerank(edges, n, assignment.community_of, block_scores,
                                 0.95, 1e-8, "blocks") == []
    expected = checks.expected_spa_picks(
        assignment.community_of, block_scores, pagerank(small_graph).scores, 20)
    picks = spa_select(small_graph, ScanParams(0.3, 2), b=20).selected
    assert checks.check_spa_picks(picks, expected, 20) == []

    # a community member that is not its top-scored node
    first = picks[0]
    cid = assignment.community_of[first]
    other = next(int(v) for v in assignment.communities[cid] if v != first)
    assert checks.check_spa_picks([other] + picks[1:], expected, 20)


def test_kmedoids_check_catches_a_non_optimal_medoid():
    rng = np.random.default_rng(0)
    points = np.concatenate([rng.normal(c, 0.3, size=(40, 2)) for c in (0.0, 5.0, 10.0)])
    medoids = kmedoids(points, 3, seed=0)
    assert checks.check_kmedoids(points, medoids) == []
    bad = medoids.copy()
    bad[0] = int(np.argmax(np.linalg.norm(points - points[medoids[0]], axis=1)))
    assert checks.check_kmedoids(points, bad)


def test_confusion_scores_match_spal_metrics():
    from spal.metrics import accuracy, macro_f1

    rng = np.random.default_rng(1)
    labels, preds = rng.integers(0, 4, 300), rng.integers(0, 4, 300)
    idx = np.arange(50, 300)
    acc, f1 = checks.confusion_scores(preds, labels, idx, 4)
    assert acc == pytest.approx(accuracy(preds, labels, idx), abs=1e-12)
    assert f1 == pytest.approx(macro_f1(preds, labels, idx, 4), abs=1e-12)


def test_aggregate_and_ordering_checks_catch_wrong_rows():
    rows = [{"strategy": s, "budget": str(b), "seed": str(i), "accuracy": str(a),
             "macro_f1": str(a / 2), "query_time_ms": "1.0"}
            for s, base in (("spa", 0.8), ("random", 0.6), ("pagerank", 0.7))
            for b in (10, 20, 40)
            for i, a in enumerate((base, base + 0.02))]
    expected = checks.aggregate_rows(rows)
    written = [{"strategy": s, "budget": b, **v} for (s, b), v in expected.items()]
    assert checks.check_aggregates(expected, written, "t") == []
    written[0]["accuracy_mean"] += 1e-6
    assert checks.check_aggregates(expected, written, "t")
    acc = {k: v["accuracy_mean"] for k, v in expected.items()}
    assert checks.check_grid_ordering(acc, [10, 20, 40]) == []
    acc[("spa", 10)] = 0.65  # still beats random, loses to pagerank at 1 of 3
    assert checks.check_grid_ordering(acc, [10, 20, 40]) == []
    acc[("spa", 20)] = 0.65  # loses to pagerank at 2 of 3
    assert checks.check_grid_ordering(acc, [10, 20, 40])
    acc[("spa", 20)] = acc[("spa", 40)] = 0.9
    acc[("spa", 10)] = 0.5  # loses to random
    assert checks.check_grid_ordering(acc, [10, 20, 40])


# --- small-scale passes of every workload, untraced and traced ----------------

def run_workload(monkeypatch, capsys, name, workload, trace, extra=()):
    monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    out = HERE / ".cache" / f"test-{name}-{trace}"
    try:
        rc = workloads.main(["--workload", name, "--seconds", "0", "--trace", str(trace),
                             "--out", str(out), *extra])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ready" and lines[-2].startswith("record ")
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_small_grid_pass(monkeypatch, capsys, trace):
    small = workloads.GridWorkload(
        "sbm:4,120,0.15,0.02,2.0,7", ["spa", "random", "pagerank", "uncertainty"],
        [4, 8], [0, 1], epsilon=0.28, mu=2, probe_kernels=("interpreter",))
    result = run_workload(monkeypatch, capsys, "grid-sbm400", small, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (32 if trace else 16)
    if trace:
        m = result["metrics"]
        assert m["gcn.train_calls"]["value"] == 16
        assert m["scan.partition_calls"]["value"] == 4
        assert m["kmedoids.calls"]["value"] == 0
    else:
        assert set(result["metrics"]) == {"ops_per_s_norm", "op_ms_p50_norm", "peak_rss_mb"}


def test_small_featprop_pass(monkeypatch, capsys):
    small = workloads.GridWorkload("sbm:3,150,0.05,0.005,1.0,1", ["featprop"], [5], [0, 1],
                                   epsilon=0.5, mu=2,
                                   probe_kernels=("interpreter", "memory"))
    result = run_workload(monkeypatch, capsys, "featprop-sbm1k", small, 1)
    assert result["correct"]
    assert result["metrics"]["kmedoids.calls"]["value"] == 2


@pytest.mark.parametrize("trace", [0, 1])
def test_small_spa_pass(monkeypatch, capsys, tmp_path, small_draw, trace):
    paths = dcsbm.write_files(small_draw, tmp_path)
    small = workloads.SpaWorkload([5, 10], epsilon=0.3, mu=2)
    extra = ["--edges", str(paths[0]), "--features", str(paths[1]), "--labels", str(paths[2])]
    result = run_workload(monkeypatch, capsys, "spa-dcsbm100k", small, trace, extra)
    assert result["correct"] and result["failed"] == 0
    if trace:
        assert result["metrics"]["pagerank.global_calls"]["value"] == 2
        assert result["metrics"]["gcn.train_calls"]["value"] == 0


def test_spa_check_fails_when_picks_are_planted(monkeypatch, capsys, tmp_path, small_draw):
    paths = dcsbm.write_files(small_draw, tmp_path)
    small = workloads.SpaWorkload([5], epsilon=0.3, mu=2)
    real = workloads.SpaWorkload.run_round

    def planted(self, g, out, clock):
        rnd = real(self, g, out, clock)
        rnd.selections[0].selected[-1] = next(
            v for v in range(g.num_nodes) if v not in rnd.selections[0].selected)
        return rnd

    monkeypatch.setattr(workloads.SpaWorkload, "run_round", planted)
    extra = ["--edges", str(paths[0]), "--features", str(paths[1]), "--labels", str(paths[2])]
    result = run_workload(monkeypatch, capsys, "spa-dcsbm100k", small, 0, extra)
    assert result["correct"] is False


def test_op_ms_p50_averages_each_operation_over_rounds():
    rounds = [workloads.Round(op_seconds={"a": 0.010, "b": 0.020, "c": 0.040}),
              workloads.Round(op_seconds={"a": 0.030, "b": 0.020, "c": 0.100})]
    assert workloads.op_ms_p50(rounds) == pytest.approx(20.0)  # median of 20, 20, 70 ms


@pytest.mark.parametrize("kernels", [("interpreter",), ("interpreter", "memory")])
def test_probe_samples_inside_long_calls_and_its_clock_excludes_them(kernels):
    import hostprobe

    probe = hostprobe.HostProbe(kernels, interval_s=0.02)
    t, c = time.perf_counter(), probe.clock()
    probe.start()
    acc = 0
    for i in range(3_000_000):  # one long call, as a selection is
        acc += i & 1
    probe.stop()
    wall, clocked = time.perf_counter() - t, probe.clock() - c
    assert len(probe.samples_ms) > 3
    assert clocked == pytest.approx(wall - probe.spent_s, abs=1e-3)
    assert probe.spent_s == pytest.approx(sum(probe.samples_ms) / 1000.0)
    assert probe.factor() == pytest.approx(
        sum(probe.samples_ms) / len(probe.samples_ms) / probe.reference_ms)


FAKE_CHILD = """
import sys
print("ready", flush=True)
if "--setup-only" in sys.argv:
    sys.exit(0)
for _ in range(2):
    print("pause", flush=True)
    assert sys.stdin.readline() == "go\\n"
print("record {}")
print('{"correct": true}')
"""


def test_measure_times_a_setup_at_each_pause(tmp_path):
    import run

    child = tmp_path / "child.py"
    child.write_text(FAKE_CHILD)
    setup_s: list[float] = []
    lines = run.measure([sys.executable, str(child)], {}, setup_s)
    assert lines == ["record {}", '{"correct": true}']
    assert len(setup_s) == 3 and all(t > 0 for t in setup_s)


def test_run_refuses_without_sources(tmp_path):
    copy = tmp_path / "benchmarks"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "grid-sbm400", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
