"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 8 needs a user-supplied Citeseer plain-text export; point
CITESEER_DIR at a directory containing edges.txt, features.csv, and
labels.txt to enable it.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spal
from spal.cli import main
from spal.gcn import TrainConfig, init_model, objective
from spal.pagerank import PageRankParams, pagerank
from spal.scan import ScanParams, scan_partition
from spal.selection import (
    featprop_select,
    pagerank_select,
    random_select,
    spa_select,
    uncertainty_select,
)
from spal.synthetic import sbm_graph

from conftest import make_graph, random_graph
from oracles import (
    block_power_reference,
    confusion_metrics,
    finite_difference_grads,
    pagerank_dense_solve,
    scan_brute_force,
)


def report(criterion: str, ok: bool) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_scan_oracle_equivalence():
    """100 random graphs x random thresholds match the brute-force partition."""
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(4, 51))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)))
        eps = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
        mu = int(rng.choice([1, 2, 3]))
        part = scan_partition(g, ScanParams(eps, mu))
        got = (
            {frozenset(c.tolist()) for c in part.communities},
            frozenset(part.outliers.tolist()),
        )
        assert got == scan_brute_force(g, eps, mu), (n, eps, mu)
    elapsed = time.perf_counter() - t0
    report(f"criterion 1 (SCAN oracle equivalence, {elapsed:.1f}s)", elapsed < 10.0)


def test_criterion_2_pagerank_oracle_equivalence():
    """50 random graphs within 1e-8 L1 of the dense fixed point; cycles uniform."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    # stopping is on the L1 step size; a 1e-10 step bounds the remaining
    # distance to the fixed point by ~d/(1-d) * 1e-10 << 1e-8
    params = PageRankParams(tolerance=1e-10)
    for _ in range(50):
        n = int(rng.integers(3, 101))
        g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
        sv = pagerank(g, params=params)
        _, expected = pagerank_dense_solve(g, 0.95)
        assert np.abs(sv.scores - expected).sum() < 1e-8
        assert abs(sv.scores.sum() - 1.0) < 1e-9
    for n in (4, 11, 50):
        cycle = make_graph([(i, (i + 1) % n) for i in range(n)])
        sv = pagerank(cycle)
        assert np.abs(sv.scores - 1.0 / n).max() < 1e-9
    elapsed = time.perf_counter() - t0
    report(f"criterion 2 (PageRank oracle equivalence, {elapsed:.1f}s)", elapsed < 10.0)


def test_criterion_3_selection_contracts():
    """Size, uniqueness, determinism for every strategy at every budget, and
    exhaustive representative maximality for the structural strategy."""
    rng = np.random.default_rng(102)
    fixtures = [
        make_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]),
        make_graph([(0, i) for i in range(1, 6)]),
        random_graph(rng, 12, 0.3),
        random_graph(rng, 30, 0.15),
    ]
    scan_params = ScanParams(0.4, 2)
    for g in fixtures:
        n = g.num_nodes
        for b in range(1, n + 1):
            calls = {
                "spa": lambda b=b: spa_select(g, scan_params, b=b),
                "random": lambda b=b: random_select(g, b, seed=5),
                "pagerank": lambda b=b: pagerank_select(g, b=b),
                "uncertainty": lambda b=b: uncertainty_select(g, b, 5),
                "featprop": lambda b=b: featprop_select(g, b=b, seed=5),
            }
            for name, call in calls.items():
                first, second = call(), call()
                assert len(first.selected) == min(b, n), (name, b)
                assert len(set(first.selected)) == len(first.selected), (name, b)
                assert first.selected == second.selected, (name, b)

        # exhaustive maximality: no same-community node outranks its rep
        res = spa_select(g, scan_params, b=n)
        part = scan_partition(g, scan_params)
        rep_of = {c: v for v, c in zip(res.selected, res.communities) if c >= 0}
        for cid, community in enumerate(part.communities):
            scores, _, _ = block_power_reference(g, [community], PageRankParams())
            rep_score = scores[np.searchsorted(community, rep_of[cid])]
            assert not (scores > rep_score).any(), cid
    report("criterion 3 (selection contracts)", True)


def test_criterion_4_gcn_gradient_check():
    """Analytic gradients within 1e-4 relative error of central differences."""
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    for trial in range(5):
        n = int(rng.integers(6, 11))
        num_classes = int(rng.choice([2, 3]))
        g_base = random_graph(rng, n, 0.4)
        edges = [(u, int(v)) for u in range(n) for v in g_base.neighbors(u) if v > u]
        labels = rng.integers(0, num_classes, size=n)
        labels[:num_classes] = np.arange(num_classes)
        g = make_graph(edges, num_nodes=n,
                       features=rng.standard_normal((n, 4)), labels=labels)
        model = init_model(4, num_classes, seed=trial)
        labeled = set(range(0, n, 2))
        wd = 5e-4
        _, gW0, gW1 = objective(model, g, labeled, weight_decay=wd)
        fd0, fd1 = finite_difference_grads(
            lambda m: objective(m, g, labeled, weight_decay=wd)[0],
            model, step=1e-5,
        )
        for analytic, numeric in ((gW0, fd0), (gW1, fd1)):
            rel = np.abs(analytic - numeric) / np.maximum(
                1e-6, np.maximum(np.abs(analytic), np.abs(numeric))
            )
            assert rel.max() < 1e-4, trial
    elapsed = time.perf_counter() - t0
    report(f"criterion 4 (GCN gradient check, {elapsed:.1f}s)", elapsed < 30.0)


def test_criterion_5_metric_correctness():
    """accuracy and macro-F1 match confusion-matrix arithmetic exactly."""
    rng = np.random.default_rng(104)
    for _ in range(20):
        num_classes = int(rng.integers(2, 7))
        size = int(rng.integers(2, 50))
        preds = rng.integers(0, num_classes, size=size)
        labels = rng.integers(0, num_classes, size=size)
        expected_acc, expected_f1 = confusion_metrics(preds, labels, num_classes)
        assert abs(spal.accuracy(preds, labels, range(size)) - expected_acc) <= 1e-12
        assert abs(
            spal.macro_f1(preds, labels, range(size), num_classes) - expected_f1
        ) <= 1e-12
    report("criterion 5 (metric correctness)", True)


def test_criterion_6_end_to_end_ordering():
    """On a 4-block SBM, the structural strategy beats random at every budget
    and global PageRank at 2 of 3 budgets (mean accuracy over 10 seeds)."""
    t0 = time.perf_counter()
    g = sbm_graph(4, 400, 0.1, 0.01, feature_snr=1.0, seed=7)

    full_model = spal.train(g, np.arange(400), seed=0)
    full_acc = spal.accuracy(spal.predict(full_model, g), g.labels, np.arange(400))
    assert full_acc >= 0.9, f"fixture too hard: full-label accuracy {full_acc:.3f}"

    budgets = [10, 20, 40]
    result = spal.run_experiment(
        g, ["spa", "random", "pagerank"], budgets, list(range(10)),
        TrainConfig(), ScanParams(0.28, 2), PageRankParams(),
    )
    acc = {(a.strategy, a.budget): a.accuracy_mean for a in result.aggregates}
    spa_vs_random = [acc[("spa", b)] >= acc[("random", b)] for b in budgets]
    spa_vs_pagerank = [acc[("spa", b)] >= acc[("pagerank", b)] for b in budgets]
    elapsed = time.perf_counter() - t0
    for b in budgets:
        print(
            f"  b={b}: spa={acc[('spa', b)]:.4f} random={acc[('random', b)]:.4f} "
            f"pagerank={acc[('pagerank', b)]:.4f}"
        )
    ok = all(spa_vs_random) and sum(spa_vs_pagerank) >= 2 and elapsed < 300.0
    report(f"criterion 6 (end-to-end ordering, {elapsed:.0f}s)", ok)


CITESEER_SCALE = "sbm:6,3327,0.003,0.0004,1.0,42"       # ~3.3k nodes, ~4.5k edges
CITESEER_SCALE_2X = "sbm:6,3327,0.006,0.0008,1.0,42"    # edge count doubled


def _spa_median_ms(tmp_path: Path, spec: str, reps: int = 5) -> float:
    out = tmp_path / spec.replace(":", "_").replace(",", "-")
    rc = main([
        "benchmark", "--synthetic", spec, "--strategy", "spa",
        "--budgets", "20", "--repetitions", str(reps), "--out", str(out),
    ])
    assert rc == 0
    with (out / "benchmark.csv").open() as f:
        row = next(csv.DictReader(f))
    return float(row["median_ms"])


def test_criterion_7_query_time(tmp_path):
    """Sub-second selection at citation-network scale, and growth within 2x
    of the m*sqrt(m) trend when the edge count doubles."""
    base = spal.synthetic.parse_synthetic_spec(CITESEER_SCALE)
    doubled = spal.synthetic.parse_synthetic_spec(CITESEER_SCALE_2X)
    print(f"  base graph: {base.num_nodes} nodes, {base.num_edges} edges")
    print(f"  doubled graph: {doubled.num_nodes} nodes, {doubled.num_edges} edges")

    median_base = _spa_median_ms(tmp_path, CITESEER_SCALE)
    median_double = _spa_median_ms(tmp_path, CITESEER_SCALE_2X)
    print(f"  spa median: {median_base:.1f} ms -> {median_double:.1f} ms")

    m1, m2 = base.num_edges, doubled.num_edges
    allowed = 2.0 * (m2 * np.sqrt(m2)) / (m1 * np.sqrt(m1))
    ratio = median_double / median_base
    print(f"  growth ratio {ratio:.2f} (allowed {allowed:.2f})")
    report(
        "criterion 7 (query time)",
        median_base < 1000.0 and ratio <= allowed,
    )


def test_criterion_8_citeseer_stretch():
    """Best-effort check against the published citation-network score; needs
    a user-supplied export (see module docstring). A miss is reported, not
    fatal: splits and preprocessing are not published."""
    root = os.environ.get("CITESEER_DIR")
    if not root:
        pytest.skip("CITESEER_DIR not set; provide edges.txt/features.csv/labels.txt")
    root = Path(root)
    g = spal.load_graph(root / "edges.txt", root / "features.csv", root / "labels.txt")
    # each feature row scaled to unit L1 norm, as the published setting's; zero rows stay
    norms = np.abs(g.features).sum(axis=1, keepdims=True)
    g = replace(g, features=np.divide(g.features, norms, out=g.features.copy(), where=norms > 0))
    print(f"  loaded: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"d={g.features.shape[1]}, C={g.num_classes}")
    result = spal.run_experiment(
        g, ["spa"], [40], list(range(10)), TrainConfig(), ScanParams(), PageRankParams(),
    )
    measured = 100.0 * result.aggregates[0].macro_f1_mean
    print(f"  spa b=40 macro-F1 over 10 seeds: {measured:.1f} (reference 57.1)")
    ok = abs(measured - 57.1) <= 5.0
    print(f"[ACCEPTANCE] criterion 8 (citeseer stretch): {'PASS' if ok else 'MISS (non-fatal)'}")
    if not ok:
        pytest.xfail(
            f"macro-F1 {measured:.1f} outside 57.1±5; "
            "split/preprocessing differences documented in README"
        )
