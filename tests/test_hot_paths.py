"""No per-graph or per-run path of spal calls ``np.unique``, ``np.isin``,
``np.setdiff1d`` or ``np.union1d``, spa's hot loops call no ``np.where``,
PageRank decides convergence from its fast estimate alone at default
settings, and SCAN counts its triangles once, not once per wedge chunk.

On numpy 2.x ``np.unique`` takes a hash-based path that is an order of
magnitude slower than the one sort of ``graph.sorted_unique`` (its
docstring gives the timings); ``np.union1d`` calls it, and ``np.isin``
and ``np.setdiff1d`` sort or hash their inputs where a boolean mask over
the node ids does. Each test below runs one path with these functions
patched to fail when a spal module calls them directly; calls from numpy
and scipy themselves pass through.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from spal import gcn
from spal import pagerank as pagerank_module
from spal import scan as scan_module
from spal import selection as selection_module
from spal.cli import main
from spal.experiment import run_single
from spal.graph import load_graph
from spal.pagerank import pagerank, pagerank_partition
from spal.scan import ScanParams, scan_partition
from spal.selection import STRATEGY_NAMES, spa_select
from spal.synthetic import export_graph_files, sbm_graph

from conftest import heavy_tailed_graph

PARAMS = ScanParams(0.28, 2)


REFUSED = ("unique", "isin", "setdiff1d", "union1d")


def refused_from_spal(name, real):
    def guarded(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.startswith("spal"):
            raise AssertionError(f"np.{name} called from {caller}")
        return real(*args, **kwargs)

    return guarded


@pytest.fixture(autouse=True)
def guard_refused(monkeypatch):
    for name in REFUSED:
        monkeypatch.setattr(np, name, refused_from_spal(name, getattr(np, name)))


@pytest.fixture
def g():
    return sbm_graph(4, 400, 0.1, 0.01, 1.0, 7)


def test_guard_catches_a_direct_call():
    caller = type(sys)("spal.planted")  # a module named as spal's are
    for name in REFUSED:
        exec(f"import numpy as np\ndef f(x): return np.{name}(x, [1])", caller.__dict__)
        with pytest.raises(AssertionError, match=f"np.{name} called from spal.planted"):
            caller.f(np.arange(3))
    assert np.isin(np.arange(3), [1]).sum() == 1  # calls from outside spal pass


HOT_LOOPS = ("_edge_overlap", "scan_sweep", "_power_iterate", "_keep_rows", "spa_select")


def test_hot_loops_call_no_where(g, monkeypatch):
    """``np.where`` branches once per element on a data-dependent mask, 3-5x
    slower than an arithmetic select (see ``graph.stable_argsort``), so
    the functions in ``HOT_LOOPS`` do without it."""
    real = np.where

    def guarded(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        if caller in HOT_LOOPS:
            raise AssertionError(f"np.where called from {caller}")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "where", guarded)
    assignment = scan_partition(g, PARAMS)
    pagerank_partition(g, assignment.community_of)
    k = assignment.num_communities
    assert len(spa_select(g, PARAMS, b=k + 1).selected) == k + 1


def test_load_and_build(g, tmp_path):
    paths = (tmp_path / "edges.txt", tmp_path / "features.csv", tmp_path / "labels.txt")
    export_graph_files(g, *paths)
    loaded = load_graph(*paths)
    assert np.array_equal(loaded.csr_targets, g.csr_targets)


def test_partition_and_block_pagerank(g, tmp_path, capsys):
    assignment = scan_partition(g, PARAMS)
    pagerank_partition(g, assignment.community_of)
    out = tmp_path / "out"
    assert main(["partition", "--synthetic", "sbm:4,400,0.1,0.01,1.0,7",
                 "--epsilon", "0.28", "--mu", "2", "--out", str(out)]) == 0
    assert "size histogram: " in capsys.readouterr().out


@pytest.mark.parametrize("overlap_from", [None, 0], ids=["serial", "overlapped"])
def test_spa_select_every_budget_class(g, overlap_from, monkeypatch):
    if overlap_from is not None:
        monkeypatch.setattr(selection_module, "_OVERLAP_FROM", overlap_from)
    k = scan_partition(g, PARAMS).num_communities
    for b in (k - 1, k, k + 5):  # cut, exact fit, top-up
        assert len(spa_select(g, PARAMS, b=b).selected) == b


def test_train_and_predict(g):
    model = gcn.train(g, np.arange(0, 400, 20), gcn.TrainConfig(epochs=5))
    assert gcn.predict(model, g).shape == (g.num_nodes,)


@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
def test_run_single(g, strategy):
    run = run_single(strategy, g, 8, 0, gcn.TrainConfig(epochs=5), PARAMS)
    assert 0.0 <= run.accuracy <= 1.0


def test_pagerank_convergence_needs_no_exact_sum(monkeypatch):
    """At default settings the working-order estimate of the L1 step settles
    every decision on a heavy-tailed graph: no id-order ``_exact_steps``
    call, measured over the whole graph's 42 iterations and the 363 of
    the block pass. Bounds too loose to pay off would resum every
    iteration near the tolerance, silently, at the old loop's cost."""
    calls = []
    exact_steps = pagerank_module._exact_steps

    def counting(*args):
        calls.append(args)
        return exact_steps(*args)

    monkeypatch.setattr(pagerank_module, "_exact_steps", counting)
    g = heavy_tailed_graph()
    assert pagerank(g).iterations_used == 42
    blocks = pagerank_partition(g, scan_partition(g, ScanParams(0.3, 2)).community_of)
    assert blocks.iterations.max() == 363
    assert len(calls) == 0


def test_scan_counts_triangles_once(g, monkeypatch):
    """SCAN's triangle counts come from one ``np.bincount`` of length m after
    its wedge chunks, not one per chunk: with one wedge per chunk, the arrays
    ``np.bincount`` returns to ``spal.scan`` over one edge pass hold at most
    n + m + 1 entries in all (the out-degree count, the triangle count and
    slack), where a count per chunk would hold up to m per chunk."""
    expected = scan_module._edge_overlap(g)
    returned = []
    real = np.bincount

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        if sys._getframe(1).f_globals.get("__name__") == "spal.scan":
            returned.append(out.size)
        return out

    monkeypatch.setattr(scan_module, "_LOOKUP_CHUNK", 1)
    monkeypatch.setattr(np, "bincount", counting)
    got = scan_module._edge_overlap(g)
    m = expected[0].size
    assert len(returned) >= 2
    assert sum(returned) <= g.num_nodes + m + 1
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
