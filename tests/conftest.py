from __future__ import annotations

import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles helper

from spal.graph import AttributedGraph, from_edges


def pytest_collection_modifyitems(items):
    """Any warning, an unclosed file's ResourceWarning included, fails a test in
    this directory. Set here rather than in pyproject.toml so that
    ``benchmarks/test_benchmark.py``, whose ``run.measure`` leaves a pipe
    open, keeps pytest's default."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that leaves a thread running. ``spa_select`` starts one,
    and ``experiment`` later forks its process pool, which copies no thread
    but whatever locks a running one holds."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads left running: {', '.join(left)}")


def make_graph(
    edges, num_nodes: int | None = None, features=None, labels=None, num_classes: int = 1
) -> AttributedGraph:
    """Small-graph builder: identity-block features and zero labels unless given."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    n = int(edges.max()) + 1 if num_nodes is None else num_nodes
    if features is None:
        features = np.eye(n, max(2, min(n, 8)))
    if labels is None:
        labels = np.arange(n) % num_classes
    return from_edges(edges, np.asarray(features, dtype=float), np.asarray(labels))


def random_graph(rng: np.random.Generator, n: int, p: float) -> AttributedGraph:
    """Erdos-Renyi draw, resampled until at least one edge exists."""
    while True:
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < p
        if keep.any():
            edges = np.stack([iu[keep], ju[keep]], axis=1)
            return make_graph(edges, num_nodes=n)


def heavy_tailed_graph() -> AttributedGraph:
    """A fixed 2e4-node draw with ~8e4 edges and power-law degrees, for the
    peak-memory tests."""
    rng = np.random.default_rng(43)
    n = 20_000
    weights = np.arange(1, n + 1) ** -0.5
    edges = rng.choice(n, size=(80_000, 2), p=weights / weights.sum())
    edges = edges[edges[:, 0] != edges[:, 1]]
    return from_edges(edges, np.zeros((n, 1)), np.zeros(n, dtype=np.int64))


@pytest.fixture
def triangle():
    return make_graph([(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return make_graph([(0, 1), (1, 2)])


@pytest.fixture
def star5():
    # center 0, leaves 1..4
    return make_graph([(0, i) for i in range(1, 5)])


@pytest.fixture
def two_triangles():
    # disjoint triangles {0,1,2} and {3,4,5}
    return make_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


@pytest.fixture
def bridged_triangles():
    # two triangles joined by the bridge edge (2, 3)
    return make_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
