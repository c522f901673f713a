"""Metamorphic tests: SCAN's partition and the block PageRank must not
change when the input graph is rearranged in ways that cannot matter.

These need no brute-force twin, so they run on graphs of thousands of
nodes. Every comparison is exact: ids, flags and iteration counts with
``array_equal``, and scores to the bit, because a block's arithmetic runs
over its own members in ascending id order whatever else the graph holds.
"""

from __future__ import annotations

import numpy as np
import pytest

from spal.graph import AttributedGraph, from_edges
from spal.pagerank import PageRankParams, pagerank_partition
from spal.scan import ScanParams, scan_partition
from spal.synthetic import sbm_graph

from conftest import heavy_tailed_graph

SCAN_PARAMS = [ScanParams(0.3, 2), ScanParams(0.28, 2), ScanParams(0.35, 3)]
PR_PARAMS = [PageRankParams(), PageRankParams(0.85, 1e-12, 7)]


def edge_list(g: AttributedGraph) -> np.ndarray:
    """Each undirected edge of ``g`` once, as (u, v) with u < v."""
    src = np.repeat(np.arange(g.num_nodes), g.degrees)
    upper = src < g.csr_targets
    return np.stack([src[upper], g.csr_targets[upper]], axis=1)


def structure(edges: np.ndarray, n: int) -> AttributedGraph:
    """A graph of ``n`` nodes with these edges; SCAN and PageRank read no
    features or labels, so both are zeros."""
    return from_edges(edges, np.zeros((n, 1)), np.zeros(n, dtype=np.int64))


@pytest.fixture(scope="module")
def parts():
    return heavy_tailed_graph(), sbm_graph(4, 400, 0.1, 0.01, 1.0, 7)


@pytest.mark.parametrize("scan_params", SCAN_PARAMS)
def test_disjoint_union(parts, scan_params):
    g, h = parts
    n = g.num_nodes
    union = structure(np.concatenate([edge_list(g), edge_list(h) + n]), n + h.num_nodes)
    got = scan_partition(union, scan_params).community_of
    g_of = scan_partition(g, scan_params).community_of
    h_of = scan_partition(h, scan_params).community_of
    k = int(g_of.max()) + 1
    want = np.concatenate([g_of, np.where(h_of >= 0, h_of + k, -1)])
    assert np.array_equal(got, want)
    assert k > 0 and h_of.max() >= 0  # both halves hold communities

    for pr_params in PR_PARAMS:
        both = pagerank_partition(union, got, pr_params)
        g_blocks = pagerank_partition(g, g_of, pr_params)
        h_blocks = pagerank_partition(h, h_of, pr_params)
        assert np.array_equal(both.node_ids,
                              np.concatenate([g_blocks.node_ids, h_blocks.node_ids + n]))
        for name in ("scores", "iterations", "converged"):
            assert np.array_equal(getattr(both, name), np.concatenate(
                [getattr(g_blocks, name), getattr(h_blocks, name)])), name


@pytest.mark.parametrize("scan_params", SCAN_PARAMS)
@pytest.mark.parametrize("extra", [1, 37])
def test_isolated_nodes_appended(parts, scan_params, extra):
    for g in parts:
        n = g.num_nodes
        padded = structure(edge_list(g), n + extra)
        got = scan_partition(padded, scan_params).community_of
        want = scan_partition(g, scan_params).community_of
        assert np.array_equal(got[:n], want)
        assert np.array_equal(got[n:], np.full(extra, -1))  # the new nodes are outliers
        for pr_params in PR_PARAMS:
            padded_blocks = pagerank_partition(padded, got, pr_params)
            blocks = pagerank_partition(g, want, pr_params)
            for name in ("node_ids", "scores", "iterations", "converged"):
                assert np.array_equal(getattr(padded_blocks, name), getattr(blocks, name)), name
