"""Metamorphic tests: SCAN's partition, the block and global PageRank and
the loaded CSR must not change when the input is rearranged in ways that
cannot matter.

These need no brute-force twin, so they run on graphs of thousands of
nodes. Every comparison is exact except one: ids, flags and iteration
counts with ``array_equal``, and scores to the bit, because a block's
arithmetic runs over its own members in ascending id order whatever else
the graph holds. Global scores under a relabelling agree to a stated
relative tolerance instead (see ``test_relabelling``).
"""

from __future__ import annotations

import numpy as np
import pytest

from spal.graph import AttributedGraph, from_edges, load_graph
from spal.pagerank import PageRankParams, pagerank, pagerank_partition
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


def canonical(community_of: np.ndarray) -> np.ndarray:
    """Each node's community named by its smallest member, -1 for outliers:
    equal for two labellings exactly when they are the same set partition."""
    members = np.flatnonzero(community_of >= 0)
    first = np.full(community_of.max(initial=-1) + 1, community_of.size)
    np.minimum.at(first, community_of[members], members)
    return np.where(community_of >= 0, first[community_of], -1)


# Relative agreement of global scores under a relabelling. Not 0: the CSR
# product sums each row's terms in ascending column id, and a relabelling
# reorders them, so each iteration can round differently. Measured at most
# 1.3e-15 on these graphs and seeds (2.2e-15 over seeds 60-63); 1e-12
# still fails a wrong permutation, which moves scores by far more.
RELABEL_RTOL = 1e-12


@pytest.mark.parametrize("scan_params", SCAN_PARAMS)
@pytest.mark.parametrize("seed", [60, 61])
def test_relabelling(parts, scan_params, seed):
    for g in parts:
        n = g.num_nodes
        perm = np.random.default_rng(seed).permutation(n)  # node v becomes perm[v]
        relabelled = structure(perm[edge_list(g)], n)
        got = scan_partition(relabelled, scan_params).community_of[perm]
        want = scan_partition(g, scan_params).community_of
        assert np.array_equal(canonical(got), canonical(want))
        for pr_params in PR_PARAMS:
            moved = pagerank(relabelled, pr_params)
            sv = pagerank(g, pr_params)
            assert (moved.iterations_used, moved.converged) == (sv.iterations_used, sv.converged)
            np.testing.assert_allclose(moved.scores[perm], sv.scores, rtol=RELABEL_RTOL, atol=0)


def test_edge_file_rearranged_loads_identical_csr(parts, tmp_path):
    """Shuffled lines, reversed pairs and repeated edges load to the same
    CSR arrays, byte for byte."""
    rng = np.random.default_rng(62)
    for g in parts:
        edges = edge_list(g)
        features, labels = tmp_path / "features.csv", tmp_path / "labels.txt"
        np.savetxt(features, g.features, delimiter=",")
        np.savetxt(labels, g.labels, fmt="%d")
        messy = np.concatenate([edges, edges[rng.choice(len(edges), len(edges) // 3)]])
        messy = messy[rng.permutation(len(messy))]
        flip = rng.random(len(messy)) < 0.5
        messy[flip] = messy[flip][:, ::-1]
        loaded = []
        for name, pairs in (("edges.txt", edges), ("messy.txt", messy)):
            np.savetxt(tmp_path / name, pairs, fmt="%d")
            loaded.append(load_graph(tmp_path / name, features, labels))
        clean, rearranged = loaded
        assert rearranged.duplicates_dropped > 0
        for name in ("csr_offsets", "csr_targets"):
            a, b = getattr(clean, name), getattr(rearranged, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert getattr(g, name).tobytes() == a.tobytes(), name
