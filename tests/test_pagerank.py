from __future__ import annotations

import importlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spal
from spal.pagerank import PageRankParams, pagerank, pagerank_blocks, pagerank_partition

from conftest import heavy_tailed_graph, make_graph, random_graph
from oracles import block_power_reference, pagerank_dense_solve

# the module, not the function ``spal/__init__.py`` binds over its name
pagerank_module = importlib.import_module("spal.pagerank")


def cycle_graph(n):
    return make_graph([(i, (i + 1) % n) for i in range(n)])


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PageRankParams(damping=1.0)
        with pytest.raises(ValueError):
            PageRankParams(damping=-0.1)
        with pytest.raises(ValueError):
            PageRankParams(tolerance=0.0)
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError, match=f"positive and finite, got {bad}"):
                PageRankParams(tolerance=float(bad))
        with pytest.raises(ValueError):
            PageRankParams(max_iterations=0)
        # 2.5 used to reach range() and fail there; True acted as a cap of 1
        for bad in (2.5, True, np.float64(3.0), "10"):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                PageRankParams(max_iterations=bad)
        assert PageRankParams(max_iterations=np.int64(7)).max_iterations == 7


class TestPageRank:
    def test_cycle_uniform(self):
        sv = pagerank(cycle_graph(5))
        assert np.abs(sv.scores - 0.2).max() < 1e-9
        assert sv.converged

    def test_single_node_subset(self, triangle):
        sv = pagerank(triangle, subset=[1])
        assert sv.scores.tolist() == [1.0]
        assert sv.converged
        assert sv.iterations_used == 1

    def test_star_against_dense_oracle(self, star5):
        params = PageRankParams(damping=0.85, tolerance=1e-10)
        sv = pagerank(star5, params=params)
        _, expected = pagerank_dense_solve(star5, 0.85)
        assert np.abs(sv.scores - expected).sum() < 1e-8
        assert sv.scores[0] > sv.scores[1:].max()  # center dominates

    def test_sum_to_one(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            g = random_graph(rng, int(rng.integers(3, 40)), 0.2)
            sv = pagerank(g)
            assert abs(sv.scores.sum() - 1.0) < 1e-9
            assert sv.scores.min() >= 0

    def test_damping_zero_uniform_one_iteration(self, star5):
        sv = pagerank(star5, params=PageRankParams(damping=0.0))
        assert np.abs(sv.scores - 0.2).max() == 0.0
        assert sv.iterations_used == 1

    def test_subset_induced_semantics(self, bridged_triangles):
        # induced triangle is vertex-transitive regardless of the bridge
        sv = pagerank(bridged_triangles, subset=[0, 1, 2])
        assert np.abs(sv.scores - 1 / 3).max() < 1e-9

    def test_subset_all_dangling(self, path3):
        # {0, 2} induces no edges: both nodes dangle, mass stays uniform
        sv = pagerank(path3, subset=[0, 2])
        assert np.allclose(sv.scores, 0.5)

    def test_subset_validation(self, triangle):
        with pytest.raises(ValueError):
            pagerank(triangle, subset=[])
        with pytest.raises(ValueError):
            pagerank(triangle, subset=[0, 9])

    def test_float_ids_rejected(self, bridged_triangles):
        with pytest.raises(ValueError, match="integers"):
            pagerank(bridged_triangles, subset=[1.7, 3])
        with pytest.raises(ValueError, match="integers"):
            pagerank_blocks(bridged_triangles, [[0.5, 2.2]])
        with pytest.raises(ValueError, match="integers"):
            pagerank_blocks(bridged_triangles, [[0, 1], [2.0, 3.0]])

    def test_relabeling_permutes_scores(self):
        rng = np.random.default_rng(21)
        g = random_graph(rng, 12, 0.3)
        perm = rng.permutation(12)
        edges = []
        for u in range(12):
            for v in g.neighbors(u):
                if v > u:
                    edges.append((perm[u], perm[int(v)]))
        g_perm = make_graph(edges, num_nodes=12)
        sv = pagerank(g)
        sv_perm = pagerank(g_perm)
        assert np.abs(sv_perm.scores[perm] - sv.scores).max() < 1e-9

    def test_matches_dense_solve_battery(self):
        rng = np.random.default_rng(22)
        # 1e-10 step tolerance keeps the fixed-point distance under 1e-8
        params = PageRankParams(tolerance=1e-10)
        for _ in range(15):
            n = int(rng.integers(3, 100))
            g = random_graph(rng, n, float(rng.uniform(0.05, 0.4)))
            sv = pagerank(g, params=params)
            _, expected = pagerank_dense_solve(g, 0.95)
            assert np.abs(sv.scores - expected).sum() < 1e-8

    def test_unconverged_flag(self):
        # a big star cannot settle within a single allowed iteration
        sv = pagerank(make_graph([(0, i) for i in range(1, 30)]),
                      params=PageRankParams(max_iterations=1))
        assert not sv.converged
        assert sv.iterations_used == 1
        assert abs(sv.scores.sum() - 1.0) < 1e-9

    def test_complete_graph_uniform(self):
        g = make_graph([(i, j) for i in range(6) for j in range(i + 1, 6)])
        sv = pagerank(g)
        assert np.abs(sv.scores - 1 / 6).max() < 1e-9

    def test_mass_conserved_every_iteration(self, star5):
        # truncating the iteration budget exposes every intermediate state
        for cap in range(1, 12):
            sv = pagerank(star5, params=PageRankParams(max_iterations=cap))
            assert abs(sv.scores.sum() - 1.0) < 1e-9

    def test_dangling_subset_mass_conserved(self, path3):
        for cap in range(1, 5):
            sv = pagerank(path3, subset=[0, 2], params=PageRankParams(max_iterations=cap))
            assert abs(sv.scores.sum() - 1.0) < 1e-9


class TestPagerankBlocks:
    def test_matches_per_subset_calls(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 40, 0.15)
        blocks = [np.arange(0, 13), np.arange(13, 30), np.arange(30, 40)]
        batched = pagerank_blocks(g, blocks)
        for block, sv in zip(blocks, batched):
            single = pagerank(g, subset=block)
            assert np.array_equal(sv.scores, single.scores)
            assert sv.iterations_used == single.iterations_used
            assert sv.converged == single.converged

    def test_empty_list(self, triangle):
        assert pagerank_blocks(triangle, []) == []

    def test_validation(self, triangle):
        with pytest.raises(ValueError, match="non-empty"):
            pagerank_blocks(triangle, [np.array([0]), np.array([], dtype=int)])
        with pytest.raises(ValueError, match="disjoint"):
            pagerank_blocks(triangle, [np.array([0, 1]), np.array([1, 2])])
        with pytest.raises(ValueError, match=r"node id 5 out of range \[0, 3\)"):
            pagerank_blocks(triangle, [np.array([0, 5])])



def random_blocks(rng, n):
    """Disjoint blocks over a random subset of ``range(n)``, ids shuffled and
    some repeated within their block; about a third are single nodes."""
    ids = rng.permutation(n)[: int(rng.integers(1, n + 1))]
    blocks, start = [], 0
    while start < ids.size:
        size = 1 if rng.random() < 1 / 3 else int(rng.integers(2, 12))
        block = ids[start : start + size]
        blocks.append(np.concatenate([block, rng.choice(block, int(rng.integers(0, 3)))]))
        start += size
    return blocks


def assert_matches_reference(g, blocks, params):
    ids = [np.unique(b) for b in blocks]
    scores, iterations, converged = block_power_reference(g, ids, params)
    got = pagerank_blocks(g, blocks, params)
    assert all(np.array_equal(sv.node_ids, b) for sv, b in zip(got, ids))
    assert np.array_equal(np.concatenate([sv.scores for sv in got]), scores)
    assert np.array_equal([sv.iterations_used for sv in got], iterations)
    assert np.array_equal([sv.converged for sv in got], converged)
    return iterations, converged


class TestMatchesLockstepReference:
    """The CSR loop reproduces the per-edge bincount loop to the bit,
    whether settled blocks are masked in place or compacted away."""

    # 0.0 never compacts, 2.0 compacts at every settle
    @pytest.fixture(params=[0.0, 0.9, 2.0], autouse=True)
    def compact_below(self, request, monkeypatch):
        monkeypatch.setattr(pagerank_module, "_COMPACT_BELOW", request.param)

    def test_random_partitions(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            g = random_graph(rng, n, float(rng.uniform(0.02, 0.3)))
            assert_matches_reference(g, random_blocks(rng, n), PageRankParams())

    def test_dangling_members(self, path3):
        # {0, 2} induces no edge, so both members dangle
        assert_matches_reference(path3, [[2, 0], [1]], PageRankParams())

    def test_blocks_stopping_at_max_iterations(self):
        rng = np.random.default_rng(41)
        g = random_graph(rng, 120, 0.05)
        params = PageRankParams(damping=0.85, tolerance=1e-12, max_iterations=25)
        iterations, converged = assert_matches_reference(g, random_blocks(rng, 120), params)
        assert converged.any() and not converged.all()
        assert (iterations[~converged] == 25).all()

    @pytest.mark.parametrize("params", [
        PageRankParams(), PageRankParams(0.85, 1e-10, 50), PageRankParams(max_iterations=3),
    ])
    def test_whole_graph(self, params):
        rng = np.random.default_rng(42)
        for _ in range(5):
            g = random_graph(rng, int(rng.integers(2, 150)), 0.05)
            scores, iterations, converged = block_power_reference(
                g, [np.arange(g.num_nodes)], params
            )
            sv = pagerank(g, params=params)
            assert np.array_equal(sv.scores, scores)
            assert sv.iterations_used == iterations[0]
            assert sv.converged == converged[0]


def components(shapes):
    """Edges of the shapes laid side by side, and each one's node ids."""
    edges, blocks, offset = [], [], 0
    for shape in shapes:
        size = max(max(e) for e in shape) + 1
        edges += [(offset + a, offset + b) for a, b in shape]
        blocks.append(np.arange(offset, offset + size))
        offset += size
    return edges, blocks


def repeated_shapes_graph(rng):
    """Disjoint components in shapes that repeat: paths, stars, triangles,
    8-cycles, 8-cliques and 9-cycles, under shuffled ids so that one shape
    comes with different local adjacencies, plus three isolated nodes.
    Returns the graph and its blocks: each component, except that two paths
    are split into their ends (two dangling members) and their middle, and
    three triangles each take an isolated node as a dangling member."""
    edges, blocks = components(
        [[(0, 1), (1, 2)]] * 6 + [star_edges(3)] * 5 + [[(0, 1), (1, 2), (0, 2)]] * 6
        + [cycle_edges(8)] * 4 + [clique_edges(8)] * 3 + [cycle_edges(9)] * 4 + [[(0, 1)]] * 3)
    n = int(blocks[-1][-1]) + 4
    for p in (0, 1):
        blocks.append(blocks[p][1:2])
        blocks[p] = blocks[p][[0, 2]]
    for t, isolated in zip((11, 12, 13), range(n - 3, n)):
        blocks[t] = np.append(blocks[t], isolated)
    perm = rng.permutation(n)
    g = make_graph([(perm[a], perm[b]) for a, b in edges], num_nodes=n)
    return g, [np.sort(perm[b]) for b in blocks]


def labels_of(g, blocks):
    """``community_of`` for disjoint blocks, -1 outside them."""
    community_of = np.full(g.num_nodes, -1, dtype=np.int64)
    for b, block in enumerate(blocks):
        community_of[block] = b
    return community_of


def star_edges(leaves):
    return [(0, i) for i in range(1, leaves + 1)]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def clique_edges(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


class TestRepeatedBlocks:
    """Blocks that repeat another's size and local adjacency are iterated
    once and copied; every block still matches the lockstep reference and
    its own ``pagerank(subset=…)`` to the bit."""

    PARAMS = [PageRankParams(), PageRankParams(0.85, 1e-12, 7), PageRankParams(max_iterations=2)]

    @pytest.fixture
    def iterated_blocks(self, monkeypatch):
        """The block count of every ``_power_loop`` call."""
        counts = []
        loop = pagerank_module._power_loop

        def counting_loop(*state):
            counts.append(state[2].size)  # n_block
            return loop(*state)

        monkeypatch.setattr(pagerank_module, "_power_loop", counting_loop)
        return counts

    @pytest.mark.parametrize("params", PARAMS)
    @pytest.mark.parametrize("seed", [50, 51, 52])
    def test_matches_references(self, seed, params, iterated_blocks):
        g, blocks = repeated_shapes_graph(np.random.default_rng(seed))
        iterations, converged = assert_matches_reference(g, blocks, params)
        community_of = labels_of(g, blocks)
        flat = pagerank_partition(g, community_of, params)
        assert iterated_blocks[0] == iterated_blocks[1] < len(blocks)  # repeats were copied
        scores, _, _ = block_power_reference(g, blocks, params)
        by_block = np.argsort(community_of[flat.node_ids], kind="stable")
        assert np.array_equal(flat.node_ids, np.flatnonzero(community_of >= 0))
        assert np.array_equal(flat.node_ids[by_block], np.concatenate(blocks))
        assert np.array_equal(flat.scores[by_block], scores)
        assert np.array_equal(flat.iterations, iterations)
        assert np.array_equal(flat.converged, converged)
        for block, it, c, sv in zip(blocks, iterations, converged,
                                    pagerank_blocks(g, blocks, params), strict=True):
            single = pagerank(g, subset=block, params=params)
            assert np.array_equal(sv.scores, single.scores)
            assert (it, c) == (single.iterations_used, single.converged)

    def test_capped_blocks_copy_their_flags(self):
        g, blocks = repeated_shapes_graph(np.random.default_rng(53))
        params = PageRankParams(0.85, 1e-12, 7)
        iterations, converged = assert_matches_reference(g, blocks, params)
        assert converged.any() and not converged.all()
        assert (iterations[~converged] == 7).all() and (iterations[converged] < 7).all()

    def test_only_blocks_up_to_eight_members_are_merged(self, iterated_blocks):
        # four each of 8-cycles, 8-cliques and 9-cycles
        edges, blocks = components([cycle_edges(8)] * 4 + [clique_edges(8)] * 4
                                   + [cycle_edges(9)] * 4)
        g = make_graph(edges)
        assert_matches_reference(g, blocks, PageRankParams())
        assert iterated_blocks == [1 + 1 + 4]  # one 8-cycle, one 8-clique, each 9-cycle
        perm = np.random.default_rng(55).permutation(g.num_nodes)
        g = make_graph([(perm[a], perm[b]) for a, b in edges])
        assert_matches_reference(g, [np.sort(perm[b]) for b in blocks], PageRankParams())

    def test_one_member_blocks(self, iterated_blocks):
        g = cycle_graph(6)
        assert_matches_reference(g, [[4], [0], [2]], PageRankParams())
        assert iterated_blocks == [1]

    @pytest.mark.parametrize("community_of, match", [
        (np.zeros(5, dtype=np.int64), "community_of must be 6 integer labels"),
        (np.zeros(6), "community_of must be 6 integer labels"),
        (np.array([0, 0, 2, 2, -1, -1]), "every id in use"),
        (np.array([0, 0, 1, 1, -2, -1]), "must be -1 or"),
    ])
    def test_partition_validation(self, community_of, match):
        with pytest.raises(ValueError, match=match):
            pagerank_partition(cycle_graph(6), community_of)

    def test_partition_with_no_block(self):
        flat = pagerank_partition(cycle_graph(6), np.full(6, -1))
        assert flat.node_ids.size == flat.scores.size == flat.iterations.size == 0


def test_whole_graph_peak_memory():
    g = heavy_tailed_graph()
    n = g.num_nodes
    tracemalloc.start()
    try:
        pagerank(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The per-edge bincount loop peaked at 7.35 MB here, this loop at 3.2 MB.
    # Building the whole graph's CSR instead of wrapping it peaks at 5.9 MB,
    # past the unit weights (8 bytes per CSR entry) plus 16 score vectors.
    assert peak < 8 * g.csr_targets.size + 16 * 8 * n


def test_import_loads_no_csgraph_or_linalg():
    # each adds import time to every CLI call; scan imports csgraph when it runs
    env = dict(os.environ, PYTHONPATH=str(Path(spal.__file__).parent.parent))
    code = (
        "import sys, spal; "
        "print(sorted(m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
