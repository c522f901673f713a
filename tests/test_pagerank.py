from __future__ import annotations

import numpy as np
import pytest

from spal.pagerank import PageRankParams, pagerank, pagerank_blocks

from conftest import make_graph, random_graph
from oracles import pagerank_dense_solve


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
        with pytest.raises(ValueError):
            PageRankParams(max_iterations=0)


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

    def test_top_node_tie_breaks_low_id(self):
        sv = pagerank(cycle_graph(6))
        assert sv.top_node() == 0

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
        with pytest.raises(ValueError, match="out-of-range"):
            pagerank_blocks(triangle, [np.array([0, 5])])

