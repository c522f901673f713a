from __future__ import annotations

import numpy as np
import pytest

from spal import scan
from spal.scan import ScanParams, scan_partition, structural_similarity, write_communities_csv

from conftest import make_graph, random_graph
from oracles import scan_brute_force


def as_sets(assignment):
    return (
        {frozenset(c.tolist()) for c in assignment.communities},
        frozenset(assignment.outliers.tolist()),
    )


class TestStructuralSimilarity:
    def test_triangle_all_pairs_one(self, triangle):
        for i in range(3):
            for j in range(3):
                assert structural_similarity(triangle, i, j) == pytest.approx(1.0)

    def test_path_endpoints(self, path3):
        # closed neighborhoods {0,1} and {1,2} share only node 1
        assert structural_similarity(path3, 0, 2) == pytest.approx(0.5)

    def test_star_leaves(self, star5):
        assert structural_similarity(star5, 1, 2) == pytest.approx(0.5)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            g = random_graph(rng, 12, 0.3)
            for _ in range(20):
                i, j = rng.integers(0, 12, size=2)
                s_ij = structural_similarity(g, int(i), int(j))
                s_ji = structural_similarity(g, int(j), int(i))
                assert s_ij == pytest.approx(s_ji)
                assert 0.0 <= s_ij <= 1.0

    def test_equal_neighborhoods_give_one(self, two_triangles):
        assert structural_similarity(two_triangles, 0, 1) == pytest.approx(1.0)

    def test_out_of_range(self, triangle):
        with pytest.raises(IndexError):
            structural_similarity(triangle, 0, 7)

    def test_all_pairs_match_closed_sets(self):
        # every ordered pair, i == j and non-adjacent pairs included
        rng = np.random.default_rng(14)
        for _ in range(15):
            g = random_graph(rng, int(rng.integers(2, 16)), float(rng.uniform(0.1, 0.6)))
            closed = [set(g.neighbors(v).tolist()) | {v} for v in range(g.num_nodes)]
            for i in range(g.num_nodes):
                for j in range(g.num_nodes):
                    expected = len(closed[i] & closed[j]) / np.sqrt(
                        len(closed[i]) * len(closed[j])
                    )
                    assert structural_similarity(g, i, j) == pytest.approx(expected)


class TestScanParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScanParams(epsilon=1.5)
        with pytest.raises(ValueError):
            ScanParams(epsilon=-0.1)
        with pytest.raises(ValueError):
            ScanParams(mu=0)


class TestScanPartition:
    def test_triangle_single_community(self, triangle):
        part = scan_partition(triangle, ScanParams(0.5, 1))
        assert as_sets(part) == ({frozenset({0, 1, 2})}, frozenset())

    def test_unsatisfiable_threshold(self, bridged_triangles):
        part = scan_partition(bridged_triangles, ScanParams(1.0, 7))
        assert part.num_communities == 0
        assert set(part.outliers.tolist()) == set(range(6))

    def test_bridged_triangles_split(self, bridged_triangles):
        # hand check: bridge edge (2,3) has S = 2 / sqrt(4*4) = 0.5 < 0.7
        part = scan_partition(bridged_triangles, ScanParams(0.7, 2))
        communities, outliers = as_sets(part)
        assert communities == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
        assert outliers == frozenset()

    def test_community_ids_ordered_by_smallest_member(self, two_triangles):
        part = scan_partition(two_triangles, ScanParams(0.5, 1))
        assert part.communities[0].tolist() == [0, 1, 2]
        assert part.communities[1].tolist() == [3, 4, 5]
        assert part.community_of.tolist() == [0, 0, 0, 1, 1, 1]

    def test_edge_order_invariance(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]
        g1 = make_graph(edges, num_nodes=6)
        g2 = make_graph(edges[::-1], num_nodes=6)
        p = ScanParams(0.6, 2)
        assert as_sets(scan_partition(g1, p)) == as_sets(scan_partition(g2, p))

    def test_monotonicity_refines(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            g = random_graph(rng, 20, 0.25)
            loose = scan_partition(g, ScanParams(0.3, 1))
            tight = scan_partition(g, ScanParams(0.6, 2))
            # each tight community must live inside a single loose community
            for c in tight.communities:
                owners = {int(loose.community_of[v]) for v in c}
                assert len(owners) == 1 and -1 not in owners

    def test_cover_and_disjoint(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            g = random_graph(rng, 25, 0.2)
            part = scan_partition(g, ScanParams(0.5, 2))
            seen = set(part.outliers.tolist())
            total = len(part.outliers)
            for c in part.communities:
                assert len(c) >= 2
                total += len(c)
                assert not (set(c.tolist()) & seen)
                seen |= set(c.tolist())
            assert total == g.num_nodes

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(4, 50))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)))
            eps = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
            mu = int(rng.choice([1, 2, 3]))
            part = scan_partition(g, ScanParams(eps, mu))
            assert as_sets(part) == scan_brute_force(g, eps, mu)

    @pytest.mark.parametrize("chunk", [1, 2, 5])
    def test_matches_brute_force_across_chunks(self, monkeypatch, chunk):
        # a few lookups per chunk, so one graph's edges span many chunks
        monkeypatch.setattr(scan, "_LOOKUP_CHUNK", chunk)
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)))
            eps = float(rng.choice([0.3, 0.5, 0.7]))
            mu = int(rng.choice([1, 2, 3]))
            part = scan_partition(g, ScanParams(eps, mu))
            assert as_sets(part) == scan_brute_force(g, eps, mu)


def test_write_communities_csv(tmp_path, two_triangles):
    part = scan_partition(two_triangles, ScanParams(0.5, 1))
    out = tmp_path / "communities.csv"
    write_communities_csv(part, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node_id,community_id"
    assert lines[1:] == ["0,0", "1,0", "2,0", "3,1", "4,1", "5,1"]
