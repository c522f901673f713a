from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from spal import scan
from spal.scan import (
    ScanParams,
    scan_partition,
    scan_sweep,
    write_communities_csv,
)

from conftest import heavy_tailed_graph, make_graph, random_graph
from oracles import edge_overlap_reference, scan_brute_force, structural_similarity


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


def overlap_cases():
    """Graphs for the edge-overlap oracle: random draws, whose small degrees
    tie often, circulants (every degree equal), stars, cliques, K2,n with
    and without the edge between its two hubs, and one edge among isolated
    nodes."""
    rng = np.random.default_rng(16)
    graphs = [random_graph(rng, int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)))
              for _ in range(20)]
    for n, hops in [(9, (1,)), (12, (1, 2)), (15, (1, 3, 4)), (16, (1, 2, 3, 5))]:
        graphs.append(make_graph([(v, (v + h) % n) for v in range(n) for h in hops]))
    for k in (1, 2, 7):
        graphs.append(make_graph([(0, v) for v in range(1, k + 1)]))
    for k in (2, 3, 6):
        graphs.append(make_graph(list(itertools.combinations(range(k), 2))))
    for k in (1, 5):
        k2n = [(hub, v) for hub in (0, 1) for v in range(2, k + 2)]
        graphs += [make_graph(k2n), make_graph(k2n + [(0, 1)])]
    graphs.append(make_graph([(2, 5)], num_nodes=8))
    return graphs


def canonical(u, v, common):
    """The edge pass's rows as (min, max, overlap), sorted by (min, max):
    the order and orientation the oracle uses."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    return lo[order], hi[order], common[order]


class TestEdgeOverlap:
    @pytest.mark.parametrize("chunk", [1, 2, 5, None])
    def test_matches_sparse_product(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(scan, "_LOOKUP_CHUNK", chunk)
        for g in overlap_cases():
            u, v, common = scan._edge_overlap(g)
            assert u.size == v.size == common.size == g.num_edges
            assert common.dtype == np.int64
            # each row starts at its end of lower (degree, id) rank
            deg = g.degrees
            assert np.all((deg[u] < deg[v]) | ((deg[u] == deg[v]) & (u < v)))
            i, j, got = canonical(u, v, common)
            ref_i, ref_j, ref_common = edge_overlap_reference(g)
            assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
            assert np.array_equal(got, ref_common)

    def test_similarity_bit_identical(self):
        # the threshold's similarity, from the edge pass and from the oracle's
        # counts, equals the one-pair function's to the bit
        for g in overlap_cases():
            sizes = (g.degrees + 1).astype(np.float64)
            u, v, common = scan._edge_overlap(g)
            sim = common / np.sqrt(sizes[u] * sizes[v])
            i, j, ref_common = edge_overlap_reference(g)
            ref_sim = ref_common / np.sqrt(sizes[i] * sizes[j])
            pair_sim = [structural_similarity(g, int(a), int(b)) for a, b in zip(u, v)]
            assert np.array_equal(sim.view(np.int64), np.array(pair_sim).view(np.int64))
            sim = canonical(u, v, sim)[2]
            assert np.array_equal(sim.view(np.int64), ref_sim.view(np.int64))


# the README's sweep grid: epsilon 0.2-0.6 x mu 2-4
SWEEP_GRID = [ScanParams(eps, mu) for eps in (0.2, 0.3, 0.4, 0.5, 0.6) for mu in (2, 3, 4)]


def test_scan_peak_memory():
    g = heavy_tailed_graph()  # ~1.4e5 wedges, so the edge pass takes 3 chunks
    scan_partition(g, ScanParams(0.3, 2))  # imports csgraph, whose memory is not SCAN's
    # Measured here: 61 B per CSR entry for one point and for 15; mapping
    # each edge back to i < j order, with a transposed sparse copy, peaked
    # at 70 B, and checking every wedge in one chunk peaks at 81 B.
    for grid in ([ScanParams(0.3, 2)], SWEEP_GRID):
        tracemalloc.start()
        try:
            for assignment in scan_sweep(g, grid):
                assignment.sizes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 66 * g.csr_targets.size, len(grid)


def brute_force_cases():
    """(graph, epsilon, mu) draws as in ``test_matches_brute_force``."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(4, 50))
        g = random_graph(rng, n, float(rng.uniform(0.1, 0.5)))
        yield g, float(rng.choice([0.3, 0.5, 0.7, 0.9])), int(rng.choice([1, 2, 3]))


class TestScanSweep:
    GRID = [ScanParams(eps, mu) for eps in (0.0, 0.3, 0.5, 0.7, 0.9, 1.0) for mu in (1, 2, 3, 5)]

    def test_matches_per_point_partitions_and_brute_force(self):
        for g, _, _ in brute_force_cases():
            for params, swept in zip(self.GRID, scan_sweep(g, self.GRID), strict=True):
                single = scan_partition(g, params)
                assert np.array_equal(swept.community_of, single.community_of)
                assert as_sets(swept) == scan_brute_force(g, params.epsilon, params.mu)

    def test_matches_per_point_partitions_on_heavy_tailed_graph(self):
        g = heavy_tailed_graph()
        for params, swept in zip(SWEEP_GRID, scan_sweep(g, SWEEP_GRID), strict=True):
            assert np.array_equal(swept.community_of, scan_partition(g, params).community_of)

    def test_edge_pass_runs_once_per_sweep(self, monkeypatch, two_triangles):
        calls = []
        real_edge_overlap = scan._edge_overlap

        def counted(g):
            calls.append(g)
            return real_edge_overlap(g)

        monkeypatch.setattr(scan, "_edge_overlap", counted)
        assert len(list(scan_sweep(two_triangles, self.GRID))) == len(self.GRID)
        assert len(calls) == 1
        scan_partition(two_triangles, ScanParams(0.5, 2))
        assert len(calls) == 2


class TestDerivedViews:
    def test_views_match_community_of(self):
        # the member lists, outliers and counts that scan_partition stored
        # next to community_of until it became the only field, rebuilt here
        # one community at a time
        for g, eps, mu in brute_force_cases():
            part = scan_partition(g, ScanParams(eps, mu))
            k = len(scan_brute_force(g, eps, mu)[0])
            expected = [np.flatnonzero(part.community_of == c) for c in range(k)]
            assert part.num_communities == k == len(part.communities)
            for got, want in zip(part.communities, expected):
                assert got.dtype == np.int64 and np.array_equal(got, want)
            assert np.array_equal(part.sizes, [c.size for c in expected])
            outliers = np.flatnonzero(part.community_of < 0)
            assert part.outliers.dtype == np.int64
            assert np.array_equal(part.outliers, outliers)

    def test_communities_read_once(self, two_triangles):
        part = scan_partition(two_triangles, ScanParams(0.5, 1))
        assert part.communities is part.communities


class TestScanParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScanParams(epsilon=1.5)
        with pytest.raises(ValueError):
            ScanParams(epsilon=-0.1)
        with pytest.raises(ValueError):
            ScanParams(mu=0)

    def test_mu_must_be_an_integer(self):
        # 2.5 used to act as 3 and True as 1
        for bad in (2.5, True, np.float64(2.0), "2"):
            with pytest.raises(ValueError, match="mu must be an integer"):
                ScanParams(mu=bad)
        assert ScanParams(mu=np.int64(3)).mu == 3


class TestScanPartition:
    def test_triangle_single_community(self, triangle):
        part = scan_partition(triangle, ScanParams(0.5, 1))
        assert as_sets(part) == ({frozenset({0, 1, 2})}, frozenset())

    def test_unsatisfiable_threshold(self, bridged_triangles):
        part = scan_partition(bridged_triangles, ScanParams(1.0, 7))
        assert part.num_communities == part.sizes.size == len(part.communities) == 0
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
        for g, eps, mu in brute_force_cases():
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
