from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from spal import pagerank as pagerank_module
from spal.pagerank import PageRankParams, pagerank, pagerank_blocks, pagerank_partition
from spal.scan import ScanParams, scan_partition
from spal.synthetic import sbm_graph

from conftest import heavy_tailed_graph, make_graph, random_graph
from oracles import block_power_reference, pagerank_dense_solve


def cycle_graph(n):
    return make_graph([(i, (i + 1) % n) for i in range(n)])


def one_block(g, block, params=None):
    """``pagerank_partition`` with ``block`` as its only block: PageRank on
    the subgraph ``block`` induces."""
    community_of = np.full(g.num_nodes, -1)
    community_of[block] = 0
    return pagerank_partition(g, community_of, params)


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

    def test_max_iterations_fits_int64(self, star5):
        # both passes count iterations in int64
        with pytest.raises(ValueError, match=r"max_iterations must be <= 2\*\*63 - 1, got 9"):
            PageRankParams(max_iterations=2**63)
        params = PageRankParams(max_iterations=2**63 - 1)
        assert pagerank(star5, params=params).converged


class TestPageRank:
    def test_cycle_uniform(self):
        sv = pagerank(cycle_graph(5))
        assert np.abs(sv.scores - 0.2).max() < 1e-9
        assert sv.converged

    def test_single_node_subset(self, triangle):
        block = one_block(triangle, [1])
        assert block.scores.tolist() == [1.0]
        assert block.converged.tolist() == [True]
        assert block.iterations.tolist() == [1]

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
        block = one_block(bridged_triangles, [0, 1, 2])
        assert np.abs(block.scores - 1 / 3).max() < 1e-9

    def test_subset_all_dangling(self, path3):
        # {0, 2} induces no edges: both nodes dangle, mass stays uniform
        block = one_block(path3, [0, 2])
        assert np.allclose(block.scores, 0.5)

    def test_float_ids_rejected(self, bridged_triangles):
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
            block = one_block(path3, [0, 2], PageRankParams(max_iterations=cap))
            assert abs(block.scores.sum() - 1.0) < 1e-9


class TestPagerankBlocks:
    def test_matches_per_subset_calls(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 40, 0.15)
        blocks = [np.arange(0, 13), np.arange(13, 30), np.arange(30, 40)]
        batched = pagerank_blocks(g, blocks)
        for block, sv in zip(blocks, batched):
            single = one_block(g, block)
            assert np.array_equal(sv.scores, single.scores)
            assert [sv.iterations_used] == single.iterations.tolist()
            assert [sv.converged] == single.converged.tolist()

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
    whether settled blocks stay in the product, drifting, or are compacted
    away."""

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


class TestSettledBlocksDrift:
    """A settled block's rows keep iterating, unread, until a compaction
    drops them; its scores are the ones of the iteration it settled in.
    Never compacting and a loose tolerance let them drift far for the
    whole run."""

    PARAMS = PageRankParams(tolerance=1e-3)

    @pytest.fixture(autouse=True)
    def never_compact(self, monkeypatch):
        monkeypatch.setattr(pagerank_module, "_COMPACT_BELOW", 0.0)

    @pytest.fixture
    def fast_and_slow(self):
        # a triangle with a pendant settles fast; a bipartite path oscillates
        path = [(i, i + 1) for i in range(4, 43)]
        return make_graph([(0, 1), (1, 2), (0, 2), (0, 3), *path]), [range(4), range(4, 44)]

    def test_matches_reference(self, fast_and_slow):
        g, blocks = fast_and_slow
        iterations, converged = assert_matches_reference(g, blocks, self.PARAMS)
        assert converged.all() and iterations[0] < iterations[1]

    def test_matches_reference_with_the_slow_block_capped(self, fast_and_slow):
        g, blocks = fast_and_slow
        settle = pagerank_blocks(g, blocks, self.PARAMS)
        cap = settle[1].iterations_used - 1
        assert settle[0].iterations_used < cap
        params = PageRankParams(tolerance=1e-3, max_iterations=cap)
        iterations, converged = assert_matches_reference(g, blocks, params)
        assert converged.tolist() == [True, False] and iterations[1] == cap

    @pytest.mark.parametrize("params", [PageRankParams(), PageRankParams(max_iterations=7)])
    def test_one_block_with_dangling_nodes(self, params):
        # a star plus isolated nodes: one block, its spread added as a scalar
        g = make_graph(star_edges(5), num_nodes=9)
        scores, iterations, converged = block_power_reference(g, [np.arange(9)], params)
        sv = pagerank(g, params=params)
        assert np.array_equal(sv.scores, scores)
        assert (sv.iterations_used, sv.converged) == (iterations[0], converged[0])


@pytest.fixture
def exact_sums(monkeypatch):
    """How many blocks each ``_exact_steps`` call summed, one entry per call."""
    calls = []
    exact_steps = pagerank_module._exact_steps

    def counting(change, rows, block_of, blocks):
        calls.append(int(np.count_nonzero(blocks)))
        return exact_steps(change, rows, block_of, blocks)

    monkeypatch.setattr(pagerank_module, "_exact_steps", counting)
    return calls


def reference_steps(g, blocks, damping, it):
    """Each block's L1 step at iteration ``it`` of the lockstep reference,
    summed in its order, with no block settling on the way (a block whose
    step is exactly 0 settles, and its step stays 0)."""
    def scores_after(i):
        if i == 0:
            return np.concatenate([np.full(len(b), 1.0 / len(b)) for b in blocks])
        return block_power_reference(g, blocks, PageRankParams(damping, 5e-324, i))[0]

    block_of = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    return np.bincount(block_of, weights=np.abs(scores_after(it) - scores_after(it - 1)))


class TestConvergenceEstimate:
    """The loop decides convergence from a working-order sum and sums a
    block in id order only when that estimate cannot decide; the decisions,
    and so the scores, iteration counts and flags, are the reference's."""

    @pytest.mark.parametrize("terms", [1, 2, 1000, 10**6])
    @pytest.mark.parametrize("tolerance", [5e-324, 1e-300, 1e-8, 1.0, 10.0, 1.7e308])
    def test_bounds_bracket_the_tolerance(self, tolerance, terms):
        below, above = pagerank_module._decisive_bounds(tolerance, terms)
        if terms == 1:  # one term is summed exactly
            assert below == tolerance == above
        else:
            assert below < tolerance < above
        r = 2**53 - 2 * (terms - 1)  # (1 - gamma) / (1 + gamma), times 2**53
        a, b = tolerance.as_integer_ratio()
        # exactly: below <= tolerance * r / 2**53 < the next float up, and
        # above >= tolerance * 2**53 / r > the next float down
        p, q = below.as_integer_ratio()
        assert p * b * 2**53 <= a * r * q
        p, q = np.nextafter(below, np.inf).as_integer_ratio()
        assert p * b * 2**53 > a * r * q
        if above != np.inf:
            p, q = above.as_integer_ratio()
            assert p * b * r >= a * 2**53 * q
            p, q = np.nextafter(above, 0.0).as_integer_ratio()
            assert p * b * r < a * 2**53 * q

    def test_subnormal_and_overflowing_bounds(self):
        assert pagerank_module._decisive_bounds(5e-324, 2) == (0.0, 1e-323)
        assert pagerank_module._decisive_bounds(1.7976931348623157e308, 2)[1] == np.inf

    @pytest.mark.parametrize("it", [3, 8])
    @pytest.mark.parametrize("nudge", [0, 1], ids=["equal", "above"])
    def test_tolerance_at_an_exact_step_whole_graph(self, exact_sums, it, nudge):
        # the tolerance is the reference's step itself (does not settle) or
        # the next float up (settles), so the estimate cannot decide
        g = random_graph(np.random.default_rng(44), 150, 0.05)
        blocks = [np.arange(g.num_nodes)]
        step = float(reference_steps(g, blocks, 0.9, it)[0])
        params = PageRankParams(0.9, np.nextafter(step, np.inf) if nudge else step, 40)
        scores, iterations, converged = block_power_reference(g, blocks, params)
        sv = pagerank(g, params=params)
        assert np.array_equal(sv.scores, scores)
        assert (sv.iterations_used, sv.converged) == (iterations[0], converged[0])
        assert exact_sums, "the estimate decided alone"
        if nudge:
            assert sv.iterations_used <= it

    @pytest.mark.parametrize("nudge", [0, 1], ids=["equal", "above"])
    def test_tolerance_at_an_exact_step_partition(self, exact_sums, nudge):
        rng = np.random.default_rng(45)
        g = random_graph(rng, 160, 0.06)
        blocks = [np.sort(b) for b in np.array_split(rng.permutation(160), 4)]
        steps = reference_steps(g, blocks, 0.95, 6)
        step = float(steps[np.argmax(steps)])
        params = PageRankParams(0.95, np.nextafter(step, np.inf) if nudge else step, 60)
        assert_matches_reference(g, blocks, params)
        assert exact_sums, "the estimate decided alone"

    def test_rows_of_many_lengths_with_dangling_members(self, exact_sums):
        """Blocks whose rows have many lengths, with several dangling members
        in two or more blocks under shuffled ids, so that the rows of equal
        length, and the dangling rows in particular, interleave across
        blocks. The bits cannot show whether the length sort is stable: a
        block's dangling members have no edge in it, so they always hold
        one score and add to the same mass in any order."""
        rng = np.random.default_rng(46)
        n = 300
        weights = np.arange(1, n + 1) ** -0.8
        edges = rng.choice(n, size=(900, 2), p=weights / weights.sum())
        edges = edges[edges[:, 0] != edges[:, 1]]
        perm = rng.permutation(n + 12)  # 12 more nodes without edges
        g = make_graph(perm[edges], num_nodes=n + 12)
        ids = rng.permutation(n + 12)
        blocks = [np.sort(b) for b in np.array_split(ids, 5)]
        lengths = [np.diff(pagerank_module._induced_csr(
            g, b, np.zeros(b.size, dtype=np.int64))[0]) for b in blocks]
        assert sum((lens == 0).sum() >= 2 for lens in lengths) >= 2
        assert all(np.unique(lens).size >= 5 for lens in lengths)
        for params in (PageRankParams(), PageRankParams(0.85, 1e-12, 200),
                       PageRankParams(0.9, 1e-6, 4)):
            assert_matches_reference(g, blocks, params)
        assert not exact_sums

    @pytest.mark.parametrize("tolerance", [5e-324, 10.0, 1.7976931348623157e308])
    def test_extreme_tolerances(self, tolerance):
        # 5e-324: no step but an exact 0 is below it, so only one-member
        # blocks settle; 10.0 and above: every step is below, all settle at 1
        rng = np.random.default_rng(47)
        g = random_graph(rng, 120, 0.05)
        params = PageRankParams(0.95, tolerance, 30)
        iterations, _ = assert_matches_reference(g, random_blocks(rng, 120), params)
        assert (iterations == 1).any()
        scores, iterations, converged = block_power_reference(
            g, [np.arange(g.num_nodes)], params)
        sv = pagerank(g, params=params)
        assert np.array_equal(sv.scores, scores)
        assert (sv.iterations_used, sv.converged) == (iterations[0], converged[0])
        assert sv.iterations_used == (30 if tolerance < 1 else 1)


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
    a one-block partition of itself to the bit."""

    PARAMS = [PageRankParams(), PageRankParams(0.85, 1e-12, 7), PageRankParams(max_iterations=2)]

    @pytest.fixture
    def iterated_blocks(self, monkeypatch):
        """The block count of every ``_power_iterate`` call."""
        counts = []
        iterate = pagerank_module._power_iterate

        def counting_iterate(indptr, indices, block_of, params):
            counts.append(int(block_of.max()) + 1)
            return iterate(indptr, indices, block_of, params)

        monkeypatch.setattr(pagerank_module, "_power_iterate", counting_iterate)
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
            single = one_block(g, block, params)
            assert np.array_equal(sv.scores, single.scores)
            assert [(it, c)] == list(zip(single.iterations, single.converged))

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

    @pytest.mark.parametrize("bad_id", [20, 5_000_000])
    def test_out_of_range_id_rejected_before_counting(self, bad_id):
        # every id 0..k-1 in use means k <= the 20 members; 5e6 used to size
        # a 40 MB bincount before the check, and 1e11 asked for 800 GB
        g = sbm_graph(2, 20, 0.5, 0.1, 1.0, 0)
        assert g.num_nodes == 20
        community_of = np.zeros(g.num_nodes, dtype=np.int64)
        community_of[7] = bad_id
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="every id in use"):
                pagerank_partition(g, community_of)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

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
    # The per-edge bincount loop peaked at 7.35 MB here, and the CSR loop at
    # 3.2 MB while it wrapped the graph's arrays. Its working copy with rows
    # in length order, int32 and built in chunks, peaks at 3.62 MB; an int64
    # copy of the whole graph's CSR peaked at 5.9 MB, past the unit weights
    # (8 bytes per CSR entry) plus 16 score vectors.
    assert peak < 8 * g.csr_targets.size + 16 * 8 * n


def test_partition_peak_memory():
    g = heavy_tailed_graph()
    community_of = scan_partition(g, ScanParams(0.3, 2)).community_of
    tracemalloc.start()
    try:
        pagerank_partition(g, community_of)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Building the induced CSR from int64 labels, three per-entry arrays
    # alive at once, peaked at 4.37 MB (27 B per CSR entry); int32 labels
    # freed early peak at 2.06 MB.
    assert peak < 16 * g.csr_targets.size

