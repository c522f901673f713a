from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from spal.pagerank import PageRankParams, pagerank
from spal.scan import ScanParams, scan_partition
from spal.selection import (
    STRATEGY_NAMES,
    _rank_order,
    check_budget,
    featprop_select,
    pagerank_select,
    random_select,
    spa_select,
    uncertainty_select,
)

from spal.synthetic import sbm_graph

from conftest import make_graph, random_graph
from oracles import spa_select_reference


def cycle_edges(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def clique_edges(n, offset=0):
    return [(offset + i, offset + j) for i in range(n) for j in range(i + 1, n)]


def star_edges(leaves, offset=0):
    return [(offset, offset + i) for i in range(1, leaves + 1)]


def _spa_cases() -> dict:
    """name -> (graph, ScanParams): graphs rich in exact PageRank ties,
    random graphs, the README SBM, and a threshold no edge reaches."""
    rng = np.random.default_rng(34)
    sbm = sbm_graph(4, 400, 0.1, 0.01, 1.0, 7)
    cases = {
        "cycle": (make_graph(cycle_edges(12)), ScanParams(0.5, 2)),
        "disjoint-cycles": (make_graph(cycle_edges(6) + cycle_edges(8, 6)), ScanParams(0.5, 2)),
        "clique": (make_graph(clique_edges(6)), ScanParams(0.5, 2)),
        "disjoint-cliques": (
            make_graph(clique_edges(4) + clique_edges(4, 4) + clique_edges(5, 8)),
            ScanParams(0.5, 2)),
        "bridged-cliques": (
            make_graph(clique_edges(4) + clique_edges(4, 4) + [(3, 4)]), ScanParams(0.6, 2)),
        "stars": (
            make_graph(star_edges(4) + star_edges(4, 5) + star_edges(6, 10)),
            ScanParams(0.5, 2)),
        "star-no-communities": (make_graph(star_edges(4)), ScanParams(0.9, 3)),
        "sbm-readme": (sbm, ScanParams(0.28, 2)),
        "sbm-eps1": (sbm, ScanParams(1.0, 2)),
    }
    for trial in range(4):
        g = random_graph(rng, 40, float(rng.uniform(0.05, 0.25)))
        cases[f"random{trial}"] = (g, ScanParams(float(rng.uniform(0.2, 0.5)), 2))
    return cases


SPA_CASES = _spa_cases()


class TestRankOrder:
    def test_top_node_tie_breaks_low_id(self):
        # a cycle's PageRank scores tie exactly; the ids are deliberately unsorted
        sv = pagerank(make_graph(cycle_edges(6)))
        ids = np.array([4, 2, 5, 0, 3, 1])
        assert ids[_rank_order(sv.scores, ids)[0]] == 0

    def test_descending_score_then_lowest_id(self):
        scores = np.array([0.1, 0.3, 0.3, 0.2, 0.3])
        ids = np.array([9, 7, 2, 1, 5])
        assert ids[_rank_order(scores, ids)].tolist() == [2, 5, 7, 1, 9]


class TestCheckBudget:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_below_one_rejected(self, name):
        with pytest.raises(ValueError, match="budget must be >= 1, got 0"):
            check_budget(name, 0, 5)

    def test_only_featprop_is_capped_by_the_node_count(self):
        for name in STRATEGY_NAMES:
            if name != "featprop":
                check_budget(name, 6, 5)
        check_budget("featprop", 5, 5)
        with pytest.raises(ValueError, match="cannot place 6 medoids among 5 nodes"):
            check_budget("featprop", 6, 5)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_non_integer_budget_rejected(self, name):
        for bad in (2.5, True, np.float64(2.0), "2"):
            with pytest.raises(ValueError, match="budget must be an integer"):
                check_budget(name, bad, 5)
        check_budget(name, np.int64(3), 5)

    def test_strategies_reject_non_integer_budgets(self, two_triangles):
        # 2.5 used to fail inside numpy slicing or sampling, and True picked one node
        calls = [
            lambda b: spa_select(two_triangles, b=b),
            lambda b: random_select(two_triangles, b, 0),
            lambda b: pagerank_select(two_triangles, b=b),
            lambda b: featprop_select(two_triangles, b=b),
            lambda b: uncertainty_select(np.full((6, 2), 0.5), [], b),
        ]
        for call in calls:
            for bad in (2.5, True):
                with pytest.raises(ValueError, match="budget must be an integer"):
                    call(bad)

    def test_numpy_integer_budget(self, two_triangles):
        res = pagerank_select(two_triangles, b=np.int64(2))
        assert len(res.selected) == 2


class TestSpaSelect:
    def test_two_triangles_budget_two(self, two_triangles):
        res = spa_select(two_triangles, ScanParams(0.5, 1), b=2)
        assert res.selected == [0, 3]
        assert [r.community for r in res.provenance] == [0, 1]
        for r in res.provenance:
            assert r.score == pytest.approx(1 / 3)

    def test_two_triangles_budget_four(self, two_triangles):
        res = spa_select(two_triangles, ScanParams(0.5, 1), b=4)
        # reps {0, 3} first, then global top-up (all tied at 1/6 -> lowest ids)
        assert res.selected == [0, 3, 1, 2]
        assert [r.community for r in res.provenance] == [0, 1, -1, -1]

    def test_budget_saturation(self, two_triangles):
        res = spa_select(two_triangles, ScanParams(0.5, 1), b=100)
        assert sorted(res.selected) == list(range(6))
        assert res.budget == 100

    def test_more_communities_than_budget(self, two_triangles):
        # k = 2 communities, b = 1: keep the rep with highest global PageRank
        res = spa_select(two_triangles, ScanParams(0.5, 1), b=1)
        assert res.selected == [0]  # global scores all tie -> lowest id

    def test_no_communities_reduces_to_global_pagerank(self, star5):
        # leaves of a star share only the center: similarity 0.5 < 0.9
        res = spa_select(star5, ScanParams(0.9, 3), b=2)
        pr = pagerank_select(star5, b=2)
        assert res.selected == pr.selected
        assert all(r.community == -1 for r in res.provenance)

    def test_representative_maximality(self):
        rng = np.random.default_rng(30)
        from spal.scan import scan_partition

        for _ in range(5):
            g = random_graph(rng, 30, 0.2)
            params = ScanParams(0.4, 2)
            res = spa_select(g, params, b=30)
            part = scan_partition(g, params)
            rep_of = {r.community: r.node for r in res.provenance if r.community >= 0}
            for cid, community in enumerate(part.communities):
                sv = pagerank(g, subset=community)
                rep_idx = np.searchsorted(sv.node_ids, rep_of[cid])
                assert not (sv.scores > sv.scores[rep_idx]).any()

    def test_invalid_budget(self, triangle):
        with pytest.raises(ValueError):
            spa_select(triangle, b=0)

    def test_ordered_by_score(self, two_triangles):
        res = spa_select(two_triangles, ScanParams(0.5, 1), b=6)
        scores = [r.score for r in res.provenance]
        assert scores == sorted(scores, reverse=True)


class TestSpaMatchesReference:
    """The array implementation against the per-community record loop."""

    @pytest.mark.parametrize("name", SPA_CASES)
    def test_to_dict_identical(self, name):
        g, params = SPA_CASES[name]
        k, n = scan_partition(g, params).num_communities, g.num_nodes
        # cut, exact fit, top-up, full and saturated budgets
        for b in sorted(b for b in {1, k - 1, k, k + 1, n, n + 3} if b >= 1):
            got = spa_select(g, params, b=b).to_dict()
            want = spa_select_reference(g, params, b=b).to_dict()
            for d in (got, want):
                d.pop("query_time_ms")
            assert list(got.items()) == list(want.items()), (name, b)

    def test_cases_cover_every_path(self):
        k = {name: scan_partition(*case).num_communities for name, case in SPA_CASES.items()}
        assert k["star-no-communities"] == k["sbm-eps1"] == 0
        assert k["disjoint-cliques"] == 3 and k["sbm-readme"] > 1


class TestConvergenceWarning:
    def test_spa_warns_once_with_capped_block_count(self):
        g = sbm_graph(4, 400, 0.1, 0.01, 1.0, 7)
        with pytest.warns(RuntimeWarning, match=r"max_iterations=1 .* of \d+ community blocks") as rec:
            spa_select(g, ScanParams(0.28, 2), PageRankParams(max_iterations=1), b=10)
        assert len(rec) == 1

    def test_spa_warns_on_global_vector(self, star5):
        # no communities, so the picks come from the global vector alone
        with pytest.warns(RuntimeWarning, match="on the global vector"):
            spa_select(star5, ScanParams(0.9, 3), PageRankParams(max_iterations=1), b=2)

    def test_pagerank_select_warns(self, star5):
        with pytest.warns(RuntimeWarning, match="global vector"):
            pagerank_select(star5, PageRankParams(max_iterations=1), b=2)

    def test_converged_runs_are_silent(self, two_triangles):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spa_select(two_triangles, ScanParams(0.5, 1), b=4)
            pagerank_select(two_triangles, b=2)


class TestRandomSelect:
    def test_budget_saturation(self, triangle):
        assert sorted(random_select(triangle, 3, seed=0).selected) == [0, 1, 2]
        assert sorted(random_select(triangle, 10, seed=0).selected) == [0, 1, 2]

    def test_deterministic(self, two_triangles):
        a = random_select(two_triangles, 3, seed=7)
        b = random_select(two_triangles, 3, seed=7)
        assert a.selected == b.selected

    def test_uniformity(self):
        g = make_graph([(i, (i + 1) % 10) for i in range(10)])
        counts = np.zeros(10)
        for trial in range(10_000):
            counts[random_select(g, 1, seed=trial).selected[0]] += 1
        freq = counts / 10_000
        sigma = np.sqrt(0.1 * 0.9 / 10_000)
        assert np.abs(freq - 0.1).max() <= 3 * sigma


class TestPagerankSelect:
    def test_star_center_first(self, star5):
        res = pagerank_select(star5, PageRankParams(damping=0.85), b=1)
        assert res.selected == [0]

    def test_cycle_tie_break(self):
        g = make_graph([(i, (i + 1) % 6) for i in range(6)])
        assert pagerank_select(g, b=3).selected == [0, 1, 2]

    def test_full_budget_sorted_by_score(self, star5):
        res = pagerank_select(star5, b=5)
        scores = [r.score for r in res.provenance]
        assert scores == sorted(scores, reverse=True)
        assert sorted(res.selected) == list(range(5))

    def test_monotone_nesting(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 20, 0.2)
        previous = []
        for b in range(1, 21):
            current = pagerank_select(g, b=b).selected
            assert current[: len(previous)] == previous
            previous = current


class TestUncertaintySelect:
    def test_uniform_row_ranks_first(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1], [1.0, 0, 0, 0]])
        res = uncertainty_select(probs, labeled=set(), b=3)
        assert res.selected == [0, 1, 2]  # uniform first, one-hot last

    def test_binary_entropy_ordering(self):
        p = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
        probs = np.stack([p, 1 - p], axis=1)
        res = uncertainty_select(probs, labeled=set(), b=2)
        assert sorted(res.selected) == [0, 1]

    def test_excludes_labeled(self):
        probs = np.full((4, 2), 0.5)
        res = uncertainty_select(probs, labeled={0, 2}, b=4)
        assert sorted(res.selected) == [1, 3]

    @pytest.mark.parametrize("labeled", [{-1}, {7}, {0.5}])
    def test_bad_labeled_ids_rejected(self, labeled):
        with pytest.raises(ValueError, match="labeled node id"):
            uncertainty_select(np.full((4, 2), 0.5), labeled=labeled, b=2)

    def test_all_labeled_error(self):
        probs = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="labeled"):
            uncertainty_select(probs, labeled={0, 1}, b=1)

    def test_malformed_rows_error(self):
        with pytest.raises(ValueError, match="distribution"):
            uncertainty_select(np.array([[0.5, 0.9]]), labeled=set(), b=1)

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0]])
    def test_non_finite_row_rejected(self, row):
        probs = np.array([[0.5, 0.5], row, [0.9, 0.1]])
        with pytest.raises(ValueError, match="probability row 1 is not a finite distribution"):
            uncertainty_select(probs, labeled=set(), b=3)

    def test_tie_break_low_id(self):
        probs = np.full((5, 3), 1 / 3)
        res = uncertainty_select(probs, labeled=set(), b=2)
        assert res.selected == [0, 1]


class TestFeatpropSelect:
    def test_budget_saturation(self, two_triangles):
        res = featprop_select(two_triangles, b=6, seed=0)
        assert sorted(res.selected) == list(range(6))

    def test_two_cliques_one_medoid_each(self):
        # disconnected cliques with cluster-constant features
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i + 5, j + 5) for i in range(5) for j in range(i + 1, 5)]
        features = np.zeros((10, 2))
        features[5:] = [50.0, -50.0]
        g = make_graph(edges, num_nodes=10, features=features)
        res = featprop_select(g, steps=2, b=2, seed=0)
        assert sorted(v // 5 for v in res.selected) == [0, 1]

    def test_steps_zero_uses_raw_features(self):
        rng = np.random.default_rng(32)
        features = rng.standard_normal((8, 3))
        g = make_graph([(i, (i + 1) % 8) for i in range(8)], features=features)
        from spal.kmedoids import kmedoids

        res = featprop_select(g, steps=0, b=3, seed=5)
        assert res.selected == kmedoids(features, 3, seed=5).tolist()

    def test_budget_exceeding_nodes_errors(self, triangle):
        with pytest.raises(ValueError, match="medoid"):
            featprop_select(triangle, b=4)


class TestContracts:
    """Shared invariants: size, uniqueness, determinism."""

    @pytest.mark.parametrize("budget", [1, 2, 5, 11])
    def test_all_strategies(self, budget):
        rng = np.random.default_rng(33)
        g = random_graph(rng, 11, 0.3)
        probs = rng.dirichlet(np.ones(3), size=11)

        runs = {
            "spa": lambda: spa_select(g, ScanParams(0.4, 1), b=budget),
            "random": lambda: random_select(g, budget, seed=4),
            "pagerank": lambda: pagerank_select(g, b=budget),
            "uncertainty": lambda: uncertainty_select(probs, set(), budget),
            "featprop": lambda: featprop_select(g, b=budget, seed=4),
        }
        for name, call in runs.items():
            first = call()
            assert len(first.selected) == min(budget, 11), name
            assert len(set(first.selected)) == len(first.selected), name
            assert all(0 <= v < 11 for v in first.selected), name
            assert call().selected == first.selected, name
            assert first.query_time_ms >= 0.0


def test_selection_json_roundtrip(tmp_path, two_triangles):
    res = spa_select(two_triangles, ScanParams(0.5, 1), b=3)
    path = tmp_path / "sel.json"
    res.write_json(path)
    data = json.loads(path.read_text())
    assert data["strategy"] == "spa"
    assert data["budget"] == 3
    assert data["selected"] == res.selected
    assert len(data["provenance"]) == 3
    assert {"node", "community", "score"} <= set(data["provenance"][0])
