from __future__ import annotations

import json
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spal import gcn
from spal import selection as selection_module
from spal.experiment import run_strategy
from spal.graph import propagate
from spal.pagerank import PageRankParams, pagerank, pagerank_blocks, pagerank_partition
from spal.scan import ScanParams, scan_partition
from spal.selection import (
    FEATPROP_STEPS,
    STRATEGY_NAMES,
    Stopwatch,
    _rank_order,
    check_budget,
    featprop_select,
    pagerank_select,
    random_select,
    spa_select,
    uncertainty_select,
)

from spal.synthetic import sbm_graph

from conftest import heavy_tailed_graph, make_graph, random_graph
from oracles import block_power_reference, spa_select_reference


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
            lambda b: uncertainty_select(two_triangles, b, 0),
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
        assert res.communities == [0, 1]
        assert res.scores == pytest.approx([1 / 3, 1 / 3])

    def test_two_triangles_budget_four(self, two_triangles):
        res = spa_select(two_triangles, ScanParams(0.5, 1), b=4)
        # reps {0, 3} first, then global top-up (all tied at 1/6 -> lowest ids)
        assert res.selected == [0, 3, 1, 2]
        assert res.communities == [0, 1, -1, -1]

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
        assert res.communities == [-1, -1]

    def test_representative_maximality(self):
        rng = np.random.default_rng(30)
        from spal.scan import scan_partition

        for _ in range(5):
            g = random_graph(rng, 30, 0.2)
            params = ScanParams(0.4, 2)
            res = spa_select(g, params, b=30)
            part = scan_partition(g, params)
            rep_of = {c: v for v, c in zip(res.selected, res.communities) if c >= 0}
            for cid, community in enumerate(part.communities):
                scores, _, _ = block_power_reference(g, [community], PageRankParams())
                rep_idx = np.searchsorted(community, rep_of[cid])
                assert not (scores > scores[rep_idx]).any()

    def test_invalid_budget(self, triangle):
        with pytest.raises(ValueError):
            spa_select(triangle, b=0)

    def test_ordered_by_score(self, two_triangles):
        res = spa_select(two_triangles, ScanParams(0.5, 1), b=6)
        assert res.scores == sorted(res.scores, reverse=True)


class TestSpaMatchesReference:
    """The array implementation against the per-community tuple loop."""

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

    def test_thousands_of_tied_representatives(self):
        # not in SPA_CASES: the nesting test would run ~800 budgets on it
        g, params = heavy_tailed_graph(), ScanParams(0.3, 2)
        assignment = scan_partition(g, params)
        blocks = pagerank_partition(g, assignment.community_of)
        member_of = assignment.community_of[blocks.node_ids]
        top = np.full(assignment.num_communities, -np.inf)
        np.maximum.at(top, member_of, blocks.scores)
        at_top = np.bincount(member_of[blocks.scores == top[member_of]])
        assert np.count_nonzero(at_top > 1) >= 1000  # exact ties for the top score
        k = assignment.num_communities
        for b in (k - 1, k, k + 1):
            got = spa_select(g, params, b=b).to_dict()
            want = spa_select_reference(g, params, b=b).to_dict()
            for d in (got, want):
                d.pop("query_time_ms")
            assert list(got.items()) == list(want.items()), b

    def test_cases_cover_every_path(self):
        k = {name: scan_partition(*case).num_communities for name, case in SPA_CASES.items()}
        assert k["star-no-communities"] == k["sbm-eps1"] == 0
        assert k["disjoint-cliques"] == 3 and k["sbm-readme"] > 1


@pytest.mark.parametrize("name", SPA_CASES)
def test_spa_picks_nest_across_budgets(name):
    """The picks at budget b are a strict subset of those at b + 1: every
    budget below n on graphs under 100 nodes; on the 400-node SBMs, around
    the community count, at the ends and at every 25th budget."""
    g, params = SPA_CASES[name]
    k, n = scan_partition(g, params).num_communities, g.num_nodes
    if n < 100:
        budgets = set(range(1, n))
    else:
        budgets = {b for b in (1, k - 1, k, k + 1, n - 1) if b >= 1} | set(range(25, n, 25))
    picks = {b: set(spa_select(g, params, b=b).selected)
             for b in budgets | {b + 1 for b in budgets}}
    for b in sorted(budgets):
        assert picks[b] < picks[b + 1], (name, b)


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


@pytest.fixture
def overlap_everywhere(monkeypatch):
    """Run spa's global PageRank loop on a worker thread at every graph size."""
    monkeypatch.setattr(selection_module, "_OVERLAP_FROM", 0)


@pytest.fixture
def pools_started(monkeypatch):
    """Counts the thread pools spa_select starts."""
    started = []

    def counting_pool(*args, **kwargs):
        started.append(kwargs)
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(selection_module, "ThreadPoolExecutor", counting_pool)
    return started


def test_small_graphs_run_inline(pools_started):
    g = sbm_graph(4, 400, 0.1, 0.01, 1.0, 7)
    assert g.csr_targets.size < selection_module._OVERLAP_FROM
    spa_select(g, ScanParams(0.28, 2), b=1)
    assert pools_started == []


@pytest.mark.usefixtures("overlap_everywhere")
class TestSpaMatchesReferenceOverlapped(TestSpaMatchesReference):
    """Every budget class with the global vector computed on a worker thread."""


@pytest.mark.usefixtures("overlap_everywhere")
class TestConvergenceWarningOverlapped(TestConvergenceWarning):
    """The warnings with the global vector computed on a worker thread."""

    def test_global_vector_reported_only_when_used(self):
        # every budget ranks the representatives by the global vector, so a
        # capped one is named at an exact fit too
        g = sbm_graph(4, 400, 0.1, 0.01, 1.0, 7)
        params = ScanParams(0.28, 2)
        k = scan_partition(g, params).num_communities
        capped = PageRankParams(max_iterations=1)
        for b in (k, k - 1, k + 1):
            with pytest.warns(RuntimeWarning) as rec:
                spa_select(g, params, capped, b=b)
            assert len(rec) == 1
            assert "the global vector" in str(rec[0].message), b


@pytest.mark.usefixtures("overlap_everywhere")
class TestOverlappedGlobalPagerank:
    def test_one_pool_per_call_in_every_budget_class(self, pools_started, monkeypatch):
        # the global loop starts before SCAN, in every budget class
        g, params = SPA_CASES["disjoint-cliques"]
        for b in (3, 2, 4):  # three communities: exact fit, cut, top-up
            got = spa_select(g, params, b=b).to_dict()
            want = spa_select_reference(g, params, b=b).to_dict()
            for d in (got, want):
                d.pop("query_time_ms")
            assert got == want, b
        assert len(pools_started) == 3
        monkeypatch.setattr(selection_module, "_OVERLAP_FROM", g.csr_targets.size + 1)
        for b in (3, 2, 4):
            spa_select(g, params, b=b)
        assert len(pools_started) == 3  # none below the threshold

    def test_scores_bit_identical_to_pagerank(self):
        g = heavy_tailed_graph()
        scan_params, params = ScanParams(0.3, 2), PageRankParams()
        assignment, blocks, global_sv = selection_module._partition_and_pagerank(
            g, scan_params, params)
        assert np.array_equal(assignment.community_of,
                              scan_partition(g, scan_params).community_of)
        want = pagerank(g, params=params)
        assert np.array_equal(global_sv.scores, want.scores)
        assert np.array_equal(global_sv.node_ids, want.node_ids)
        assert (global_sv.iterations_used, global_sv.converged) == (
            want.iterations_used, want.converged)
        ref = pagerank_partition(g, assignment.community_of, params)
        for name in ("node_ids", "scores", "iterations", "converged"):
            assert np.array_equal(getattr(blocks, name), getattr(ref, name)), name
        # and per block, against the list form
        by_block = np.argsort(assignment.community_of[blocks.node_ids], kind="stable")
        ends = np.cumsum(assignment.sizes)
        for got_ids, got_scores, sv in zip(
                np.split(blocks.node_ids[by_block], ends[:-1]),
                np.split(blocks.scores[by_block], ends[:-1]),
                pagerank_blocks(g, assignment.communities, params), strict=True):
            assert np.array_equal(got_ids, sv.node_ids)
            assert np.array_equal(got_scores, sv.scores)

    def test_concurrent_calls_under_a_short_switch_interval(self, monkeypatch):
        # more callers than cores, each with its own worker, switching often
        g, params = SPA_CASES["sbm-readme"]
        want = [spa_select(g, params, b=b).selected for b in (5, 60)]
        monkeypatch.setattr(selection_module, "_OVERLAP_FROM", 1 << 62)
        assert [spa_select(g, params, b=b).selected for b in (5, 60)] == want
        monkeypatch.setattr(selection_module, "_OVERLAP_FROM", 0)
        got = {}

        def call(i):
            got[i] = [spa_select(g, params, b=b).selected for b in (5, 60)]

        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == {i: want for i in range(4)}

    def test_no_thread_outlives_a_return(self, two_triangles):
        before = threading.enumerate()
        spa_select(two_triangles, ScanParams(0.5, 1), b=4)
        assert threading.enumerate() == before

    def test_worker_failure_reaches_the_caller(self, monkeypatch, two_triangles):
        ran_on = []

        def failing_pagerank(g, params=None):
            ran_on.append(threading.current_thread())
            raise FloatingPointError("loop failed")

        monkeypatch.setattr(selection_module, "pagerank", failing_pagerank)
        before = threading.enumerate()
        for b in (4, 2):  # two communities: top-up, and an exact fit
            with pytest.raises(FloatingPointError, match="loop failed"):
                spa_select(two_triangles, ScanParams(0.5, 1), b=b)
        assert len(ran_on) == 2 and threading.current_thread() not in ran_on
        assert threading.enumerate() == before

    @staticmethod
    def assert_failure_joins_the_worker(monkeypatch, g, stage):
        """A failure in ``stage`` on the caller's thread reaches the caller
        after the worker ran to its end, in the exact-fit and top-up cases."""
        finished = []
        real_pagerank = selection_module.pagerank

        def recording_pagerank(g, params=None):
            finished.append(real_pagerank(g, params))

        def failing_stage(*args, **kwargs):
            raise FloatingPointError(f"{stage} failed")

        monkeypatch.setattr(selection_module, "pagerank", recording_pagerank)
        monkeypatch.setattr(selection_module, stage, failing_stage)
        before = threading.enumerate()
        for b in (2, 4):  # two communities: exact fit, top-up
            with pytest.raises(FloatingPointError, match=f"{stage} failed"):
                spa_select(g, ScanParams(0.5, 1), b=b)
        assert len(finished) == 2  # each worker ran to its end before the raise
        assert threading.enumerate() == before

    def test_block_failure_joins_the_worker(self, monkeypatch, two_triangles):
        self.assert_failure_joins_the_worker(monkeypatch, two_triangles, "pagerank_partition")

    def test_scan_failure_joins_the_worker(self, monkeypatch, two_triangles):
        self.assert_failure_joins_the_worker(monkeypatch, two_triangles, "scan_partition")


@pytest.mark.usefixtures("overlap_everywhere")
def test_overlapped_spa_peak_memory():
    g = heavy_tailed_graph()
    n, entries = g.num_nodes, g.csr_targets.size
    spa_select(g, ScanParams(0.3, 2), b=100)  # imports csgraph, whose memory is not spa's
    tracemalloc.start()
    try:
        spa_select(g, ScanParams(0.3, 2), b=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The global loop's arrays stay alive through SCAN, so the peak is
    # SCAN's (70 B per CSR entry) plus the whole-graph loop's: measured here
    # at 89 B per entry, against 70 B with the loop started after SCAN.
    # The bound adds the two tests' bounds: SCAN's 80 B per entry, and
    # unit weights plus 16 score vectors.
    assert peak < 80 * entries + 8 * entries + 16 * 8 * n


class TestSeedAndStepsChecks:
    def test_random_select_rejects_a_bool_seed(self, two_triangles):
        with pytest.raises(ValueError, match="seed must be an integer, got True"):
            random_select(two_triangles, 2, True)

    def test_random_select_rejects_a_float_seed(self, two_triangles):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            random_select(two_triangles, 2, 1.5)

    def test_numpy_integer_seeds_accepted(self, two_triangles):
        assert random_select(two_triangles, 2, np.int64(7)).selected == random_select(
            two_triangles, 2, 7).selected
        assert featprop_select(two_triangles, b=2, seed=np.int64(3)).selected == (
            featprop_select(two_triangles, b=2, seed=3).selected)


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
        assert res.scores == sorted(res.scores, reverse=True)
        assert sorted(res.selected) == list(range(5))

    def test_monotone_nesting(self):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 20, 0.2)
        previous = []
        for b in range(1, 21):
            current = pagerank_select(g, b=b).selected
            assert current[: len(previous)] == previous
            previous = current


def select_on_rows(monkeypatch, probs, b):
    """``uncertainty_select`` at budget b, its forward pass returning ``probs``."""
    monkeypatch.setattr(gcn, "gcn_forward", lambda model, g: probs)
    return uncertainty_select(make_graph(cycle_edges(len(probs))), b)


class TestUncertaintySelect:
    def test_uniform_row_ranks_first(self, monkeypatch):
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1], [1.0, 0, 0, 0]])
        res = select_on_rows(monkeypatch, probs, b=3)
        assert res.selected == [0, 1, 2]  # uniform first, one-hot last

    def test_binary_entropy_ordering(self, monkeypatch):
        p = np.array([0.5, 0.6, 0.7, 0.8, 0.9])
        probs = np.stack([p, 1 - p], axis=1)
        res = select_on_rows(monkeypatch, probs, b=2)
        assert sorted(res.selected) == [0, 1]

    @pytest.mark.parametrize("row", [[np.nan, np.nan], [0.5, np.nan], [np.inf, 0.0]])
    def test_non_finite_row_rejected(self, monkeypatch, row):
        # the hand-built rows stand in for the softmax output, so the forward
        # pass's own finiteness check is the one that refuses them
        probs = np.array([[0.5, 0.5], row, [0.9, 0.1]])
        monkeypatch.setattr(gcn, "_softmax", lambda logits: probs)
        with pytest.raises(ValueError, match="row 1 is not finite"):
            uncertainty_select(make_graph(cycle_edges(3)), b=3)

    def test_tie_break_low_id(self, monkeypatch):
        probs = np.full((5, 3), 1 / 3)
        res = select_on_rows(monkeypatch, probs, b=2)
        assert res.selected == [0, 1]

    def test_forward_pass_inside_the_one_stopwatch(self, two_triangles, monkeypatch):
        # query_time_ms covers the cold-start forward pass, for the library
        # call and the dispatcher alike, and no second timer wraps the first
        events = []
        enter, leave, forward = Stopwatch.__enter__, Stopwatch.__exit__, gcn.gcn_forward

        def recording_enter(self):
            events.append("enter")
            return enter(self)

        def recording_exit(self, *exc):
            events.append("exit")
            return leave(self, *exc)

        def recording_forward(model, g):
            events.append("forward")
            return forward(model, g)

        monkeypatch.setattr(Stopwatch, "__enter__", recording_enter)
        monkeypatch.setattr(Stopwatch, "__exit__", recording_exit)
        monkeypatch.setattr(gcn, "gcn_forward", recording_forward)
        uncertainty_select(two_triangles, 2, 1)
        run_strategy("uncertainty", two_triangles, 2, 1)
        assert events == ["enter", "forward", "exit"] * 2


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
        res = featprop_select(g, b=2, seed=0)
        assert sorted(v // 5 for v in res.selected) == [0, 1]

    def test_steps_zero_uses_raw_features(self):
        # the medoids of the features propagated FEATPROP_STEPS times
        rng = np.random.default_rng(32)
        features = rng.standard_normal((8, 3))
        g = make_graph([(i, (i + 1) % 8) for i in range(8)], features=features)
        from spal.kmedoids import kmedoids

        res = featprop_select(g, b=3, seed=5)
        Z = propagate(g, features, FEATPROP_STEPS)
        assert res.selected == kmedoids(Z, 3, seed=5).tolist()

    def test_budget_exceeding_nodes_errors(self, triangle):
        with pytest.raises(ValueError, match="medoid"):
            featprop_select(triangle, b=4)


class TestContracts:
    """Shared invariants: size, uniqueness, determinism."""

    @pytest.mark.parametrize("budget", [1, 2, 5, 11])
    def test_all_strategies(self, budget):
        rng = np.random.default_rng(33)
        g = random_graph(rng, 11, 0.3)

        runs = {
            "spa": lambda: spa_select(g, ScanParams(0.4, 1), b=budget),
            "random": lambda: random_select(g, budget, seed=4),
            "pagerank": lambda: pagerank_select(g, b=budget),
            "uncertainty": lambda: uncertainty_select(g, budget, 4),
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


# every strategy's selection file on two_triangles: (node, community, score)
# per pick; -1 off spa's representatives, None (null) for unscored strategies.
# uncertainty's forward pass returns _ENTROPY_INPUT (test_selection_json_provenance)
_ENTROPY_INPUT = np.array([[1, 0], [0.5, 0.5], [0.9, 0.1], [0.5, 0.5], [1, 0], [0.2, 0.8]])
PROVENANCE_CASES = {
    "spa": (lambda g: spa_select(g, ScanParams(0.5, 1), b=3),
            [(0, 0, 1 / 3), (3, 1, 1 / 3), (1, -1, 1 / 6)]),
    "random": (lambda g: random_select(g, 3, seed=0),
               [(4, -1, None), (5, -1, None), (3, -1, None)]),
    "pagerank": (lambda g: pagerank_select(g, b=3),
                 [(0, -1, 1 / 6), (1, -1, 1 / 6), (2, -1, 1 / 6)]),
    "uncertainty": (lambda g: uncertainty_select(g, 3),
                    [(1, -1, np.log(2)), (3, -1, np.log(2)),
                     (5, -1, -(0.2 * np.log(0.2) + 0.8 * np.log(0.8)))]),
    "featprop": (lambda g: featprop_select(g, b=2, seed=0), [(1, -1, None), (4, -1, None)]),
}


@pytest.mark.parametrize("name", PROVENANCE_CASES)
def test_selection_json_provenance(tmp_path, two_triangles, name, monkeypatch):
    monkeypatch.setattr(gcn, "gcn_forward", lambda model, g: _ENTROPY_INPUT)
    select, want = PROVENANCE_CASES[name]
    path = tmp_path / "sel.json"
    select(two_triangles).write_json(path)
    data = json.loads(path.read_text())
    assert list(data) == ["strategy", "budget", "seed", "selected", "query_time_ms", "provenance"]
    assert data["strategy"] == name
    assert data["selected"] == [v for v, _, _ in want]
    provenance = data["provenance"]
    assert all(list(entry) == ["node", "community", "score"] for entry in provenance)
    assert [(e["node"], e["community"]) for e in provenance] == [(v, c) for v, c, _ in want]
    scores = [e["score"] for e in provenance]
    assert scores == pytest.approx([s for _, _, s in want], rel=1e-12)
