"""Budgeted node-selection strategies: the structural-clustering PageRank
method plus the random / PageRank / uncertainty / feature-propagation
baselines. Each strategy returns an ordered, duplicate-free sample with
per-node provenance and the wall-clock query time."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, check_int, node_index, propagate
from .kmedoids import kmedoids
from .output import write_json
from .pagerank import PageRankParams, ScoreVector, pagerank, pagerank_blocks
from .scan import ScanParams, scan_partition

STRATEGY_NAMES = ("spa", "random", "pagerank", "uncertainty", "featprop")


def check_strategies(names) -> None:
    """Raise a ValueError listing the valid names unless every name is one."""
    for name in names:
        if name not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {name!r}; valid: {', '.join(STRATEGY_NAMES)}")


def check_budget(name: str, b: int, num_nodes: int) -> None:
    """Raise a ValueError unless strategy ``name`` accepts budget ``b`` on a
    graph of ``num_nodes`` nodes: b is an integer >= 1 (not a bool) always,
    and b <= num_nodes for featprop, which places one medoid per label (the
    others saturate)."""
    check_int(b, "budget", 1)
    if name == "featprop" and b > num_nodes:
        raise ValueError(f"k-medoids cannot place {b} medoids among {num_nodes} nodes")


def _rank_order(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Positions that order ``scores`` descending, exact ties toward the
    lowest id. Every score-ordered pick in this module ranks through here."""
    return np.lexsort((ids, -scores))


class Stopwatch:
    """Times the body of a ``with`` block; ``ms`` holds its wall-clock
    milliseconds after the block exits. This is what ``query_time_ms`` is."""

    _clock = staticmethod(time.perf_counter)
    ms = 0.0

    def __enter__(self) -> Stopwatch:
        self._start = self._clock()
        return self

    def __exit__(self, *exc) -> None:
        self.ms = (self._clock() - self._start) * 1000.0


@dataclass
class SelectionRecord:
    node: int
    community: int = -1  # -1 when the pick was not a community representative
    score: float | None = None  # score that drove the pick, None for unscored picks


@dataclass
class SelectionResult:
    """One strategy call's sample; ``selected`` is filled from ``provenance``."""

    strategy: str
    budget: int
    seed: int | None
    provenance: list[SelectionRecord]
    query_time_ms: float = 0.0
    selected: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.selected = [r.node for r in self.provenance]

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "selected": list(self.selected),
            "query_time_ms": self.query_time_ms,
            "provenance": [
                {"node": r.node, "community": r.community, "score": r.score}
                for r in self.provenance
            ],
        }

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _warn_unconverged(
    params: PageRankParams, blocks: list[ScoreVector], global_sv: ScoreVector | None
) -> None:
    """One RuntimeWarning when any score vector stopped at the iteration cap."""
    capped = sum(not sv.converged for sv in blocks)
    parts = [f"{capped} of {len(blocks)} community blocks"] if capped else []
    if global_sv is not None and not global_sv.converged:
        parts.append("the global vector")
    if parts:
        warnings.warn(
            f"PageRank hit max_iterations={params.max_iterations} before converging on "
            f"{' and '.join(parts)}; picks rest on unconverged scores",
            RuntimeWarning, stacklevel=3,
        )


def spa_select(
    g: AttributedGraph,
    scan_params: ScanParams | None = None,
    pr_params: PageRankParams | None = None,
    b: int = 1,
) -> SelectionResult:
    """Pick each community's top PageRank node, then top up globally.

    Communities come from the structural partition; each contributes the
    node with the highest PageRank on its induced subgraph (ties toward the
    lowest node id). When fewer representatives than the budget exist, the
    remaining slots are filled with the highest globally-ranked nodes not
    yet selected. When representatives exceed the budget, the ones with the
    highest global PageRank are kept. The final list is ordered by
    descending selection score.
    """
    check_budget("spa", b, g.num_nodes)
    scan_params = scan_params or ScanParams()
    pr_params = pr_params or PageRankParams()
    with Stopwatch() as sw:
        b_eff = min(b, g.num_nodes)
        assignment = scan_partition(g, scan_params)
        blocks = pagerank_blocks(g, assignment.communities, pr_params)
        nodes = np.concatenate([np.empty(0, np.int64)] + [sv.node_ids for sv in blocks])
        block_scores = np.concatenate([np.empty(0)] + [sv.scores for sv in blocks])
        # a community's first member in rank order is its representative
        ranked = _rank_order(block_scores, nodes)
        _, first = np.unique(assignment.community_of[nodes[ranked]], return_index=True)
        picks, scores = nodes[ranked[first]], block_scores[ranked[first]]

        # the cut keeps, and the top-up adds, the highest global scores
        global_sv = pagerank(g, params=pr_params) if picks.size != b_eff else None
        if picks.size > b_eff:
            keep = _rank_order(global_sv.scores[picks], picks)[:b_eff]
            picks, scores = picks[keep], scores[keep]
        communities = assignment.community_of[picks]

        if picks.size < b_eff:
            order = _rank_order(global_sv.scores, global_sv.node_ids)
            top_up = order[~np.isin(order, picks)][: b_eff - picks.size]
            picks = np.concatenate([picks, top_up])
            scores = np.concatenate([scores, global_sv.scores[top_up]])
            communities = np.concatenate([communities, np.full(top_up.size, -1)])

        _warn_unconverged(pr_params, blocks, global_sv)
        final = _rank_order(scores, picks)
        chosen = [
            SelectionRecord(int(v), int(c), float(s))
            for v, c, s in zip(picks[final], communities[final], scores[final])
        ]
    return SelectionResult("spa", b, None, chosen, sw.ms)


def random_select(g: AttributedGraph, b: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement, reproducible from the seed."""
    check_budget("random", b, g.num_nodes)
    with Stopwatch() as sw:
        rng = np.random.default_rng(seed)
        picks = rng.choice(g.num_nodes, size=min(b, g.num_nodes), replace=False)
        chosen = [SelectionRecord(int(v)) for v in picks]
    return SelectionResult("random", b, seed, chosen, sw.ms)


def pagerank_select(
    g: AttributedGraph, pr_params: PageRankParams | None = None, b: int = 1
) -> SelectionResult:
    """Top-b nodes by global PageRank, ties toward the lowest node id."""
    check_budget("pagerank", b, g.num_nodes)
    pr_params = pr_params or PageRankParams()
    with Stopwatch() as sw:
        sv = pagerank(g, params=pr_params)
        _warn_unconverged(pr_params, [], sv)
        order = _rank_order(sv.scores, sv.node_ids)[: min(b, g.num_nodes)]
        chosen = [
            SelectionRecord(int(sv.node_ids[i]), score=float(sv.scores[i])) for i in order
        ]
    return SelectionResult("pagerank", b, None, chosen, sw.ms)


def uncertainty_select(
    probabilities: np.ndarray, labeled: set[int] | np.ndarray, b: int
) -> SelectionResult:
    """Top-b unlabeled nodes by Shannon entropy of the predictive rows."""
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("probabilities must be a 2-D matrix")
    n = probs.shape[0]
    check_budget("uncertainty", b, n)
    rows_ok = np.isfinite(probs).all(axis=1) & (probs >= 0).all(axis=1)
    bad = np.flatnonzero(~rows_ok | (np.abs(probs.sum(axis=1) - 1.0) > 1e-6))
    if bad.size:
        raise ValueError(f"probability row {bad[0]} is not a finite distribution summing to 1")
    labeled_arr = node_index(labeled, n, "labeled", allow_empty=True)
    unlabeled = np.setdiff1d(np.arange(n, dtype=np.int64), labeled_arr, assume_unique=True)
    if unlabeled.size == 0:
        raise ValueError("all nodes are already labeled")
    with Stopwatch() as sw:
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
        entropy = -plogp.sum(axis=1)
        order = _rank_order(entropy[unlabeled], unlabeled)[: min(b, unlabeled.size)]
        chosen = [SelectionRecord(int(v), score=float(entropy[v])) for v in unlabeled[order]]
    return SelectionResult("uncertainty", b, None, chosen, sw.ms)


def featprop_select(
    g: AttributedGraph, steps: int = 2, b: int = 1, seed: int = 0
) -> SelectionResult:
    """k-medoids (k = b) over propagated features; medoids are the sample."""
    check_budget("featprop", b, g.num_nodes)
    with Stopwatch() as sw:
        Z = propagate(g, g.features, steps)
        chosen = [SelectionRecord(int(v)) for v in kmedoids(Z, b, seed=seed)]
    return SelectionResult("featprop", b, seed, chosen, sw.ms)
