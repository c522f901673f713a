"""Budgeted node-selection strategies: the structural-clustering PageRank
method plus the random / PageRank / uncertainty / feature-propagation
baselines. Each strategy returns an ordered, duplicate-free sample with
per-node provenance and the wall-clock query time."""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, propagate
from .kmedoids import kmedoids
from .pagerank import PageRankParams, ScoreVector, pagerank, pagerank_blocks
from .scan import ScanParams, scan_partition

STRATEGY_NAMES = ("spa", "random", "pagerank", "uncertainty", "featprop")


@dataclass
class SelectionRecord:
    node: int
    community: int  # -1 when the pick was not a community representative
    score: float | None  # score that drove the pick, None for unscored picks


@dataclass
class SelectionResult:
    strategy: str
    budget: int
    seed: int | None
    selected: list[int]
    provenance: list[SelectionRecord]
    query_time_ms: float = 0.0

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
        with Path(path).open("w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")


def _check_budget(b: int) -> None:
    if b < 1:
        raise ValueError(f"budget must be >= 1, got {b}")


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
    _check_budget(b)
    scan_params = scan_params or ScanParams()
    pr_params = pr_params or PageRankParams()
    t0 = time.perf_counter()

    b_eff = min(b, g.num_nodes)
    assignment = scan_partition(g, scan_params)
    blocks = pagerank_blocks(g, assignment.communities, pr_params)
    reps: list[SelectionRecord] = []
    for cid, sv in enumerate(blocks):
        top = sv.top_node()
        score = float(sv.scores[np.searchsorted(sv.node_ids, top)])
        reps.append(SelectionRecord(node=top, community=cid, score=score))

    global_sv = None
    if len(reps) > b_eff:
        global_sv = pagerank(g, params=pr_params)
        by_global = sorted(
            reps, key=lambda r: (-global_sv.scores[r.node], r.node)
        )
        reps = by_global[:b_eff]

    chosen = reps
    if len(chosen) < b_eff:
        if global_sv is None:
            global_sv = pagerank(g, params=pr_params)
        order = np.lexsort((global_sv.node_ids, -global_sv.scores))
        order = order[~np.isin(order, [r.node for r in chosen])]
        for v in order[: b_eff - len(chosen)]:
            chosen.append(
                SelectionRecord(node=int(v), community=-1, score=float(global_sv.scores[v]))
            )

    _warn_unconverged(pr_params, blocks, global_sv)
    chosen.sort(key=lambda r: (-r.score, r.node))
    result = SelectionResult(
        strategy="spa",
        budget=b,
        seed=None,
        selected=[r.node for r in chosen],
        provenance=chosen,
    )
    result.query_time_ms = (time.perf_counter() - t0) * 1000.0
    return result


def random_select(g: AttributedGraph, b: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement, reproducible from the seed."""
    _check_budget(b)
    t0 = time.perf_counter()
    b_eff = min(b, g.num_nodes)
    rng = np.random.default_rng(seed)
    picks = rng.choice(g.num_nodes, size=b_eff, replace=False)
    result = SelectionResult(
        strategy="random",
        budget=b,
        seed=seed,
        selected=[int(v) for v in picks],
        provenance=[SelectionRecord(node=int(v), community=-1, score=None) for v in picks],
    )
    result.query_time_ms = (time.perf_counter() - t0) * 1000.0
    return result


def pagerank_select(
    g: AttributedGraph, pr_params: PageRankParams | None = None, b: int = 1
) -> SelectionResult:
    """Top-b nodes by global PageRank, ties toward the lowest node id."""
    _check_budget(b)
    pr_params = pr_params or PageRankParams()
    t0 = time.perf_counter()
    b_eff = min(b, g.num_nodes)
    sv = pagerank(g, params=pr_params)
    _warn_unconverged(pr_params, [], sv)
    order = np.lexsort((sv.node_ids, -sv.scores))[:b_eff]
    result = SelectionResult(
        strategy="pagerank",
        budget=b,
        seed=None,
        selected=[int(sv.node_ids[i]) for i in order],
        provenance=[
            SelectionRecord(node=int(sv.node_ids[i]), community=-1, score=float(sv.scores[i]))
            for i in order
        ],
    )
    result.query_time_ms = (time.perf_counter() - t0) * 1000.0
    return result


def uncertainty_select(
    probabilities: np.ndarray, labeled: set[int] | np.ndarray, b: int
) -> SelectionResult:
    """Top-b unlabeled nodes by Shannon entropy of the predictive rows."""
    _check_budget(b)
    t0 = time.perf_counter()
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2:
        raise ValueError("probabilities must be a 2-D matrix")
    row_sums = probs.sum(axis=1)
    if np.abs(row_sums - 1.0).max() > 1e-6 or probs.min() < 0:
        raise ValueError("probability rows must be distributions summing to 1")
    n = probs.shape[0]
    labeled_arr = np.asarray(sorted(labeled), dtype=np.int64)
    unlabeled = np.setdiff1d(np.arange(n, dtype=np.int64), labeled_arr, assume_unique=True)
    if unlabeled.size == 0:
        raise ValueError("all nodes are already labeled")

    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
    entropy = -plogp.sum(axis=1)
    order = np.lexsort((unlabeled, -entropy[unlabeled]))[: min(b, unlabeled.size)]
    picks = unlabeled[order]
    result = SelectionResult(
        strategy="uncertainty",
        budget=b,
        seed=None,
        selected=[int(v) for v in picks],
        provenance=[
            SelectionRecord(node=int(v), community=-1, score=float(entropy[v])) for v in picks
        ],
    )
    result.query_time_ms = (time.perf_counter() - t0) * 1000.0
    return result


def featprop_select(
    g: AttributedGraph, steps: int = 2, b: int = 1, seed: int = 0
) -> SelectionResult:
    """k-medoids (k = b) over propagated features; medoids are the sample."""
    _check_budget(b)
    if b > g.num_nodes:
        raise ValueError(
            f"k-medoids cannot place {b} medoids among {g.num_nodes} nodes"
        )
    t0 = time.perf_counter()
    Z = propagate(g, g.features, steps)
    medoids = kmedoids(Z, b, seed=seed)
    result = SelectionResult(
        strategy="featprop",
        budget=b,
        seed=seed,
        selected=[int(v) for v in medoids],
        provenance=[SelectionRecord(node=int(v), community=-1, score=None) for v in medoids],
    )
    result.query_time_ms = (time.perf_counter() - t0) * 1000.0
    return result
