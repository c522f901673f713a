"""Budgeted node-selection strategies: the structural-clustering PageRank
method plus the random / PageRank / uncertainty / feature-propagation
baselines. Each strategy returns an ordered, duplicate-free sample with
per-node provenance and the wall-clock query time."""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, node_index, propagate
from .kmedoids import kmedoids
from .pagerank import PageRankParams, ScoreVector, pagerank, pagerank_blocks
from .scan import ScanParams, scan_partition

STRATEGY_NAMES = ("spa", "random", "pagerank", "uncertainty", "featprop")


def check_strategies(names) -> None:
    """Raise a ValueError listing the valid names unless every name is one."""
    for name in names:
        if name not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {name!r}; valid: {', '.join(STRATEGY_NAMES)}")


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
    with Stopwatch() as sw:
        b_eff = min(b, g.num_nodes)
        assignment = scan_partition(g, scan_params)
        blocks = pagerank_blocks(g, assignment.communities, pr_params)
        reps: list[SelectionRecord] = []
        for cid, sv in enumerate(blocks):
            top = sv.top_node()
            score = float(sv.scores[np.searchsorted(sv.node_ids, top)])
            reps.append(SelectionRecord(top, cid, score))

        global_sv = None
        if len(reps) > b_eff:
            global_sv = pagerank(g, params=pr_params)
            reps = sorted(reps, key=lambda r: (-global_sv.scores[r.node], r.node))[:b_eff]

        if len(reps) < b_eff:
            if global_sv is None:
                global_sv = pagerank(g, params=pr_params)
            order = np.lexsort((global_sv.node_ids, -global_sv.scores))
            order = order[~np.isin(order, [r.node for r in reps])]
            for v in order[: b_eff - len(reps)]:
                reps.append(SelectionRecord(int(v), score=float(global_sv.scores[v])))

        _warn_unconverged(pr_params, blocks, global_sv)
        reps.sort(key=lambda r: (-r.score, r.node))
    return SelectionResult("spa", b, None, reps, sw.ms)


def random_select(g: AttributedGraph, b: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement, reproducible from the seed."""
    _check_budget(b)
    with Stopwatch() as sw:
        rng = np.random.default_rng(seed)
        picks = rng.choice(g.num_nodes, size=min(b, g.num_nodes), replace=False)
        chosen = [SelectionRecord(int(v)) for v in picks]
    return SelectionResult("random", b, seed, chosen, sw.ms)


def pagerank_select(
    g: AttributedGraph, pr_params: PageRankParams | None = None, b: int = 1
) -> SelectionResult:
    """Top-b nodes by global PageRank, ties toward the lowest node id."""
    _check_budget(b)
    pr_params = pr_params or PageRankParams()
    with Stopwatch() as sw:
        sv = pagerank(g, params=pr_params)
        _warn_unconverged(pr_params, [], sv)
        order = np.lexsort((sv.node_ids, -sv.scores))[: min(b, g.num_nodes)]
        chosen = [
            SelectionRecord(int(sv.node_ids[i]), score=float(sv.scores[i])) for i in order
        ]
    return SelectionResult("pagerank", b, None, chosen, sw.ms)


def uncertainty_select(
    probabilities: np.ndarray, labeled: set[int] | np.ndarray, b: int
) -> SelectionResult:
    """Top-b unlabeled nodes by Shannon entropy of the predictive rows."""
    _check_budget(b)
    with Stopwatch() as sw:
        probs = np.asarray(probabilities, dtype=np.float64)
        if probs.ndim != 2:
            raise ValueError("probabilities must be a 2-D matrix")
        row_sums = probs.sum(axis=1)
        if np.abs(row_sums - 1.0).max() > 1e-6 or probs.min() < 0:
            raise ValueError("probability rows must be distributions summing to 1")
        n = probs.shape[0]
        labeled_arr = node_index(labeled, n, "labeled", allow_empty=True)
        unlabeled = np.setdiff1d(np.arange(n, dtype=np.int64), labeled_arr, assume_unique=True)
        if unlabeled.size == 0:
            raise ValueError("all nodes are already labeled")

        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
        entropy = -plogp.sum(axis=1)
        order = np.lexsort((unlabeled, -entropy[unlabeled]))[: min(b, unlabeled.size)]
        chosen = [SelectionRecord(int(v), score=float(entropy[v])) for v in unlabeled[order]]
    return SelectionResult("uncertainty", b, None, chosen, sw.ms)


def featprop_select(
    g: AttributedGraph, steps: int = 2, b: int = 1, seed: int = 0
) -> SelectionResult:
    """k-medoids (k = b) over propagated features; medoids are the sample."""
    _check_budget(b)
    if b > g.num_nodes:
        raise ValueError(
            f"k-medoids cannot place {b} medoids among {g.num_nodes} nodes"
        )
    with Stopwatch() as sw:
        Z = propagate(g, g.features, steps)
        chosen = [SelectionRecord(int(v)) for v in kmedoids(Z, b, seed=seed)]
    return SelectionResult("featprop", b, seed, chosen, sw.ms)
