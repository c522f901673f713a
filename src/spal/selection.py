"""Budgeted node-selection strategies: the structural-clustering PageRank
method plus the random / PageRank / uncertainty / feature-propagation
baselines. Each strategy returns an ordered, duplicate-free sample with
per-node provenance and the wall-clock query time.

On graphs of ``_OVERLAP_FROM`` CSR entries or more, ``spa_select`` starts
the whole-graph PageRank loop on one worker thread before SCAN, runs SCAN
and the block pass on the caller's thread beside it, and joins the worker
before it returns or raises. An exact fit (as many communities as the
budget) drops the global vector, which costs CPU time but no wall time. The picks are the same to the bit as with everything on one thread."""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, check_int, node_index, propagate
from .kmedoids import kmedoids
from .output import write_json
from .pagerank import (  # noqa: F401 (pagerank_blocks: see below)
    BlockScores,
    PageRankParams,
    ScoreVector,
    pagerank,
    pagerank_blocks,
    pagerank_loop,
    pagerank_partition,
)
from .scan import CommunityAssignment, ScanParams, scan_partition

# spa_select calls pagerank_partition. ``pagerank_blocks`` stays importable
# from here because the benchmark's tracer wraps ``spal.selection.pagerank_blocks``
# by name and fails to install when it is gone (tests/test_benchmark_names.py).

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
    params: PageRankParams, block_converged: np.ndarray, global_sv: ScoreVector | None
) -> None:
    """One RuntimeWarning when any block or the global vector stopped at the
    iteration cap; ``block_converged`` holds one flag per block."""
    capped = int(np.count_nonzero(~block_converged))
    parts = [f"{capped} of {block_converged.size} community blocks"] if capped else []
    if global_sv is not None and not global_sv.converged:
        parts.append("the global vector")
    if parts:
        warnings.warn(
            f"PageRank hit max_iterations={params.max_iterations} before converging on "
            f"{' and '.join(parts)}; picks rest on unconverged scores",
            RuntimeWarning, stacklevel=3,
        )


# From this many CSR entries (two per edge) up, spa_select runs the
# whole-graph PageRank loop on a worker thread from before SCAN; below it,
# SCAN, the block pass and the global loop run one after the other on the
# caller's thread. Two threads that both make many small numpy calls hand
# the GIL back and forth, which costs more than the overlap saves on small
# graphs. spa_select at b=20, epsilon 0.3, mu 2 on DC-SBM draws with 4
# edges per node (the benchmark's shape), medians of 21-41 alternating
# calls, one figure per sweep (2 vCPU guest), serial -> overlapped, ms:
#    80,000 entries   81 -> 86, 86 -> 75, 79 -> 82
#   120,000          100 -> 97, 93 -> 61, 117 -> 122
#   160,000          132 -> 141, 144 -> 97, 114 -> 76, 140 -> 147
#   200,000          225 -> 156, 205 -> 138, 246 -> 153
#   240,000          202 -> 131, 172 -> 111, 168 -> 105
#   280,000          247 -> 166, 331 -> 213
#   320,000          232 -> 143, 311 -> 196
#   400,000          377 -> 235
#   800,000          758 -> 482 (the benchmark's graph)
# Up to 160,000 entries the gain is bimodal; from 200,000 every sweep
# gained 30-38%.
_OVERLAP_FROM = 200_000


def _partition_and_pagerank(
    g: AttributedGraph, scan_params: ScanParams, pr_params: PageRankParams, b_eff: int
) -> tuple[CommunityAssignment, BlockScores, ScoreVector | None]:
    """SCAN's partition, the block PageRank over it, and the whole-graph
    vector unless the community count equals ``b_eff`` (an exact fit, which
    needs no cut and no top-up; then None).

    The global vector depends on neither the partition nor the blocks, so
    on graphs of ``_OVERLAP_FROM`` CSR entries or more its loop runs on one
    worker thread from before SCAN starts, and an exact fit drops its
    result. The worker is joined before this returns or raises.
    ``pagerank_loop`` allocates its arrays on this thread, so only the loop
    runs on the worker."""
    if g.csr_targets.size < _OVERLAP_FROM:
        assignment = scan_partition(g, scan_params)
        blocks = pagerank_partition(g, assignment.community_of, pr_params)
        exact_fit = assignment.num_communities == b_eff
        return assignment, blocks, None if exact_fit else pagerank(g, params=pr_params)
    global_loop = pagerank_loop(g, params=pr_params)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="spal-pagerank") as pool:
        future = pool.submit(global_loop)
        assignment = scan_partition(g, scan_params)
        blocks = pagerank_partition(g, assignment.community_of, pr_params)
    global_sv = future.result()  # read on an exact fit too, so a worker failure surfaces
    exact_fit = assignment.num_communities == b_eff
    return assignment, blocks, None if exact_fit else global_sv


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
        # the cut keeps, and the top-up adds, the highest global scores
        assignment, blocks, global_sv = _partition_and_pagerank(g, scan_params, pr_params, b_eff)
        nodes, block_scores = blocks.node_ids, blocks.scores
        # a community's first member in rank order is its representative
        ranked = _rank_order(block_scores, nodes)
        _, first = np.unique(assignment.community_of[nodes[ranked]], return_index=True)
        picks, scores = nodes[ranked[first]], block_scores[ranked[first]]

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

        _warn_unconverged(pr_params, blocks.converged, global_sv)
        final = _rank_order(scores, picks)
        chosen = [
            SelectionRecord(int(v), int(c), float(s))
            for v, c, s in zip(picks[final], communities[final], scores[final])
        ]
    return SelectionResult("spa", b, None, chosen, sw.ms)


def random_select(g: AttributedGraph, b: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement, reproducible from the seed."""
    check_budget("random", b, g.num_nodes)
    check_int(seed, "seed", 0)
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
        _warn_unconverged(pr_params, np.empty(0, dtype=bool), sv)
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
    check_int(seed, "seed", 0)
    with Stopwatch() as sw:
        Z = propagate(g, g.features, steps)
        chosen = [SelectionRecord(int(v)) for v in kmedoids(Z, b, seed=seed)]
    return SelectionResult("featprop", b, seed, chosen, sw.ms)
