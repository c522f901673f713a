"""Budgeted node-selection strategies: the structural-clustering PageRank
method plus the random / PageRank / uncertainty / feature-propagation
baselines. Each strategy returns an ordered, duplicate-free sample, the
community and score behind each pick, and the wall-clock query time.

On graphs of ``_OVERLAP_FROM`` CSR entries or more, ``spa_select`` runs
the whole-graph ``pagerank`` on one worker thread from before SCAN, runs
SCAN and the block pass on the caller's thread beside it, and joins the
worker before it returns or raises. The picks are the same to the bit as
with everything on one thread."""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gcn
from .graph import AttributedGraph, check_int, propagate
from .kmedoids import kmedoids
from .output import write_json
from .pagerank import (  # noqa: F401 (pagerank_blocks: see below)
    BlockScores,
    PageRankParams,
    ScoreVector,
    pagerank,
    pagerank_blocks,
    pagerank_partition,
)
from .scan import CommunityAssignment, ScanParams, scan_partition

# spa_select calls pagerank_partition. ``pagerank_blocks`` stays importable
# from here because the benchmark's tracer wraps ``spal.selection.pagerank_blocks``
# by name and fails to install when it is gone (tests/test_benchmark_names.py).

STRATEGY_NAMES = ("spa", "random", "pagerank", "uncertainty", "featprop")
FEATPROP_STEPS = 2  # mirrors the 2-layer model's receptive field


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
    lowest id. Every ranking in this module sorts through here; spa's
    representatives, which need only each community's top, follow the same
    rule without a sort (see ``spa_select``)."""
    return np.lexsort((ids, -scores))


class Stopwatch:
    """Times the body of a ``with`` block; ``ms`` holds its wall-clock
    milliseconds after the block exits. This is what ``query_time_ms`` is;
    a strategy imports the modules it defers before the block starts."""

    _clock = staticmethod(time.perf_counter)
    ms = 0.0

    def __enter__(self) -> Stopwatch:
        self._start = self._clock()
        return self

    def __exit__(self, *exc) -> None:
        self.ms = (self._clock() - self._start) * 1000.0


@dataclass
class SelectionResult:
    """One strategy call's sample as aligned sequences in pick order:
    ``selected`` holds the node ids, ``communities`` the community each pick
    represents (-1 when it represents none), and ``scores`` the score that
    drove each pick, or None when the strategy is unscored."""

    strategy: str
    budget: int
    seed: int | None
    selected: list[int]
    communities: list[int]
    scores: list[float] | None
    query_time_ms: float = 0.0

    def to_dict(self) -> dict:
        scores = self.scores or [None] * len(self.selected)
        return {
            "strategy": self.strategy,
            "budget": self.budget,
            "seed": self.seed,
            "selected": list(self.selected),
            "query_time_ms": self.query_time_ms,
            "provenance": [
                {"node": v, "community": c, "score": s}
                for v, c, s in zip(self.selected, self.communities, scores)
            ],
        }

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _warn_unconverged(
    params: PageRankParams, block_converged: np.ndarray, global_sv: ScoreVector
) -> None:
    """One RuntimeWarning when any block or the global vector stopped at the
    iteration cap; ``block_converged`` holds one flag per block."""
    capped = int(np.count_nonzero(~block_converged))
    parts = [f"{capped} of {block_converged.size} community blocks"] if capped else []
    if not global_sv.converged:
        parts.append("the global vector")
    if parts:
        warnings.warn(
            f"PageRank hit max_iterations={params.max_iterations} before converging on "
            f"{' and '.join(parts)}; picks rest on unconverged scores",
            RuntimeWarning, stacklevel=3,
        )


# From this many CSR entries (two per edge) up, spa_select runs the
# whole-graph pagerank on a worker thread from before SCAN; below it,
# SCAN, the block pass and pagerank run one after the other on the
# caller's thread. Two threads that both make many small numpy calls hand
# the GIL back and forth, which costs more than the overlap saves on small
# graphs. spa_select at b=20, epsilon 0.3, mu 2 on DC-SBM draws with 4
# edges per node (the benchmark's shape), medians of 21 alternating calls,
# one figure per sweep (2 vCPU guest), serial -> overlapped, ms. The rows
# from 40,000 to 120,000 were re-measured once SCAN's selects and the block
# pass's settles had shortened the caller's path, on draws with seeds 0-2:
#    20,000 entries   18 -> 22, 24 -> 29
#    40,000           19 -> 19, 19 -> 19, 19 -> 19, 18 -> 19, 17 -> 17, 17 -> 18
#    60,000           22 -> 23, 23 -> 24, 27 -> 27, 22 -> 23, 24 -> 24, 24 -> 24
#    80,000           30 -> 31, 30 -> 31, 30 -> 31, 33 -> 28, 29 -> 27, 30 -> 27
#   120,000           42 -> 43, 42 -> 43, 42 -> 44, 41 -> 37, 41 -> 34, 39 -> 33
#   160,000           86 -> 71, 79 -> 64, 92 -> 73, 118 -> 89, 126 -> 92
#   200,000          133 -> 110, 128 -> 101, 168 -> 117, 174 -> 122, 150 -> 110
#   240,000          113 -> 86, 132 -> 99, 152 -> 108
#   280,000          208 -> 137, 269 -> 155, 230 -> 139
#   320,000          160 -> 121, 169 -> 127, 154 -> 119
#   400,000          282 -> 191, 213 -> 160, 323 -> 213
#   800,000          479 -> 318, 445 -> 307, 559 -> 347 (the benchmark's graph)
# That re-measure split by how busy the host's second vCPU was. When it
# was busy, overlapping lost 1-4 ms at every size up to 160,000 entries
# (53 -> 56, 54 -> 57, 57 -> 60 there; a second busy run read 33 -> 35,
# 31 -> 34, 33 -> 35 at 80,000, 45 -> 47, 49 -> 50, 45 -> 48 at 120,000
# and 58 -> 61, 60 -> 64, 61 -> 65 at 160,000); when it was free, it gained
# 7-18% from 80,000 to 120,000 entries and about 20% at 160,000 (51 -> 41,
# 49 -> 40, 52 -> 42). At 60,000 and below no sweep gained.
_OVERLAP_FROM = 80_000


def _partition_and_pagerank(
    g: AttributedGraph, scan_params: ScanParams, pr_params: PageRankParams
) -> tuple[CommunityAssignment, BlockScores, ScoreVector]:
    """SCAN's partition, the block PageRank over it, and the whole-graph
    vector.

    The global vector depends on neither the partition nor the blocks, so
    on graphs of ``_OVERLAP_FROM`` CSR entries or more ``pagerank`` runs on
    one worker thread from before SCAN starts. The worker is joined before
    this returns or raises."""
    if g.csr_targets.size < _OVERLAP_FROM:
        assignment = scan_partition(g, scan_params)
        blocks = pagerank_partition(g, assignment.community_of, pr_params)
        return assignment, blocks, pagerank(g, params=pr_params)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="spal-pagerank") as pool:
        future = pool.submit(pagerank, g, pr_params)
        assignment = scan_partition(g, scan_params)
        blocks = pagerank_partition(g, assignment.community_of, pr_params)
    return assignment, blocks, future.result()


def spa_select(
    g: AttributedGraph,
    scan_params: ScanParams | None = None,
    pr_params: PageRankParams | None = None,
    b: int = 1,
) -> SelectionResult:
    """Pick each community's top PageRank node, then top up globally.

    Communities come from the structural partition; each contributes its
    representative: the node with the highest PageRank on its induced
    subgraph, exact ties toward the lowest node id. That is the rule of
    ``_rank_order``, found per community with ``np.maximum.at`` and
    ``np.minimum.at`` instead of a sort of every member (0.43 ms against
    4.8 ms for the 65,834 members of the benchmark graph's 14,431
    communities). The picks are the first b of one order: the
    representatives by global PageRank, then every other node by global
    PageRank, so the picks at budget b are a subset of those at b + 1. A
    representative carries its block score and community id, any other
    pick its global score and community -1. The final list is ordered by
    descending selection score.
    """
    check_budget("spa", b, g.num_nodes)
    scan_params = scan_params or ScanParams()
    pr_params = pr_params or PageRankParams()
    import scipy.sparse.csgraph  # noqa: F401 (SCAN's first use; kept out of query_time_ms)

    with Stopwatch() as sw:
        assignment, blocks, global_sv = _partition_and_pagerank(g, scan_params, pr_params)
        nodes, block_scores = blocks.node_ids, blocks.scores
        # each community's top block score, then its lowest tied position:
        # nodes ascend, so that is its lowest tied id (the equality mask
        # follows the data, so it is read through flatnonzero)
        member_of = assignment.community_of[nodes]
        top = np.full(assignment.num_communities, -np.inf)
        np.maximum.at(top, member_of, block_scores)
        tied = np.flatnonzero(block_scores == top[member_of])
        first = np.full(top.size, nodes.size, dtype=np.int64)
        np.minimum.at(first, member_of[tied], tied)
        reps = nodes[first]  # reps[c] represents community c

        # per node: the selection score, and the community it represents or -1
        global_scores = global_sv.scores
        score, community = global_scores.copy(), np.full(g.num_nodes, -1)
        score[reps] = block_scores[first]
        community[reps] = np.arange(reps.size)
        order = reps[_rank_order(global_scores[reps], reps)]
        # the rest is ranked only for a budget that reaches it: on 1e5 random
        # scores _rank_order takes 16 ms, on 14,431 of them 3.3 ms (2 vCPU guest)
        if b > reps.size:
            rest = np.flatnonzero(community < 0)
            order = np.append(order, rest[_rank_order(global_scores[rest], rest)])
        picks = order[:b]

        _warn_unconverged(pr_params, blocks.converged, global_sv)
        picks = picks[_rank_order(score[picks], picks)]
        chosen = picks.tolist(), community[picks].tolist(), score[picks].tolist()
    return SelectionResult("spa", b, None, *chosen, sw.ms)


def random_select(g: AttributedGraph, b: int, seed: int) -> SelectionResult:
    """Uniform sample without replacement, reproducible from the seed."""
    check_budget("random", b, g.num_nodes)
    check_int(seed, "seed", 0)
    with Stopwatch() as sw:
        rng = np.random.default_rng(seed)
        picks = rng.choice(g.num_nodes, size=min(b, g.num_nodes), replace=False).tolist()
    return SelectionResult("random", b, seed, picks, [-1] * len(picks), None, sw.ms)


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
        chosen = sv.node_ids[order].tolist(), [-1] * order.size, sv.scores[order].tolist()
    return SelectionResult("pagerank", b, None, *chosen, sw.ms)


def uncertainty_select(g: AttributedGraph, b: int, seed: int = 0) -> SelectionResult:
    """Top-b nodes by Shannon entropy under an untrained GCN seeded from
    ``seed`` (a cold start: every node is a candidate), ties toward the
    lowest node id; timed from the model init to the ranking."""
    check_budget("uncertainty", b, g.num_nodes)
    check_int(seed, "seed", 0)
    with Stopwatch() as sw:
        model = gcn.init_model(g.features.shape[1], g.num_classes, seed)
        probs = gcn.gcn_forward(model, g)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(probs > 0, probs * np.log(probs), 0.0)
        entropy = -plogp.sum(axis=1)
        picks = _rank_order(entropy, np.arange(g.num_nodes))[: min(b, g.num_nodes)]
        chosen = picks.tolist(), [-1] * picks.size, entropy[picks].tolist()
    return SelectionResult("uncertainty", b, seed, *chosen, sw.ms)


def featprop_select(g: AttributedGraph, b: int = 1, seed: int = 0) -> SelectionResult:
    """k-medoids (k = b) over the features propagated ``FEATPROP_STEPS``
    times; the medoids are the sample."""
    check_budget("featprop", b, g.num_nodes)
    check_int(seed, "seed", 0)
    import scipy.spatial.distance  # noqa: F401 (kmedoids' first use; kept out of query_time_ms)

    with Stopwatch() as sw:
        Z = propagate(g, g.features, FEATPROP_STEPS)
        picks = kmedoids(Z, b, seed=seed).tolist()
    return SelectionResult("featprop", b, seed, picks, [-1] * len(picks), None, sw.ms)
