"""Damped PageRank by power iteration, on the whole graph, on the induced
subgraph of a node subset, or batched over many disjoint subsets at once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import AttributedGraph


@dataclass(frozen=True)
class PageRankParams:
    damping: float = 0.95
    tolerance: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(eq=False)
class ScoreVector:
    """Non-negative scores summing to 1 over ``node_ids`` (sorted)."""

    node_ids: np.ndarray
    scores: np.ndarray
    iterations_used: int
    converged: bool

    def top_node(self) -> int:
        """Highest-scoring node; ties broken toward the lowest node id."""
        best = np.flatnonzero(self.scores == self.scores.max())[0]
        return int(self.node_ids[best])


def _block_power_iterate(
    g: AttributedGraph, blocks: list[np.ndarray], params: PageRankParams
):
    """Power iteration on the induced subgraphs of disjoint node blocks.

    All blocks advance in lockstep; a block freezes once its own L1 step
    drops below the tolerance, so its result is independent of how long the
    other blocks keep iterating. Returns (scores over concatenated block
    positions, per-block iteration counts, per-block converged flags).
    """
    k = len(blocks)
    sizes = np.array([len(b) for b in blocks], dtype=np.int64)
    total = int(sizes.sum())
    nodes_cat = np.concatenate(blocks) if total else np.empty(0, dtype=np.int64)
    block_of = np.repeat(np.arange(k, dtype=np.int64), sizes)

    pos = np.full(g.num_nodes, -1, dtype=np.int64)
    pos[nodes_cat] = np.arange(total, dtype=np.int64)

    # induced edges: both endpoints inside the same block
    src_global = np.repeat(np.arange(g.num_nodes, dtype=np.int64), g.degrees)
    sp, dp = pos[src_global], pos[g.csr_targets]
    keep = (sp >= 0) & (dp >= 0)
    sp, dp = sp[keep], dp[keep]
    same = block_of[sp] == block_of[dp]
    sp, dp = sp[same], dp[same]

    deg = np.bincount(sp, minlength=total).astype(np.float64)
    dangling = np.flatnonzero(deg == 0.0)
    safe_deg = np.where(deg == 0.0, 1.0, deg)

    d = params.damping
    n_block = sizes.astype(np.float64)
    pr = (1.0 / n_block)[block_of]
    active = np.ones(k, dtype=bool)
    converged = np.zeros(k, dtype=bool)
    iterations = np.full(k, params.max_iterations, dtype=np.int64)

    for it in range(1, params.max_iterations + 1):
        contrib = pr / safe_deg
        nxt = np.bincount(dp, weights=contrib[sp], minlength=total)
        nxt = nxt.astype(np.float64, copy=False)  # empty bincount yields int64
        nxt *= d
        dangling_mass = np.bincount(
            block_of[dangling], weights=pr[dangling], minlength=k
        ).astype(np.float64, copy=False)
        nxt += ((1.0 - d) / n_block + d * dangling_mass / n_block)[block_of]
        nxt = np.where(active[block_of], nxt, pr)  # frozen blocks hold still
        step = np.bincount(block_of, weights=np.abs(nxt - pr), minlength=k)
        pr = nxt
        settled = active & (step < params.tolerance)
        iterations[settled] = it
        converged |= settled
        active &= ~settled
        if not active.any():
            break
    return pr, iterations, converged


def pagerank(
    g: AttributedGraph,
    subset: np.ndarray | list[int] | None = None,
    params: PageRankParams | None = None,
) -> ScoreVector:
    """Power-iterate PR <- (1-d)/N + d * sum_{v in B(u)} PR(v)/deg(v).

    With a subset, scores are computed on the induced subgraph (N equals the
    subset size and degrees count induced edges only). Degree-zero nodes
    redistribute their mass uniformly each iteration, so scores always sum
    to 1. Iteration stops when the L1 change drops below the tolerance.
    """
    params = params or PageRankParams()
    if subset is None:
        ids = np.arange(g.num_nodes, dtype=np.int64)
    else:
        ids = np.unique(np.asarray(subset, dtype=np.int64))
        if ids.size == 0:
            raise ValueError("subset must be non-empty")
        if ids[0] < 0 or ids[-1] >= g.num_nodes:
            raise ValueError("subset contains out-of-range node ids")
    scores, iterations, converged = _block_power_iterate(g, [ids], params)
    return ScoreVector(
        node_ids=ids,
        scores=scores,
        iterations_used=int(iterations[0]),
        converged=bool(converged[0]),
    )


def pagerank_blocks(
    g: AttributedGraph,
    blocks: list[np.ndarray],
    params: PageRankParams | None = None,
) -> list[ScoreVector]:
    """Induced-subgraph PageRank for many disjoint node sets in one sweep.

    Equivalent to calling ``pagerank(g, subset=block)`` per block, but the
    power iterations run batched, which is far cheaper when there are many
    small blocks.
    """
    params = params or PageRankParams()
    if not blocks:
        return []
    ids = [np.unique(np.asarray(b, dtype=np.int64)) for b in blocks]
    cat = np.concatenate(ids)
    if cat.size == 0 or any(b.size == 0 for b in ids):
        raise ValueError("blocks must be non-empty")
    if cat.min() < 0 or cat.max() >= g.num_nodes:
        raise ValueError("blocks contain out-of-range node ids")
    if np.unique(cat).size != cat.size:
        raise ValueError("blocks must be disjoint")
    scores, iterations, converged = _block_power_iterate(g, ids, params)
    out = []
    offset = 0
    for i, block_ids in enumerate(ids):
        out.append(ScoreVector(
            node_ids=block_ids,
            scores=scores[offset : offset + block_ids.size],
            iterations_used=int(iterations[i]),
            converged=bool(converged[i]),
        ))
        offset += block_ids.size
    return out

