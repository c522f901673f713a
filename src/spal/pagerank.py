"""Damped PageRank by power iteration, on the whole graph, on the induced
subgraph of a node subset, or batched over many disjoint subsets at once.

All three run one loop: each iteration is one scipy CSR product over the
blocks still iterating, with scores bit-identical to a per-edge
``np.bincount`` scatter (see ``_power_loop``). ``_power_setup`` allocates
every array the loop uses before it starts, so ``pagerank_loop`` can hand
the loop alone to another thread: ``spa_select`` runs the whole-graph loop
on a worker thread while the block pass runs on its own."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph, check_int, node_index


@dataclass(frozen=True)
class PageRankParams:
    damping: float = 0.95
    tolerance: float = 1e-8
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0, 1), got {self.damping}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        check_int(self.max_iterations, "max_iterations", 1)


@dataclass(eq=False)
class ScoreVector:
    """Non-negative scores summing to 1 over ``node_ids`` (sorted)."""

    node_ids: np.ndarray
    scores: np.ndarray
    iterations_used: int
    converged: bool


# Compact the working set once its live share drops below this fraction;
# until then a settled block stays in the product, masked to hold still.
# Neither mechanism alone pays: on the 65,834 members in 14,431 SCAN
# communities of a 1e5-node heavy-tailed graph (2 vCPU, paired runs,
# medians), the block pass took
# 0.90x the time at 0.9 as at 0.75 (0.97: 0.89x, 0.99: 0.98x), 1.49x when
# compacting at every settle and 1.58x when never compacting.
_COMPACT_BELOW = 0.9


def _unit_csr(indptr: np.ndarray, indices: np.ndarray, n: int) -> sp.csr_matrix:
    """Unit-weight n×n CSR matrix over ``indptr``/``indices`` as given.

    The arrays are attached, not passed to the constructor, which would
    copy int64 indices down to int32 whenever they fit.
    """
    m = sp.csr_matrix((n, n))
    m.indptr, m.indices, m.data = indptr, indices, np.ones(indices.size)
    return m


def _induced_csr(
    g: AttributedGraph, nodes: np.ndarray, block_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the union of the blocks' induced subgraphs, with
    row and column i standing for ``nodes[i]``.

    ``nodes`` is sorted, so the kept edges, read in the graph's CSR order,
    are already in row order with each row's columns ascending.
    """
    label = np.full(g.num_nodes, -1, dtype=np.int64)
    label[nodes] = block_of
    target_label = label[g.csr_targets]
    keep = (target_label >= 0) & (target_label == np.repeat(label, g.degrees))
    kept_before = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    indptr = kept_before[np.append(g.csr_offsets[nodes], keep.size)]
    pos = label  # reused as the node -> row map
    pos[nodes] = np.arange(nodes.size, dtype=np.int64)
    return indptr, pos[g.csr_targets[keep]]


def _power_setup(
    g: AttributedGraph, nodes: np.ndarray, block_of: np.ndarray, params: PageRankParams
) -> tuple:
    """Everything ``_power_loop`` reads or writes, allocated here: the
    unit-weight induced CSR M with its data array, and the per-node arrays.

    ``nodes`` are sorted unique ids and ``block_of[i]`` (in 0..k-1) is the
    block of ``nodes[i]``. A call with one block holding every node wraps
    the graph's own CSR arrays. Returns the loop's positional arguments.
    """
    total = nodes.size
    sizes = np.bincount(block_of)
    if sizes.size == 1 and total == g.num_nodes:
        indptr, indices = g.csr_offsets, g.csr_targets
    else:
        indptr, indices = _induced_csr(g, nodes, block_of)
    m = _unit_csr(indptr, indices, total)
    deg = np.diff(indptr).astype(np.float64)
    safe_deg = np.where(deg == 0.0, 1.0, deg)
    dangling = np.flatnonzero(deg == 0.0)
    n_block = sizes.astype(np.float64)
    # With no dangling member the teleport adds d * 0.0 / n == 0.0 to it, so
    # the precomputed term gives the same bits. It saved 11% of the block pass
    # timed at _COMPACT_BELOW (no dangling member there), and 7% of the block
    # pass and 12% of the whole-graph pass on a 3,327-node SBM.
    teleport = ((1.0 - params.damping) / n_block)[block_of]
    rows = np.arange(total, dtype=np.int64)  # working row -> position in nodes
    pr = (1.0 / n_block)[block_of]
    contrib, change = np.empty(total), np.empty(total)  # per-iteration scratch
    scores = np.empty(total)
    return (m, block_of, n_block, safe_deg, dangling, teleport, pr, rows,
            contrib, change, scores, params)


def _power_loop(
    m, block_of, n_block, safe_deg, dangling, teleport, pr, rows,
    contrib, change, scores, params: PageRankParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power iteration on the induced subgraphs of disjoint node blocks,
    over the arrays ``_power_setup`` made.

    Each iteration is one product ``M @ (pr / deg)`` with M the unit-weight
    induced adjacency, restricted to the blocks still iterating: a block
    freezes once its own L1 step drops below the tolerance, so its result
    does not depend on the other blocks. Frozen blocks are masked until the
    live share of the working set falls below ``_COMPACT_BELOW``; then M and
    the per-row arrays are cut down to the live rows.

    The scores are bit-identical to a per-edge ``np.bincount`` scatter:
    scipy's CSR mat-vec sums each row from 0.0 in ascending column order,
    the order the scatter met the same terms in, and damping and 1/deg
    stay outside the matrix. Per-block sums are ``np.bincount`` by block,
    which adds in ascending id order however many blocks the working set
    holds (``np.sum``'s pairwise order would change the bits).

    Returns (scores aligned with ``nodes``, per-block iteration counts,
    per-block converged flags).
    """
    d = params.damping
    k = n_block.size
    active = np.ones(k, dtype=bool)
    frozen = None  # rows of settled blocks still in the working set
    converged = np.zeros(k, dtype=bool)
    iterations = np.full(k, params.max_iterations, dtype=np.int64)

    for it in range(1, params.max_iterations + 1):
        nxt = m @ np.divide(pr, safe_deg, out=contrib)
        nxt *= d
        if dangling.size:
            dangling_mass = np.bincount(
                block_of[dangling], weights=pr[dangling], minlength=k
            )
            nxt += ((1.0 - d) / n_block + d * dangling_mass / n_block)[block_of]
        else:
            nxt += teleport
        if frozen is not None:
            np.copyto(nxt, pr, where=frozen)  # frozen blocks hold still
        np.abs(np.subtract(nxt, pr, out=change), out=change)
        step = np.bincount(block_of, weights=change, minlength=k)
        pr = nxt
        settled = active & (step < params.tolerance)
        if not settled.any():
            continue
        iterations[settled] = it
        converged |= settled
        active &= ~settled
        if not active.any():
            break
        live = active[block_of]
        if np.count_nonzero(live) >= _COMPACT_BELOW * live.size:
            frozen = ~live
            continue
        frozen = None
        scores[rows[~live]] = pr[~live]
        lengths = np.diff(m.indptr)
        new_row = np.cumsum(live) - 1
        indptr = np.zeros(new_row[-1] + 2, dtype=np.int64)
        np.cumsum(lengths[live], out=indptr[1:])
        indices = new_row[m.indices[np.repeat(live, lengths)]]
        m = _unit_csr(indptr, indices, indptr.size - 1)
        rows, pr, block_of = rows[live], pr[live], block_of[live]
        safe_deg, teleport = safe_deg[live], teleport[live]
        dangling = new_row[dangling[live[dangling]]]
        contrib, change = contrib[: rows.size], change[: rows.size]
    scores[rows] = pr
    return scores, iterations, converged


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
    return pagerank_loop(g, subset, params)()


def pagerank_loop(
    g: AttributedGraph,
    subset: np.ndarray | list[int] | None = None,
    params: PageRankParams | None = None,
) -> Callable[[], ScoreVector]:
    """``pagerank`` in two steps: this call checks the subset and allocates
    every array the iteration uses; the call it returns runs the iteration
    alone and returns the ``ScoreVector``.

    The returned call may run on another thread. Allocating first keeps
    the arrays out of that thread's malloc arena, which glibc does not hand
    back to the system when they are freed.
    """
    params = params or PageRankParams()
    if subset is None:
        ids = np.arange(g.num_nodes, dtype=np.int64)
    else:
        ids = node_index(subset, g.num_nodes, "subgraph")
    state = _power_setup(g, ids, np.zeros(ids.size, dtype=np.int64), params)

    def run() -> ScoreVector:
        scores, iterations, converged = _power_loop(*state)
        return ScoreVector(ids, scores, int(iterations[0]), bool(converged[0]))

    return run


def pagerank_blocks(
    g: AttributedGraph,
    blocks: list[np.ndarray],
    params: PageRankParams | None = None,
) -> list[ScoreVector]:
    """Induced-subgraph PageRank for many disjoint node sets in one sweep.

    Equivalent, to the bit, to calling ``pagerank(g, subset=block)`` per
    block, but the power iterations run batched, which is far cheaper when
    there are many small blocks: each iteration is one CSR product over the
    blocks that have not settled yet. A block's ids may come in any order
    and repeat; one lexsort over all blocks orders them and drops repeats.
    Returns one ``ScoreVector`` per block, in the order given.
    """
    params = params or PageRankParams()
    if not blocks:
        return []
    sizes = [len(b) for b in blocks]
    if 0 in sizes:
        raise ValueError("blocks must be non-empty")
    # ids are checked once over all blocks: a partition can hold 1e4+ of them
    members = np.concatenate(blocks)
    nodes = node_index(members, g.num_nodes, "block")
    member_block = np.repeat(np.arange(len(blocks), dtype=np.int64), sizes)
    order = np.lexsort((members, member_block))  # by block, then id
    members, member_block = members[order].astype(np.int64), member_block[order]
    first = np.ones(members.size, dtype=bool)  # drops an id repeated in its block
    first[1:] = (members[1:] != members[:-1]) | (member_block[1:] != member_block[:-1])
    members, member_block = members[first], member_block[first]
    if members.size != nodes.size:
        raise ValueError("blocks must be disjoint")
    pos = np.searchsorted(nodes, members)
    block_of = np.empty(nodes.size, dtype=np.int64)
    block_of[pos] = member_block
    scores, iterations, converged = _power_loop(*_power_setup(g, nodes, block_of, params))
    scores = scores[pos]
    ends = np.cumsum(np.bincount(member_block)).tolist()
    return [
        ScoreVector(members[a:z], scores[a:z], int(it), bool(c))
        for a, z, it, c in zip([0] + ends, ends, iterations, converged)
    ]
