"""Damped PageRank by power iteration, on the whole graph, on the induced
subgraph of a node subset, or batched over every block of a partition.

All three run one loop: each iteration is one scipy CSR product over the
blocks still iterating, with scores bit-identical to a per-edge
``np.bincount`` scatter (see ``_power_loop``). The batched form,
``pagerank_partition``, takes the partition as flat labels, returns flat
arrays, and iterates blocks that repeat another's size and local adjacency
only once (see ``_repeated_blocks``); ``pagerank_blocks`` is its list form.
``_power_setup`` allocates every array the loop uses before it starts, so
``pagerank_loop`` can hand the loop alone to another thread: on large
graphs ``spa_select`` starts the whole-graph loop on a worker thread before
SCAN and runs SCAN and the block pass beside it."""

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


def _keep_rows(
    indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, new_row) of the rows ``keep`` selects, columns
    renumbered by ``new_row``; every kept row's columns must be kept rows."""
    lengths = np.diff(indptr)
    new_row = np.cumsum(keep) - 1
    kept_indptr = np.zeros(new_row[-1] + 2, dtype=np.int64)
    np.cumsum(lengths[keep], out=kept_indptr[1:])
    return kept_indptr, new_row[indices[np.repeat(keep, lengths)]], new_row


def _power_setup(
    indptr: np.ndarray, indices: np.ndarray, block_of: np.ndarray, params: PageRankParams
) -> tuple:
    """Everything ``_power_loop`` reads or writes, allocated here: the
    unit-weight CSR M over ``indptr``/``indices`` with its data array, and
    the per-node arrays.

    Row i of the CSR is the i-th node in ascending id order and
    ``block_of[i]`` (in 0..k-1) its block; no edge leaves a block. Returns
    the loop's positional arguments.
    """
    total = block_of.size
    sizes = np.bincount(block_of)
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
        indptr, indices, new_row = _keep_rows(m.indptr, m.indices, live)
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
    block_of = np.zeros(ids.size, dtype=np.int64)
    if ids.size == g.num_nodes:
        csr = g.csr_offsets, g.csr_targets
    else:
        csr = _induced_csr(g, ids, block_of)
    state = _power_setup(*csr, block_of, params)

    def run() -> ScoreVector:
        scores, iterations, converged = _power_loop(*state)
        return ScoreVector(ids, scores, int(iterations[0]), bool(converged[0]))

    return run


@dataclass(eq=False)
class BlockScores:
    """Induced-subgraph PageRank of every block of a partition, flat.

    ``node_ids`` are the members of every block, ascending, and ``scores``
    are aligned with them; ``iterations`` and ``converged`` are indexed by
    block id."""

    node_ids: np.ndarray
    scores: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


# Blocks of up to this many members are keyed by their size and the upper
# triangle of their local adjacency as a bit mask, one exact integer: 8
# members have 28 node pairs.
_REPEAT_UP_TO = 8


def _repeated_blocks(
    indptr: np.ndarray, indices: np.ndarray, block_of: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(source, copy_from): ``source[b]`` is the block whose iteration
    block b repeats to the bit, b itself or the lowest-id block of up to
    ``_REPEAT_UP_TO`` members with the same size and adjacency, and row i
    takes its score from row ``copy_from[i]``, the one at the same position
    in ascending id order within block ``source[block_of[i]]``.

    ``_power_loop`` keeps the blocks independent, and a block's arithmetic
    runs over its members in ascending id order, so its scores, iteration
    count and converged flag depend only on its size and on which of those
    positions are adjacent.
    """
    k, total = sizes.size, block_of.size
    order = np.argsort(block_of, kind="stable")  # rows by block, ascending within each
    starts = np.cumsum(sizes) - sizes
    local = np.empty(total, dtype=np.int64)
    local[order] = np.arange(total) - np.repeat(starts, sizes)
    small = sizes <= _REPEAT_UP_TO
    rows = np.repeat(np.arange(total), np.diff(indptr))
    upper = small[block_of[rows]] & (local[rows] < local[indices])
    p, q = local[rows[upper]], local[indices[upper]]
    # each pair is one bit, so the float sums are exact below 2**53
    mask = np.bincount(block_of[rows[upper]], weights=np.ldexp(1.0, q * (q - 1) // 2 + p),
                       minlength=k).astype(np.int64)
    pairs = _REPEAT_UP_TO * (_REPEAT_UP_TO - 1) // 2
    key = np.where(small, (sizes << pairs) | mask, -1 - np.arange(k))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    source = first[inverse]
    return source, order[starts[source[block_of]] + local]


def pagerank_partition(
    g: AttributedGraph, community_of: np.ndarray, params: PageRankParams | None = None
) -> BlockScores:
    """Induced-subgraph PageRank of every block of a partition in one sweep.

    ``community_of[v]`` is the block id of node v, in 0..k-1 with every id
    used, or -1 for a node in no block. Each block's scores are, to the
    bit, those of ``pagerank(g, subset=block)``, but the power iterations
    run batched: each iteration is one CSR product over the blocks that
    have not settled yet. Blocks that repeat another's size and local
    adjacency (see ``_repeated_blocks``) are iterated once and copied.
    """
    params = params or PageRankParams()
    labels = np.asarray(community_of)
    if labels.shape != (g.num_nodes,) or labels.dtype.kind not in "iu":
        raise ValueError(f"community_of must be {g.num_nodes} integer labels, "
                         f"got shape {labels.shape} and dtype {labels.dtype}")
    nodes = np.flatnonzero(labels >= 0)
    block_of = labels[nodes].astype(np.int64)
    sizes = np.bincount(block_of)
    if labels.min(initial=0) < -1 or not sizes.all():
        raise ValueError("community ids must be -1 or 0..k-1 with every id in use")
    if not nodes.size:
        return BlockScores(nodes, np.empty(0), np.empty(0, np.int64), np.empty(0, bool))
    indptr, indices = _induced_csr(g, nodes, block_of)
    source, copy_from = _repeated_blocks(indptr, indices, block_of, sizes)
    iterated = source == np.arange(sizes.size)
    keep = iterated[block_of]
    if not keep.all():
        indptr, indices, _ = _keep_rows(indptr, indices, keep)
    block_id = np.cumsum(iterated) - 1
    scores = np.empty(nodes.size)
    scores[keep], iterations, converged = _power_loop(
        *_power_setup(indptr, indices, block_id[block_of[keep]], params))
    return BlockScores(nodes, scores[copy_from], iterations[block_id[source]],
                       converged[block_id[source]])


def pagerank_blocks(
    g: AttributedGraph,
    blocks: list[np.ndarray],
    params: PageRankParams | None = None,
) -> list[ScoreVector]:
    """``pagerank_partition`` over a list of disjoint node sets, one
    ``ScoreVector`` per block in the order given: equivalent, to the bit, to
    calling ``pagerank(g, subset=block)`` per block. A block's ids may come
    in any order and repeat."""
    params = params or PageRankParams()
    if not blocks:
        return []
    sizes = [len(b) for b in blocks]
    if 0 in sizes:
        raise ValueError("blocks must be non-empty")
    # ids are checked once over all blocks: a partition can hold 1e4+ of them
    members = np.concatenate(blocks)
    node_index(members, g.num_nodes, "block")
    member_block = np.repeat(np.arange(len(blocks), dtype=np.int64), sizes)
    label = np.full(g.num_nodes, -1, dtype=np.int64)
    label[members] = member_block
    if not np.array_equal(label[members], member_block):
        raise ValueError("blocks must be disjoint")
    flat = pagerank_partition(g, label, params)
    by_block = np.argsort(label[flat.node_ids], kind="stable")
    nodes, scores = flat.node_ids[by_block], flat.scores[by_block]
    ends = np.cumsum(np.bincount(label[nodes])).tolist()
    return [
        ScoreVector(nodes[a:z], scores[a:z], int(it), bool(c))
        for a, z, it, c in zip([0] + ends, ends, flat.iterations, flat.converged)
    ]
