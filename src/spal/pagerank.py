"""Damped PageRank by power iteration, on the whole graph or batched over
the induced subgraphs of every block of a partition.

Both run one loop: each iteration is one scipy CSR product over the
blocks still iterating, with its rows in ascending length, and scores
bit-identical to a per-edge ``np.bincount`` scatter in id order. A block
settles when its L1 step in id order drops below the tolerance; the loop
tests a cheaper sum in its own order, within proven bounds, and adds in id
order only when that sum cannot decide. A settled block's scores are
written out as it settles, and its rows are dropped from the product at
the next compaction (see ``_power_iterate``). The
batched form, ``pagerank_partition``, takes the partition as flat labels,
returns flat arrays, and iterates blocks that repeat another's size and
local adjacency only once (see ``_repeated_blocks``); ``pagerank_blocks``
is its list form. On large graphs ``spa_select`` runs ``pagerank`` on a
worker thread beside SCAN and the block pass."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph, check_int, node_index, stable_argsort


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
        if self.max_iterations > np.iinfo(np.int64).max:  # iteration counts are int64
            raise ValueError(f"max_iterations must be <= 2**63 - 1, got {self.max_iterations}")


@dataclass(eq=False)
class ScoreVector:
    """Non-negative scores summing to 1 over ``node_ids`` (sorted)."""

    node_ids: np.ndarray
    scores: np.ndarray
    iterations_used: int
    converged: bool


# Compact the working set once its live share drops below this fraction;
# until then a settled block's rows stay in the product and drift, unread,
# its scores already written. Neither compacting at every settle nor never
# compacting pays. The block pass, medians of 15-21 alternating in-process
# calls, in three processes (fixture) or two (SBM), 2 vCPU guest:
# - the 65,834 members in 14,431 SCAN communities (epsilon 0.3, mu 2) of a
#   1e5-node heavy-tailed graph: 111-117 ms at 0.9, 115-118 ms at 0.75,
#   118-125 ms at 0.97, 235-243 ms when compacting at every settle and
#   120-125 ms when never compacting;
# - the 3,105 members in 25 communities (epsilon 0.3, mu 2) of
#   sbm:6,3327,0.003,0.0004,1.0,42: 7.6-8.1 ms from 0.75 to 0.97, 7.8-8.1 ms
#   when compacting at every settle and 12.0-12.8 ms when never compacting.
_COMPACT_BELOW = 0.9


def _unit_csr(indptr: np.ndarray, indices: np.ndarray, n: int) -> sp.csr_matrix:
    """Unit-weight n×n CSR matrix over ``indptr``/``indices`` as given.

    The arrays are attached, not passed to the constructor, which would
    check them and copy int64 indices down to int32 whenever they fit;
    both must have one dtype, int32 or int64, and are used as they are.
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
    # block ids and rows are below num_nodes, so int32 labels hold them and
    # halve the two per-entry temporaries; the dels keep the peak down
    label = np.full(g.num_nodes, -1, dtype=np.int32 if g.num_nodes < 2**31 else np.int64)
    label[nodes] = block_of
    target_label = label[g.csr_targets]
    keep = target_label == np.repeat(label, g.degrees)
    keep &= target_label >= 0
    del target_label
    kept = np.flatnonzero(keep)
    del keep
    # a row's start is the number of kept entries before its CSR start
    indptr = np.searchsorted(kept, np.append(g.csr_offsets[nodes], g.csr_targets.size))
    pos = label  # reused as the node -> row map
    pos[nodes] = np.arange(nodes.size)
    return indptr, pos[g.csr_targets[kept]].astype(np.int64)


def _keep_rows(
    indptr: np.ndarray, indices: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of the rows ``keep`` selects, columns renumbered in
    the order kept, in the dtype given; every kept row's columns must be
    kept rows."""
    lengths = np.diff(indptr)
    new_row = np.cumsum(keep, dtype=indices.dtype) - 1
    kept_indptr = np.zeros(new_row[-1] + 2, dtype=indptr.dtype)
    np.cumsum(lengths[keep], out=kept_indptr[1:])
    return kept_indptr, new_row[indices[np.repeat(keep, lengths)]]


# The renumbered columns are written this many CSR entries at a time, so no
# temporary holds one int64 per entry. On the benchmark's 1e5-node graph
# (8e5 entries, 2 vCPU) the reorder took 8.0-8.3 ms at 2**14 to 2**18
# entries per chunk and 9.0 ms at 2**20.
_REORDER_CHUNK = 1 << 16


def _by_length(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, indptr, indices): the CSR with its rows in ascending length,
    ties in ascending row order, and its columns renumbered to match, each
    row's entries in their stored order; working row i is input row
    ``order[i]``. The arrays are int32 whenever the entry count fits, as
    scipy's constructor would make them."""
    total = indptr.size - 1
    lengths = np.diff(indptr)
    order = stable_argsort(lengths)
    dtype = np.int32 if max(indices.size, total) < 2**31 else np.int64
    work_indptr = np.zeros(total + 1, dtype=dtype)
    np.cumsum(lengths[order], out=work_indptr[1:])
    new_id = np.empty(total, dtype=dtype)
    new_id[order] = np.arange(total, dtype=dtype)
    work_indices = np.empty(indices.size, dtype=dtype)
    # input rows a..z-1 at a time, each entry scattered to its working slot
    marks = np.searchsorted(indptr, np.arange(0, indices.size, _REORDER_CHUNK), "right") - 1
    bounds = np.append(marks, total).tolist()
    for a, z in zip(bounds[:-1], bounds[1:]):
        lo, hi = int(indptr[a]), int(indptr[z])
        slot = np.repeat(work_indptr[new_id[a:z]] - indptr[a:z], lengths[a:z])
        slot += np.arange(lo, hi)
        work_indices[slot] = new_id[indices[lo:hi]]
    return order, work_indptr, work_indices


def _rounded(num: int, den: int, up: bool) -> float:
    """num/den rounded to a float toward +inf (``up``) or toward 0."""
    try:
        q = num / den  # int / int is correctly rounded, subnormals included
    except OverflowError:  # past the largest float, so only when rounding up
        return math.inf
    a, b = q.as_integer_ratio()
    if (a * den < num * b) if up else (a * den > num * b):
        q = math.nextafter(q, math.inf if up else 0.0)
    return q


def _decisive_bounds(tolerance: float, terms: int) -> tuple[float, float]:
    """(below, above) for sums of at most ``terms`` nonnegative floats.

    Two float sums of the same terms in any two orders each lie within
    gamma*S of the real sum S, gamma = (terms-1)u / (1 - (terms-1)u) with
    u = 2**-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 4; additions that underflow are exact). So one sum below
    tolerance*(1-gamma)/(1+gamma) proves the other is below the tolerance,
    and one at or above tolerance*(1+gamma)/(1-gamma) proves the other is
    not. That ratio is exactly (2**53 - 2(terms-1)) / 2**53; both bounds
    are computed in integers and rounded outward, so neither underflows,
    overflows or rounds into a wrong decision.
    """
    a, b = tolerance.as_integer_ratio()
    r = 2**53 - 2 * (terms - 1)
    return _rounded(a * r, b << 53, up=False), _rounded(a << 53, b * r, up=True)


def _exact_steps(
    change: np.ndarray, rows: np.ndarray, block_of: np.ndarray, blocks: np.ndarray
) -> np.ndarray:
    """Per-block sums of ``change`` over the blocks that the mask ``blocks``
    selects, added in ascending input-row order, the order that defines the
    result's bits (other blocks read 0)."""
    pick = np.flatnonzero(blocks[block_of])
    pick = pick[np.argsort(rows[pick])]
    return np.bincount(block_of[pick], weights=change[pick], minlength=blocks.size)


def _power_iterate(
    indptr: np.ndarray, indices: np.ndarray, block_of: np.ndarray, params: PageRankParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Power iteration on the induced subgraphs of disjoint node blocks.

    Row i of the unit-weight CSR M over ``indptr``/``indices`` is the i-th
    node in ascending id order and ``block_of[i]`` (in 0..k-1) its block;
    no edge leaves a block. Each iteration is one product ``M @ (pr / deg)``
    restricted to the blocks still iterating: a block settles once its own
    L1 step drops below the tolerance, so its result does not depend on the
    other blocks. Its scores are written to the result in the iteration it
    settles. Its rows stay in the product, and keep iterating unread, until
    the live share of the working set falls below ``_COMPACT_BELOW``; then
    M and the per-row arrays are cut down to the live rows. No edge leaves
    a block, so no other block reads a settled block's drifting rows.
    After the loop only the blocks that never settled are written.

    The loop runs on M with its rows in ascending length (``_by_length``):
    the product's inner loop then runs the same trip count row after row.
    The scores are bit-identical to a per-edge ``np.bincount`` scatter in
    ascending id order: scipy's CSR mat-vec sums each row from 0.0 in its
    stored order, which reordering the rows keeps, the order the scatter
    met the same terms in, and damping and 1/deg stay outside the matrix.

    A block's L1 step is defined as its sum in ascending id order, but the
    loop only needs to know whether that sum is below the tolerance. It
    sums in working order instead (``change.sum()`` for one block, a
    ``np.bincount`` by block otherwise), and that estimate decides whenever
    it falls outside ``_decisive_bounds`` for the largest block; only a
    block whose estimate falls between them is summed again in id order
    (``_exact_steps``). So the settle iterations are those of the id-order
    sum, at one fast sum per iteration.

    Returns (scores aligned with the rows, per-block iteration counts,
    per-block converged flags).
    """
    total = block_of.size
    n_block = np.bincount(block_of).astype(np.float64)
    k = n_block.size
    below, above = _decisive_bounds(params.tolerance, int(n_block.max()))
    rows, indptr, indices = _by_length(indptr, indices)  # working row -> input row
    block_of = block_of[rows]
    m = _unit_csr(indptr, indices, total)
    # The sort is stable, so the dangling rows (length 0) come first, in
    # ascending id order: their per-block mass adds in id order, as in the
    # reference loop, and compacting keeps them a prefix.
    safe_deg = np.diff(indptr).astype(np.float64)
    n_dangling = int(np.searchsorted(safe_deg, 0.0, "right"))
    safe_deg[:n_dangling] = 1.0
    del indptr, indices  # m holds them, and compacting lets them go
    d = params.damping
    # With no dangling member the teleport adds d * 0.0 / n == 0.0 to it, so
    # the precomputed term gives the same bits. It saved 11% of the block pass
    # timed at _COMPACT_BELOW (no dangling member there), and 7% of the block
    # pass and 12% of the whole-graph pass on a 3,327-node SBM.
    teleport = None if n_dangling else ((1.0 - d) / n_block)[block_of]
    pr = (1.0 / n_block)[block_of]
    contrib, change = np.empty(total), np.empty(total)  # per-iteration scratch
    scores = np.empty(total)
    active = np.ones(k, dtype=bool)
    converged = np.zeros(k, dtype=bool)
    iterations = np.full(k, params.max_iterations, dtype=np.int64)

    for it in range(1, params.max_iterations + 1):
        nxt = m @ np.divide(pr, safe_deg, out=contrib)
        nxt *= d
        if teleport is None:
            dangling_mass = np.bincount(
                block_of[:n_dangling], weights=pr[:n_dangling], minlength=k
            )
            spread = (1.0 - d) / n_block + d * dangling_mass / n_block
            # one block adds its one value as a scalar: the same addition
            nxt += spread[0] if k == 1 else spread[block_of]
        else:
            nxt += teleport
        np.abs(np.subtract(nxt, pr, out=change), out=change)
        if k == 1:
            step = change.sum(keepdims=True)
        else:
            step = np.bincount(block_of, weights=change, minlength=k)
        pr = nxt
        settled = active & (step < above)  # the blocks that may settle
        if not settled.any():
            continue
        undecided = settled & (step >= below)
        if undecided.any():
            exact = _exact_steps(change, rows, block_of, undecided)
            settled &= ~undecided | (exact < params.tolerance)
            if not settled.any():
                continue
        iterations[settled] = it
        converged |= settled
        active &= ~settled
        done = settled[block_of]  # their rows drift from here on, unread
        scores[rows[done]] = pr[done]
        if not active.any():
            break
        live = active[block_of]
        if np.count_nonzero(live) >= _COMPACT_BELOW * live.size:
            continue
        m = _unit_csr(*_keep_rows(m.indptr, m.indices, live), np.count_nonzero(live))
        n_dangling = int(np.count_nonzero(live[:n_dangling]))
        rows, pr, block_of, safe_deg = rows[live], pr[live], block_of[live], safe_deg[live]
        if teleport is not None:
            teleport = teleport[live]
        contrib, change = contrib[: rows.size], change[: rows.size]
    capped = active[block_of]  # the blocks that never settled
    scores[rows[capped]] = pr[capped]
    return scores, iterations, converged


def pagerank(g: AttributedGraph, params: PageRankParams | None = None) -> ScoreVector:
    """Power-iterate PR <- (1-d)/N + d * sum_{v in B(u)} PR(v)/deg(v) on the
    whole graph.

    Degree-zero nodes redistribute their mass uniformly each iteration, so
    scores always sum to 1. Iteration stops when the L1 change drops below
    the tolerance. ``pagerank_partition`` is the same loop on the induced
    subgraph of each block of a partition.
    """
    ids = np.arange(g.num_nodes, dtype=np.int64)
    scores, iterations, converged = _power_iterate(
        g.csr_offsets, g.csr_targets, np.zeros(ids.size, dtype=np.int64),
        params or PageRankParams())
    return ScoreVector(ids, scores, int(iterations[0]), bool(converged[0]))


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
) -> tuple[np.ndarray, np.ndarray]:
    """(source, copy_from): ``source[b]`` is the block whose iteration
    block b repeats to the bit, b itself or the lowest-id block of up to
    ``_REPEAT_UP_TO`` members with the same size and adjacency, and row i
    takes its score from row ``copy_from[i]``, the one at the same position
    in ascending id order within block ``source[block_of[i]]``.

    ``_power_iterate`` keeps the blocks independent, and a block's arithmetic
    runs over its members in ascending id order, so its scores, iteration
    count and converged flag depend only on its size and on which of those
    positions are adjacent.
    """
    k, total = sizes.size, block_of.size
    order = stable_argsort(block_of)  # rows by block, ascending within each
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
    # each run of equal keys takes its lowest block id; an unstable sort
    # with a per-run minimum measured 0.74 ms on the 14,431 blocks of a
    # 1e5-node heavy-tailed graph, a stable one or np.unique 0.95 ms
    by_key = np.argsort(key)
    sorted_key = key[by_key]
    run_start = np.flatnonzero(np.append(True, sorted_key[1:] != sorted_key[:-1]))
    source = np.empty(k, dtype=np.int64)
    source[by_key] = np.repeat(np.minimum.reduceat(by_key, run_start),
                               np.diff(run_start, append=k))
    return source, order[starts[source[block_of]] + local]


def pagerank_partition(
    g: AttributedGraph, community_of: np.ndarray, params: PageRankParams | None = None
) -> BlockScores:
    """Induced-subgraph PageRank of every block of a partition in one sweep.

    ``community_of[v]`` is the block id of node v, in 0..k-1 with every id
    used, or -1 for a node in no block. Each block's scores are, to the
    bit, those of a one-block partition of that block alone, but the power
    iterations run batched: each iteration is one CSR product over the
    blocks that have not settled yet. Blocks that repeat another's size
    and local adjacency (see ``_repeated_blocks``) are iterated once and
    copied.
    """
    params = params or PageRankParams()
    labels = np.asarray(community_of)
    if labels.shape != (g.num_nodes,) or labels.dtype.kind not in "iu":
        raise ValueError(f"community_of must be {g.num_nodes} integer labels, "
                         f"got shape {labels.shape} and dtype {labels.dtype}")
    nodes = np.flatnonzero(labels >= 0)
    block_of = labels[nodes].astype(np.int64)
    # with every id 0..k-1 in use, k is at most the member count, so a larger
    # id is refused before it sizes the bincount
    if (labels.min(initial=0) < -1 or (labels >= nodes.size).any()
            or not (sizes := np.bincount(block_of)).all()):
        raise ValueError("community ids must be -1 or 0..k-1 with every id in use")
    if not nodes.size:
        return BlockScores(nodes, np.empty(0), np.empty(0, np.int64), np.empty(0, bool))
    indptr, indices = _induced_csr(g, nodes, block_of)
    source, copy_from = _repeated_blocks(indptr, indices, block_of, sizes)
    iterated = source == np.arange(sizes.size)
    keep = iterated[block_of]
    if not keep.all():
        indptr, indices = _keep_rows(indptr, indices, keep)
    block_id = np.cumsum(iterated) - 1
    scores = np.empty(nodes.size)
    scores[keep], iterations, converged = _power_iterate(
        indptr, indices, block_id[block_of[keep]], params)
    return BlockScores(nodes, scores[copy_from], iterations[block_id[source]],
                       converged[block_id[source]])


def pagerank_blocks(
    g: AttributedGraph,
    blocks: list[np.ndarray],
    params: PageRankParams | None = None,
) -> list[ScoreVector]:
    """``pagerank_partition`` over a list of disjoint node sets, one
    ``ScoreVector`` per block in the order given, with each block's ids
    ascending. A block's ids may come in any order and repeat."""
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
