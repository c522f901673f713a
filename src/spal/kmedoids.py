"""PAM-style k-medoids: greedy build initialization plus capped swap
refinement, deterministic given the seed."""

from __future__ import annotations

import warnings

import numpy as np

from .graph import check_int

# Rows of the distance matrix handled per block; temporaries stay O(_ROW_CHUNK·n).
_ROW_CHUNK = 256
# Largest float64 distance matrix kmedoids will allocate (2 GiB, n ≈ 16k).
_MAX_DENSE_BYTES = 2 * 2**30
# Swap refinement stops after this many swaps, with a RuntimeWarning when a
# swap would still lower the cost.
_MAX_SWAPS = 100


def _tie_break(values: np.ndarray, priority: np.ndarray) -> int:
    """Index of the minimum value; exact ties resolved by lowest priority."""
    best = np.flatnonzero(values == values.min())
    return int(best[np.argmin(priority[best])])


def _swap_deltas(
    D: np.ndarray, owner: np.ndarray, d_near: np.ndarray, d_second: np.ndarray, k: int
) -> np.ndarray:
    """(k, n) change in total cost from swapping medoid m for candidate c.

    A point o whose medoid stays moves to c only if c is nearer:
    min(D[c,o] − d_near[o], 0), summed over every o into ``acc``. A point
    owned by the leaving medoid m falls back to min(D[c,o], d_second[o]),
    which adds clip(D[c,o], d_near[o], d_second[o]) − d_near[o] to that.
    D is symmetric, so one pass walks the points o in row blocks sorted by
    owner and sums down the columns. Every candidate column then sees the
    same sequence of operations, so duplicate points tie exactly.
    """
    n = D.shape[0]
    by_owner = np.argsort(owner, kind="stable")
    gap = d_second - d_near
    acc = np.zeros(n)
    grouped = np.zeros((k, n))
    block = np.empty((min(_ROW_CHUNK, n), n))
    below = np.empty_like(block)
    for start in range(0, n, _ROW_CHUNK):
        rows = by_owner[start : start + _ROW_CHUNK]
        t, neg = block[: rows.size], below[: rows.size]
        np.take(D, rows, axis=0, out=t, mode="clip")  # "raise" would copy via a buffer
        np.subtract(t, d_near[rows, None], out=t)
        acc += np.minimum(t, 0.0, out=neg).sum(axis=0)
        np.maximum(t, 0.0, out=t)
        np.minimum(t, gap[rows, None], out=t)
        own = owner[rows]
        firsts = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
        grouped[own[firsts]] += np.add.reduceat(t, firsts, axis=0)
    grouped += acc
    return grouped


def _best_swap(delta: np.ndarray, priority: np.ndarray) -> tuple[int, int] | None:
    """The (medoid slot, candidate) pair with the most negative delta, or
    None when no swap strictly improves; near-ties across medoids go to the
    candidate with the lowest priority."""
    best_delta = np.inf
    best_pair: tuple[int, int] | None = None
    best_prio = np.inf
    for mi in range(delta.shape[0]):
        ci = _tie_break(delta[mi], priority)
        d_ci = float(delta[mi, ci])
        if d_ci >= -1e-12:
            continue  # no strict improvement from this medoid
        if (
            best_pair is None
            or d_ci < best_delta - 1e-12
            or (d_ci <= best_delta + 1e-12 and priority[ci] < best_prio)
        ):
            best_delta = d_ci
            best_pair = (mi, ci)
            best_prio = priority[ci]
    return best_pair


def kmedoids(points: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Select k medoid row indices minimizing total Euclidean distance.

    Greedy build picks the point with the largest cost reduction at each
    step; swap refinement then applies the single best (medoid, candidate)
    exchange until no exchange improves the cost or ``_MAX_SWAPS`` swaps are
    made, which emits a RuntimeWarning. A seed-derived priority breaks only
    exact float ties (across medoids, deltas within 1e-12), so cost changes
    equal in real arithmetic but rounded apart go by the rounding.

    Holds the dense n×n float64 distance matrix and makes one O(n²) pass
    over it per swap; raises ValueError when that matrix would exceed
    ``_MAX_DENSE_BYTES`` (2 GiB), and before that on a bad k or seed or a
    point with a non-finite coordinate.
    """
    check_int(k, "k", 1)
    check_int(seed, "seed", 0)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = points.shape[0]
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if bad.size:
        raise ValueError(f"points row {bad[0]} holds a non-finite value")
    if k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return np.arange(n, dtype=np.int64)
    need = 8 * n * n
    if need > _MAX_DENSE_BYTES:
        raise ValueError(
            f"k-medoids on n={n} points needs a {need / 2**30:.1f} GiB distance "
            f"matrix, over the {_MAX_DENSE_BYTES / 2**30:.1f} GiB limit; "
            "use a smaller graph or a subsample of the points"
        )

    # imported here, past the size guard: scipy.spatial takes ~0.22 s, or
    # ~0.11 s once SCAN has loaded scipy.linalg (2 vCPU), and only featprop
    # calls kmedoids
    from scipy.spatial.distance import cdist

    priority = np.random.default_rng(seed).permutation(n)
    D = cdist(points, points)

    # greedy build
    totals = D.sum(axis=1)
    medoids = [_tie_break(totals, priority)]
    d_near = D[medoids[0]].copy()
    block = np.empty((min(_ROW_CHUNK, n), n))
    new_costs = np.empty(n)
    while len(medoids) < k:
        # cost if each candidate were added, given current nearest distances
        for start in range(0, n, _ROW_CHUNK):
            part = D[start : start + _ROW_CHUNK]
            t = np.minimum(part, d_near, out=block[: part.shape[0]])
            t.sum(axis=1, out=new_costs[start : start + part.shape[0]])
        new_costs[medoids] = np.inf
        c = _tie_break(new_costs, priority)
        medoids.append(c)
        np.minimum(d_near, D[c], out=d_near)

    # swap refinement
    medoid_arr = np.array(medoids, dtype=np.int64)
    cols = np.arange(n)
    for swaps in range(_MAX_SWAPS + 1):
        dist_to_medoids = D[medoid_arr]  # (k, n)
        order = np.argsort(dist_to_medoids, axis=0)
        d_near = dist_to_medoids[order[0], cols]
        d_second = dist_to_medoids[order[1], cols] if k > 1 else np.full(n, np.inf)
        delta = _swap_deltas(D, order[0], d_near, d_second, k)
        delta[:, medoid_arr] = np.inf
        best_pair = _best_swap(delta, priority)
        if best_pair is None:
            break
        if swaps == _MAX_SWAPS:
            warnings.warn(
                f"k-medoids stopped after {_MAX_SWAPS} swaps while a swap still "
                "lowers the cost; the medoids are not locally optimal",
                RuntimeWarning, stacklevel=2,
            )
            break
        medoid_arr[best_pair[0]] = best_pair[1]
    return np.sort(medoid_arr)
