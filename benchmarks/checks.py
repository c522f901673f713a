"""Correctness checks computed apart from spal, with numpy and scipy only.

Each check takes plain arrays and returns a list of failure messages; an
empty list means the check passed. None of them compares against stored
copies of earlier output: they rebuild the answer independently or test a
property the method guarantees.
"""

from __future__ import annotations

import statistics

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components


def adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetric 0/1 CSR adjacency of an undirected, duplicate-free edge list."""
    u, v = edges[:, 0], edges[:, 1]
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    A = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    A.data[:] = 1.0
    return A


def scan_reference(edges: np.ndarray, n: int, epsilon: float, mu: int) -> np.ndarray:
    """Community id per node (-1 for outliers) rebuilt from sparse A·A.

    Closed-neighbourhood overlap of each edge is (A·A)[i, j] + 2; an edge
    qualifies when its overlap / sqrt((deg_i + 1)(deg_j + 1)) >= epsilon and
    the overlap >= mu. Communities are the connected components of the
    qualifying edges, numbered in order of their smallest member.
    """
    A = adjacency(edges, n)
    deg = np.diff(A.indptr).astype(np.float64)
    common = (A @ A).multiply(A).tocsr()
    # entries of common with zero overlap are dropped, so read them off A
    overlap = np.asarray(common[edges[:, 0], edges[:, 1]]).ravel() + 2.0
    sim = overlap / np.sqrt((deg[edges[:, 0]] + 1.0) * (deg[edges[:, 1]] + 1.0))
    keep = (sim >= epsilon) & (overlap >= mu)
    q = edges[keep]
    in_community = np.zeros(n, dtype=bool)
    in_community[q.ravel()] = True
    Q = sp.csr_matrix((np.ones(q.shape[0]), (q[:, 0], q[:, 1])), shape=(n, n))
    _, comp = connected_components(Q, directed=False)
    community_of = np.full(n, -1, dtype=np.int64)
    members = np.flatnonzero(in_community)
    # first occurrence in node order is each component's smallest member
    _, first, inverse = np.unique(comp[members], return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(members[first]))
    community_of[members] = rank[inverse]
    return community_of


def check_partition(community_of: np.ndarray, reference: np.ndarray) -> list[str]:
    diff = np.flatnonzero(np.asarray(community_of) != reference)
    if diff.size:
        return [f"SCAN partition differs from the A·A rebuild at {diff.size} nodes "
                f"(first node {diff[0]})"]
    return []


def pagerank_residuals(
    edges: np.ndarray, n: int, block_of: np.ndarray, scores: np.ndarray, damping: float
) -> np.ndarray:
    """L1 fixed-point residual per block of induced-subgraph PageRank.

    ``block_of[v]`` is v's block (-1 to leave v out) and ``scores[v]`` its
    score within the block. One damped step with uniform teleport and
    dangling mass spread uniformly over the block is applied, and the L1
    distance to ``scores`` is summed per block.
    """
    k = int(block_of.max()) + 1
    inside = block_of >= 0
    size = np.bincount(block_of[inside], minlength=k).astype(np.float64)
    u, v = edges[:, 0], edges[:, 1]
    same = inside[u] & (block_of[u] == block_of[v])
    src = np.concatenate([u[same], v[same]])
    dst = np.concatenate([v[same], u[same]])
    deg = np.bincount(src, minlength=n).astype(np.float64)
    x = np.where(inside, scores, 0.0)
    flow = np.bincount(dst, weights=x[src] / deg[src], minlength=n)
    dangling = np.bincount(block_of[inside & (deg == 0)],
                           weights=x[inside & (deg == 0)], minlength=k)
    b = block_of[inside]
    nxt = damping * flow[inside] + ((1.0 - damping) / size + damping * dangling / size)[b]
    return np.bincount(b, weights=np.abs(nxt - x[inside]), minlength=k)


def check_pagerank(
    edges: np.ndarray, n: int, block_of: np.ndarray, scores: np.ndarray,
    damping: float, tolerance: float, what: str,
) -> list[str]:
    """Scores are distributions per block that satisfy the damped fixed point.

    Power iteration stops once a step moves less than ``tolerance`` in L1;
    the map contracts by ``damping``, so the residual of the returned vector
    is below damping * tolerance.
    """
    failures = []
    inside = block_of >= 0
    if (scores[inside] < 0).any():
        failures.append(f"{what}: negative scores")
    sums = np.bincount(block_of[inside], weights=scores[inside])
    if np.abs(sums - 1.0).max() > 1e-9:
        failures.append(f"{what}: a block's scores sum to {sums[np.abs(sums - 1).argmax()]}")
    res = pagerank_residuals(edges, n, block_of, scores, damping)
    if res.max() > damping * tolerance:
        failures.append(f"{what}: fixed-point residual {res.max():.3g} in block "
                        f"{res.argmax()} exceeds {damping * tolerance:.3g}")
    return failures


def expected_spa_picks(
    community_of: np.ndarray, block_scores: np.ndarray, global_scores: np.ndarray, b: int
) -> list[int]:
    """Each community's top node by block score (ties to the lowest id),
    then the b representatives with the highest global score (ties to the
    lowest id), ordered by descending block score then node id."""
    members = np.flatnonzero(community_of >= 0)
    order = np.lexsort((members, -block_scores[members], community_of[members]))
    ranked = members[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = community_of[ranked[1:]] != community_of[ranked[:-1]]
    reps = ranked[first]
    top = reps[np.lexsort((reps, -global_scores[reps]))][:b]
    return [int(v) for v in top[np.lexsort((top, -block_scores[top]))]]


def check_spa_picks(selected: list[int], expected: list[int], b: int) -> list[str]:
    if len(selected) != b or len(set(selected)) != b:
        return [f"b={b}: {len(selected)} picks, {len(set(selected))} distinct"]
    if list(selected) != expected:
        wrong = sorted(set(selected) ^ set(expected))
        return [f"b={b}: picks differ from the top representatives "
                f"({len(wrong)} nodes differ, e.g. {wrong[:3]})"]
    return []


def normalized_adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 with D the degrees of A + I."""
    A = adjacency(edges, n) + sp.identity(n, format="csr")
    inv = 1.0 / np.sqrt(np.asarray(A.sum(axis=1)).ravel())
    return sp.diags(inv) @ A @ sp.diags(inv)


def kmedoids_cost(D: np.ndarray, medoids: np.ndarray) -> float:
    return float(D[medoids].min(axis=0).sum())


def check_kmedoids(points: np.ndarray, medoids: np.ndarray) -> list[str]:
    """No single medoid/non-medoid swap lowers the summed distance.

    All k·(n-k) swaps are tried by brute force on a distance matrix built
    here from the points.
    """
    medoids = np.asarray(medoids, dtype=np.int64)
    sq = (points**2).sum(axis=1)
    D = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0))
    np.fill_diagonal(D, 0.0)
    n, k = D.shape[0], medoids.size
    if np.unique(medoids).size != k:
        return [f"k-medoids returned {k - np.unique(medoids).size} repeated medoids"]
    cost = kmedoids_cost(D, medoids)
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[medoids] = True
    best, best_swap = cost, None
    for i in range(k):
        rest = np.delete(medoids, i)
        d_rest = D[rest].min(axis=0) if rest.size else np.full(n, np.inf)
        swap_costs = np.minimum(D, d_rest[None, :]).sum(axis=1)
        swap_costs[is_medoid] = np.inf
        c = int(swap_costs.argmin())
        if swap_costs[c] < best:
            best, best_swap = float(swap_costs[c]), (int(medoids[i]), c)
    if best < cost - 1e-9 * cost:
        return [f"swapping medoid {best_swap[0]} for {best_swap[1]} lowers the cost "
                f"from {cost:.12g} to {best:.12g}"]
    return []


def confusion_scores(
    predictions: np.ndarray, labels: np.ndarray, eval_idx: np.ndarray, num_classes: int
) -> tuple[float, float]:
    """Accuracy and macro-F1 (absent classes score 0) from a confusion matrix."""
    C = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(C, (labels[eval_idx], predictions[eval_idx]), 1)
    tp = np.diag(C).astype(np.float64)
    denom = C.sum(axis=0) + C.sum(axis=1)  # 2·tp + fp + fn
    f1 = np.divide(2.0 * tp, denom, out=np.zeros(num_classes), where=denom > 0)
    return float(tp.sum() / C.sum()), float(f1.mean())


def aggregate_rows(rows: list[dict]) -> dict[tuple[str, int], dict[str, float]]:
    """Mean and sample stddev per (strategy, budget) from runs.csv rows."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for r in rows:
        groups.setdefault((r["strategy"], int(r["budget"])), []).append(r)
    out = {}
    for key, members in groups.items():
        agg: dict[str, float] = {"num_seeds": len(members)}
        for col in ("accuracy", "macro_f1"):
            vals = [float(m[col]) for m in members]
            agg[f"{col}_mean"] = statistics.fmean(vals)
            agg[f"{col}_std"] = statistics.stdev(vals) if len(vals) > 1 else 0.0
        agg["query_time_ms_mean"] = statistics.fmean(float(m["query_time_ms"]) for m in members)
        out[key] = agg
    return out


def check_aggregates(expected: dict, written: list[dict], what: str) -> list[str]:
    """Written aggregate rows agree with ``aggregate_rows`` to 1e-9."""
    failures = []
    seen = set()
    for row in written:
        key = (row["strategy"], int(row["budget"]))
        seen.add(key)
        if key not in expected:
            failures.append(f"{what}: unexpected group {key}")
            continue
        for col, want in expected[key].items():
            got = float(row[col])
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                failures.append(f"{what}: {key} {col} is {got}, rows give {want}")
    if seen != set(expected):
        failures.append(f"{what}: groups {sorted(set(expected) - seen)} missing")
    return failures


def check_grid_ordering(acc_mean: dict[tuple[str, int], float], budgets: list[int]) -> list[str]:
    """spa >= random at every budget and >= pagerank at 2 of 3 budgets."""
    failures = []
    for b in budgets:
        if acc_mean[("spa", b)] < acc_mean[("random", b)]:
            failures.append(f"b={b}: spa accuracy {acc_mean[('spa', b)]:.4f} "
                            f"< random {acc_mean[('random', b)]:.4f}")
    wins = sum(acc_mean[("spa", b)] >= acc_mean[("pagerank", b)] for b in budgets)
    if wins < 2:
        failures.append(f"spa >= pagerank at only {wins} of {len(budgets)} budgets")
    return failures
