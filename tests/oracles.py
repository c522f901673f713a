"""Independent brute-force oracles the unit and acceptance tests check
against. These deliberately avoid the library's code paths: dense linear
algebra, set arithmetic, BFS components, and exhaustive enumeration."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from spal.graph import GraphLoadError


def parse_edge_file_reference(path: Path) -> tuple[np.ndarray, int]:
    """Line-by-line edge-list parser: ``(pairs without self-loops, self-loop
    count)``. Same accepted files and pairs as ``spal.graph``'s reader, except
    that it rejects a ``#`` after the ids and lets an id past int64 escape as
    ``OverflowError``."""
    pairs: list[tuple[int, int]] = []
    self_loops = 0
    with path.open("r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise GraphLoadError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise GraphLoadError(
                    f"{path}:{lineno}: non-integer node id in {line!r}"
                ) from None
            if u < 0 or v < 0:
                raise GraphLoadError(f"{path}:{lineno}: negative node id")
            if u == v:
                self_loops += 1
                continue
            pairs.append((u, v))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2), self_loops


def csr_reference(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Row-wise CSR build: ``(offsets, targets, num_edges, duplicates_dropped)``
    from sorting each pair, a row-wise unique and a two-key lexsort."""
    canon = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    unique = np.unique(canon, axis=0)
    directed = np.concatenate([unique, unique[:, ::-1]], axis=0)
    directed = directed[np.lexsort((directed[:, 1], directed[:, 0]))]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(directed[:, 0], minlength=n), out=offsets[1:])
    return offsets, directed[:, 1].copy(), unique.shape[0], canon.shape[0] - unique.shape[0]


def dense_normalized_adjacency(g) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} built densely from neighbor queries."""
    n = g.num_nodes
    A = np.zeros((n, n))
    for v in range(n):
        A[v, g.neighbors(v)] = 1.0
    A_hat = A + np.eye(n)
    d_inv_sqrt = 1.0 / np.sqrt(A_hat.sum(axis=1))
    return d_inv_sqrt[:, None] * A_hat * d_inv_sqrt[None, :]


def scan_brute_force(g, epsilon: float, mu: int):
    """Evaluate the edge predicate with sets, then BFS over qualifying edges.

    Returns (communities as a set of frozensets, outliers as a frozenset).
    """
    n = g.num_nodes
    closed = [set(g.neighbors(v).tolist()) | {v} for v in range(n)]
    qualifying: dict[int, set[int]] = {v: set() for v in range(n)}
    for i in range(n):
        for j in g.neighbors(i):
            j = int(j)
            if j <= i:
                continue
            shared = len(closed[i] & closed[j])
            sim = shared / np.sqrt(len(closed[i]) * len(closed[j]))
            if sim >= epsilon and shared >= mu:
                qualifying[i].add(j)
                qualifying[j].add(i)

    seen = set()
    communities = set()
    outliers = set()
    for start in range(n):
        if start in seen:
            continue
        if not qualifying[start]:
            outliers.add(start)
            seen.add(start)
            continue
        component = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in qualifying[v]:
                if u not in component:
                    component.add(u)
                    frontier.append(u)
        seen |= component
        communities.add(frozenset(component))
    return communities, frozenset(outliers)


def pagerank_dense_solve(g, damping: float, subset=None) -> tuple[np.ndarray, np.ndarray]:
    """Exact fixed point of the damped walk via a dense linear solve.

    Returns (sorted node ids, scores). Dangling nodes spread uniformly.
    """
    if subset is None:
        ids = np.arange(g.num_nodes)
    else:
        ids = np.unique(np.asarray(subset))
    n = len(ids)
    pos = {int(v): k for k, v in enumerate(ids)}
    P = np.zeros((n, n))  # P[u, v] = probability of stepping v -> u
    for v in ids:
        targets = [int(t) for t in g.neighbors(int(v)) if int(t) in pos]
        if targets:
            for t in targets:
                P[pos[t], pos[int(v)]] = 1.0 / len(targets)
        else:
            P[:, pos[int(v)]] = 1.0 / n
    b = np.full(n, (1.0 - damping) / n)
    scores = np.linalg.solve(np.eye(n) - damping * P, b)
    return ids, scores


def kmedoids_brute_force(points: np.ndarray, k: int) -> tuple[set[int], float]:
    """Globally optimal medoid set by exhaustive enumeration (tiny n only)."""
    n = len(points)
    D = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    best_cost = np.inf
    best: set[int] = set()
    for combo in itertools.combinations(range(n), k):
        cost = D[:, combo].min(axis=1).sum()
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = set(combo)
    return best, best_cost


def pam_reference(
    points: np.ndarray, k: int, seed: int = 0, max_swaps: int = 100
) -> np.ndarray:
    """PAM with a per-medoid swap loop: for every medoid, the cost change of
    every candidate is summed over copies of the rows it owns and the rows
    it does not. O(k·n²) per swap. Same build, tie-breaks and swap rule as
    ``spal.kmedoids``, whose medoids must match these exactly."""
    def tie_break(values, priority):
        best = np.flatnonzero(values == values.min())
        return int(best[np.argmin(priority[best])])

    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points.reshape(-1, 1)
    n = points.shape[0]
    if k == n:
        return np.arange(n, dtype=np.int64)
    priority = np.random.default_rng(seed).permutation(n)
    D = cdist(points, points)

    medoids = [tie_break(D.sum(axis=1), priority)]
    d_near = D[medoids[0]].copy()
    while len(medoids) < k:
        new_costs = np.minimum(D, d_near[None, :]).sum(axis=1)
        new_costs[medoids] = np.inf
        c = tie_break(new_costs, priority)
        medoids.append(c)
        np.minimum(d_near, D[c], out=d_near)

    medoid_arr = np.array(medoids, dtype=np.int64)
    for _ in range(max_swaps):
        dist_to_medoids = D[medoid_arr]
        order = np.argsort(dist_to_medoids, axis=0)
        nearest_idx = order[0]
        d_near = dist_to_medoids[nearest_idx, np.arange(n)]
        d_second = dist_to_medoids[order[1], np.arange(n)] if k > 1 else np.full(n, np.inf)

        best_delta = np.inf
        best_pair = None
        best_prio = np.inf
        is_medoid = np.zeros(n, dtype=bool)
        is_medoid[medoid_arr] = True
        for mi in range(k):
            owned = nearest_idx == mi
            gain_owned = (
                np.minimum(D[owned], d_second[owned][:, None]).sum(axis=0)
                - d_near[owned].sum()
            )
            gain_other = np.minimum(D[~owned] - d_near[~owned][:, None], 0.0).sum(axis=0)
            delta = gain_owned + gain_other
            delta[is_medoid] = np.inf
            ci = tie_break(delta, priority)
            d_ci = float(delta[ci])
            if d_ci >= -1e-12:
                continue
            if (
                best_pair is None
                or d_ci < best_delta - 1e-12
                or (d_ci <= best_delta + 1e-12 and priority[ci] < best_prio)
            ):
                best_delta = d_ci
                best_pair = (mi, ci)
                best_prio = priority[ci]
        if best_pair is None:
            break
        medoid_arr[best_pair[0]] = best_pair[1]
    return np.sort(medoid_arr)


def confusion_metrics(preds, truth, num_classes: int) -> tuple[float, float]:
    """(accuracy, macro-F1) from an explicitly built confusion matrix."""
    preds = list(preds)
    truth = list(truth)
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p, t in zip(preds, truth):
        cm[t][p] += 1
    acc = np.trace(cm) / cm.sum()
    f1s = []
    for c in range(num_classes):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
    return float(acc), float(np.mean(f1s))


def finite_difference_grads(objective, model, step: float = 1e-5):
    """Central finite differences of a scalar objective w.r.t. W0 and W1."""
    grads = []
    for W in (model.W0, model.W1):
        grad = np.zeros_like(W)
        it = np.nditer(W, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = W[idx]
            W[idx] = orig + step
            up = objective(model)
            W[idx] = orig - step
            down = objective(model)
            W[idx] = orig
            grad[idx] = (up - down) / (2 * step)
        grads.append(grad)
    return grads
