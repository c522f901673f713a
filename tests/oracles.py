"""Independent brute-force oracles the unit and acceptance tests check
against. These deliberately avoid the library's code paths: dense linear
algebra, set arithmetic, BFS components, and exhaustive enumeration."""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from spal.gcn import TrainConfig, TrainingDivergedError, _adam_step, _softmax, init_model
from spal.graph import GraphLoadError, NormalizedAdjacency
from spal.pagerank import PageRankParams, pagerank
from spal.scan import ScanParams, scan_partition
from spal.selection import SelectionRecord, SelectionResult


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


def edge_overlap_reference(g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, |N[i] ∩ N[j]|) for every edge i < j in (i, j) order, from the
    sparse product A·A: adjacent i and j share their common neighbors plus
    themselves, so the closed overlap is (A·A)[i, j] + 2."""
    n = g.num_nodes
    ones = np.ones(g.csr_targets.size, dtype=np.int64)
    A = sp.csr_array((ones, g.csr_targets, g.csr_offsets), shape=(n, n))
    upper = sp.triu(A, k=1, format="coo")
    order = np.lexsort((upper.col, upper.row))
    i, j = upper.row[order].astype(np.int64), upper.col[order].astype(np.int64)
    return i, j, (A @ A)[i, j] + 2


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


def block_power_reference(g, blocks, params: PageRankParams):
    """Lockstep power iteration over concatenated block positions, one
    per-edge ``np.bincount`` scatter per iteration; a block freezes once its
    own L1 step drops below the tolerance. ``blocks`` are sorted, unique and
    disjoint. Returns (scores over the concatenated blocks, per-block
    iteration counts, per-block converged flags), which
    ``spal.pagerank``'s CSR loop must match to the bit."""
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


def spa_select_reference(g, scan_params=None, pr_params=None, b: int = 1) -> SelectionResult:
    """``spal.spa_select`` as a per-community record loop with Python sorts:
    each block's first exact score maximum in id order is its representative,
    reps are cut by (-global score, id), topped up from the global
    ``lexsort`` and finally ordered by (-score, id). No timing, no warning."""
    if b < 1:
        raise ValueError(f"budget must be >= 1, got {b}")
    scan_params = scan_params or ScanParams()
    pr_params = pr_params or PageRankParams()
    b_eff = min(b, g.num_nodes)
    assignment = scan_partition(g, scan_params)
    communities = assignment.communities
    reps: list[SelectionRecord] = []
    if communities:  # block scores from the bincount loop, which iterates every block
        block_scores, _, _ = block_power_reference(g, communities, pr_params)
        ends = np.cumsum([len(c) for c in communities])
        for cid, (ids, scores) in enumerate(
                zip(communities, np.split(block_scores, ends[:-1]))):
            top = int(ids[np.flatnonzero(scores == scores.max())[0]])
            reps.append(SelectionRecord(top, cid, float(scores[np.searchsorted(ids, top)])))

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

    reps.sort(key=lambda r: (-r.score, r.node))
    return SelectionResult("spa", b, None, reps)


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


def train_full_reference(g, labeled, cfg: TrainConfig | None = None):
    """Full-batch trainer: every epoch runs both layers on all n nodes and
    backpropagates an n x C gradient that is zero off the labeled rows. Same
    initialization, Adam steps and summation order per row as ``spal.gcn.train``,
    whose weights must match these exactly."""
    def forward(model, op, AX):
        Z1 = AX @ model.W0
        P2 = op.apply(np.maximum(Z1, 0.0))
        return Z1, P2, _softmax(P2 @ model.W1)

    def objective_and_grads(model, op, AX, labels, labeled_idx, weight_decay):
        Z1, P2, probs = forward(model, op, AX)
        p_true = probs[labeled_idx, np.asarray(labels)[labeled_idx]]
        loss = float(-np.log(np.maximum(p_true, 1e-12)).sum())
        loss += 0.5 * weight_decay * (np.sum(model.W0**2) + np.sum(model.W1**2))

        dZ2 = np.zeros_like(probs)
        dZ2[labeled_idx] = probs[labeled_idx]
        dZ2[labeled_idx, labels[labeled_idx]] -= 1.0

        gW1 = P2.T @ dZ2 + weight_decay * model.W1
        dH1 = op.apply(dZ2 @ model.W1.T)  # A_norm is symmetric
        dZ1 = dH1 * (Z1 > 0.0)
        gW0 = AX.T @ dZ1 + weight_decay * model.W0
        return loss, gW0, gW1

    cfg = cfg or TrainConfig()
    idx = np.asarray(sorted(labeled), dtype=np.int64)
    model = init_model(g.features.shape[1], g.num_classes, cfg)
    op = NormalizedAdjacency(g)
    AX = op.apply(g.features)
    for epoch in range(1, cfg.epochs + 1):
        loss, gW0, gW1 = objective_and_grads(model, op, AX, g.labels, idx, cfg.weight_decay)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"non-finite loss {loss} at epoch {epoch}")
        model.step += 1
        _adam_step(model.W0, gW0, model.m0, model.v0, model.step, cfg.learning_rate)
        _adam_step(model.W1, gW1, model.m1, model.v1, model.step, cfg.learning_rate)
    return model


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
