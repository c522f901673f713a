"""Attributed-graph storage: plain-text ingestion, CSR adjacency, and the
symmetrically normalized adjacency operator shared by feature propagation
and the GCN."""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class GraphLoadError(ValueError):
    """Raised when graph input files are malformed or inconsistent."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class AttributedGraph:
    """Immutable undirected graph in CSR form with node features and labels.

    Adjacency is symmetric, self-loop free and duplicate free; neighbor
    lists (``csr_targets`` slices) are sorted. All arrays are read-only,
    so instances are safe to share across workers.
    """

    num_nodes: int
    num_edges: int  # undirected edge count; csr_targets has 2 * num_edges entries
    csr_offsets: np.ndarray
    csr_targets: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    def __post_init__(self) -> None:
        for a in (self.csr_offsets, self.csr_targets, self.features, self.labels):
            _readonly(a)

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.csr_offsets)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted open neighborhood of ``v`` (read-only view, ``v`` excluded)."""
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"node id {v} out of range [0, {self.num_nodes})")
        return self.csr_targets[self.csr_offsets[v] : self.csr_offsets[v + 1]]


def check_int(value, name: str, minimum: int) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer
    (numpy integers count, bools do not) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)``: the distinct values of the flattened input,
    ascending, in its dtype. One sort, then each value is kept when it
    differs from its predecessor. NaNs, which ``np.unique`` merges, are
    kept apart; every caller passes integers.

    ``np.unique`` is not used because, with numpy 2.4.6 on a 2-vCPU guest,
    its hash-based path is far slower than a sort (medians in one process):
    29.7 ms against 1.4 ms on 1e5 ints, 276 against 5.9 ms on 4e5 and 772
    against 11.5 ms on 8e5; its ``return_index`` form is about 10x slower.
    """
    values = np.sort(np.asarray(values), axis=None)
    first = np.empty(values.size, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integer keys.

    numpy's stable sort is a radix sort for keys of 16 bits or fewer, so
    keys below 2**16 are sorted as uint16; the permutation is the same. On
    the benchmark's 1e5-node graph (2 vCPU guest, best of 5) the 1e5 int64
    degrees took 0.75 ms against 4.13 ms, and the block ids of the 65,834
    SCAN community members 0.40 ms against 4.82 ms.
    """
    if keys.max(initial=0) < 2**16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


# On numpy 2.4.6, ``np.where(mask, a, b)`` and ``a[mask]`` branch once per
# element, so on a mask that follows the data they are 3-5x slower than
# arithmetic or ``np.flatnonzero`` plus a gather. On 65,536 int64 values
# (2 vCPU guest, best of 9 x 500 calls, two processes): np.where on a
# coin-flip mask took 256-261 us against 70-73 us for ``b + (a - b) * mask``,
# and ``a[mask]`` at 50% density 330-333 us against 68-71 us for the gather.
# A mask that is one contiguous run, or 99% dense, is faster as a mask:
# 20 us against 47-49 us for a contiguous half, 38-39 us against 310-313 us
# at 99%. The hot loops in ``scan`` and ``pagerank`` and spa's
# representatives say at each select which case it is.


def node_index(ids, num_nodes: int, what: str) -> np.ndarray:
    """Sorted unique int64 node ids; rejects an empty set, non-integer ids
    and ids outside [0, num_nodes). ``what`` names the set in the error
    message."""
    if isinstance(ids, (set, frozenset)):
        ids = list(ids)
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError(f"{what} set must be non-empty")
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"{what} node ids must be integers, got dtype {ids.dtype}")
    idx = sorted_unique(ids).astype(np.int64, copy=False)
    if idx[0] < 0 or idx[-1] >= num_nodes:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise ValueError(f"{what} node id {bad} out of range [0, {num_nodes})")
    return idx


def _integer_array(values, what: str) -> np.ndarray:
    """``values`` as int64; a GraphLoadError naming ``what`` unless they are integers."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise GraphLoadError(f"{what} must be integers, got dtype {values.dtype}")
    return values.astype(np.int64, copy=False)


def from_edges(
    edges: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    self_loops_dropped: int = 0,
) -> AttributedGraph:
    """Build a validated graph from an (k, 2) int array of undirected edges.

    Edges are symmetrized and deduplicated; ``edges`` must already be free
    of self-loops (the loaders strip and count them). Edge and label arrays
    must hold integers: float values are rejected, not truncated.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features.reshape(-1, 1)
    labels = np.asarray(labels).reshape(-1)
    n = features.shape[0]
    if n == 0:
        raise GraphLoadError("empty graph: no nodes")
    if labels.shape[0] != n:
        raise GraphLoadError(
            f"row-count mismatch: {n} feature rows vs {labels.shape[0]} labels"
        )
    labels = _integer_array(labels, "labels")
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise GraphLoadError(f"feature row {np.argmin(finite)} holds a non-finite value")
    if labels.min() < 0:
        raise GraphLoadError("labels must be non-negative integers")

    edges = np.asarray(edges)
    if edges.size == 0:
        raise GraphLoadError("empty graph: no edges")
    edges = _integer_array(edges, "edge node ids").reshape(-1, 2)
    if edges.min() < 0 or edges.max() >= n:
        bad = edges[(edges < 0).any(axis=1) | (edges >= n).any(axis=1)][0]
        raise GraphLoadError(f"edge ({bad[0]}, {bad[1]}) references node id >= {n}")
    if (edges[:, 0] == edges[:, 1]).any():
        raise GraphLoadError("self-loops must be stripped before construction")

    # key each undirected edge by min·n + max (exact in int64 below 3e9 nodes):
    # a 1-D unique dedups, and one sort of both directions' keys orders the
    # CSR by (source, target)
    u, v = edges[:, 0], edges[:, 1]
    keys = sorted_unique(np.minimum(u, v) * n + np.maximum(u, v))
    lo, hi = np.divmod(keys, n)
    src, dst = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])

    return AttributedGraph(
        num_nodes=n,
        num_edges=keys.size,
        csr_offsets=offsets,
        csr_targets=dst,
        features=features,
        labels=labels,
        num_classes=int(labels.max()) + 1,
        self_loops_dropped=self_loops_dropped,
        duplicates_dropped=edges.shape[0] - keys.size,
    )


def _loadtxt(path: str | Path, problem: str, **kwargs) -> np.ndarray:
    """``np.loadtxt(path, **kwargs)``, with any parse failure raised as a
    GraphLoadError naming the file and ``problem``."""
    try:
        with warnings.catch_warnings():
            # a file with no data lines reaches from_edges, which rejects it
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # older numpy reads "1.0" or "2.7" as an int through a float with
            # only this warning; as an error it becomes loadtxt's ValueError
            warnings.filterwarnings(
                "error", r"loadtxt\(\): Parsing an integer via a float", DeprecationWarning
            )
            return np.loadtxt(path, **kwargs)
    except ValueError as e:
        raise GraphLoadError(f"{path}: {problem} ({e})") from None


def _parse_edge_file(path: Path) -> tuple[np.ndarray, int]:
    edges = _loadtxt(path, "non-integer node id or uneven line",
                     dtype=np.int64, comments="#", ndmin=2, encoding="utf-8")
    if edges.size == 0:
        return edges.reshape(0, 2), 0
    if edges.shape[1] != 2:
        raise GraphLoadError(f"{path}: expected 'u v' per line, got {edges.shape[1]} ids")
    if edges.min() < 0:
        raise GraphLoadError(f"{path}: negative node id {edges.min()}")
    loops = edges[:, 0] == edges[:, 1]
    return edges[~loops], int(loops.sum())


def load_graph(
    edge_list_path: str | Path,
    features_path: str | Path,
    labels_path: str | Path,
) -> AttributedGraph:
    """Load an attributed graph from plain-text exports.

    Edge list: one ``u v`` pair per line, whitespace separated; ``#`` starts
    a comment anywhere on a line and blank lines are skipped. A line with
    other than two ids, an id that is not a plain decimal integer (``1.0``,
    ``1_0``, ``0x1``), a negative id or one past int64 raises
    ``GraphLoadError`` naming the file. Features: one CSV row per node, no
    header. Labels: one non-negative integer per line. Duplicate and
    reversed edges are deduplicated; self-loop lines are dropped and counted
    in ``self_loops_dropped``.
    """
    edges, self_loops = _parse_edge_file(Path(edge_list_path))
    features = _loadtxt(features_path, "malformed feature row",
                        delimiter=",", dtype=np.float64, ndmin=2)
    labels = _loadtxt(labels_path, "malformed label line", dtype=np.int64, ndmin=1)
    return from_edges(edges, features, labels, self_loops_dropped=self_loops)


class NormalizedAdjacency:
    """Symmetric renormalized adjacency with virtual self-loops.

    Applies D^{-1/2} (A + I) D^{-1/2} (D the degree matrix of A + I) as a
    sparse-times-dense product. The stored graph is never mutated.
    """

    def __init__(self, g: AttributedGraph):
        self.graph = g
        n = g.num_nodes
        inv_sqrt = 1.0 / np.sqrt(g.degrees + 1.0)
        src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
        dst = g.csr_targets
        rows = np.concatenate([src, np.arange(n, dtype=np.int64)])
        cols = np.concatenate([dst, np.arange(n, dtype=np.int64)])
        data = np.concatenate([inv_sqrt[src] * inv_sqrt[dst], inv_sqrt * inv_sqrt])
        self._matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))

    def apply(self, M: np.ndarray) -> np.ndarray:
        M = np.asarray(M, dtype=np.float64)
        if M.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"matrix has {M.shape[0]} rows, graph has {self.graph.num_nodes} nodes"
            )
        return self._matrix @ M

    def receptive_block(self, rows: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
        """``(R, Â[rows][:, R])`` for sorted, unique ``rows``: R is their sorted
        closed neighbourhood, so ``(Â @ M)[rows] == Â[rows][:, R] @ M[R]``
        with every row summed in the same order as ``apply``."""
        block = self._matrix[rows]
        R = sorted_unique(block.indices)
        return R, block[:, R]


def propagate(g: AttributedGraph, M: np.ndarray, steps: int) -> np.ndarray:
    """Repeatedly apply the normalized adjacency: returns A_norm^steps @ M."""
    check_int(steps, "steps", 0)
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] != g.num_nodes:
        raise ValueError(f"matrix has {M.shape[0]} rows, graph has {g.num_nodes} nodes")
    if steps == 0:
        return M.copy()
    op = NormalizedAdjacency(g)
    out = M
    for _ in range(steps):
        out = op.apply(out)
    return out
