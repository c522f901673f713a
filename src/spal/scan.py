"""Structural clustering (SCAN): closed-neighborhood overlap similarity
between adjacent nodes and community partitioning under (epsilon, mu)
thresholds."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph
from .output import write_csv


@dataclass(frozen=True)
class ScanParams:
    epsilon: float = 0.5
    mu: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.mu < 1:
            raise ValueError(f"mu must be >= 1, got {self.mu}")


@dataclass(eq=False)
class CommunityAssignment:
    """Disjoint communities plus the unassigned (outlier) remainder.

    ``community_of[v]`` is the community id of ``v`` or -1 for outliers.
    Community ids are assigned in ascending order of each community's
    smallest member, so the partition is reproducible.
    """

    community_of: np.ndarray
    communities: list[np.ndarray]
    outliers: np.ndarray

    @property
    def num_communities(self) -> int:
        return len(self.communities)


# most neighbour lookups held in memory at once; bounds SCAN's transient arrays
_LOOKUP_CHUNK = 1 << 16


def _similarity(g: AttributedGraph, i: np.ndarray, j: np.ndarray):
    """(|N[i] ∩ N[j]|, |N[i] ∩ N[j]| / sqrt(|N[i]|·|N[j]|)) of closed
    neighborhoods for each pair (i[k], j[k]).

    Each pair walks the closed neighborhood of its lower-degree end and
    looks every member up in the other end's closed neighborhood: a member
    u is in N[b] when u == b or the CSR key b·n + u exists. The keys
    src·n + dst are sorted because neighbor lists are.
    """
    n = g.num_nodes
    offsets, targets, deg = g.csr_offsets, g.csr_targets, g.degrees
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, deg) + targets
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    a = np.where(deg[i] <= deg[j], i, j)
    b = i + j - a
    ends = np.cumsum(deg[a] + 1)  # +1: the node itself closes its neighborhood
    common = np.zeros(i.size, dtype=np.int64)
    start = 0
    while start < i.size:
        done = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, done + _LOOKUP_CHUNK, side="right")), start + 1)
        firsts = np.concatenate([[done], ends[start : stop - 1]])
        pair = np.repeat(np.arange(stop - start), ends[start:stop] - firsts)
        k = np.arange(done, ends[stop - 1]) - firsts[pair]  # position in a's closed row
        pa, pb = a[start:stop][pair], b[start:stop][pair]
        members = np.where(k == deg[pa], pa, np.take(targets, offsets[pa] + k, mode="clip"))
        query = pb * n + members
        found = np.take(keys, np.searchsorted(keys, query), mode="clip") == query
        common[start:stop] = np.bincount(pair[found | (members == pb)], minlength=stop - start)
        start = stop
    sizes = (g.degrees + 1).astype(np.float64)
    return common, common / np.sqrt(sizes[i] * sizes[j])


def structural_similarity(g: AttributedGraph, i: int, j: int) -> float:
    """Closed-neighborhood overlap normalized by the geometric mean of the
    two closed-neighborhood sizes. Symmetric, in (0, 1], and 1 exactly when
    the closed neighborhoods coincide."""
    for v in (i, j):
        if not 0 <= v < g.num_nodes:
            raise IndexError(f"node id {v} out of range [0, {g.num_nodes})")
    return float(_similarity(g, np.array([i]), np.array([j]))[1][0])


def scan_partition(g: AttributedGraph, params: ScanParams | None = None) -> CommunityAssignment:
    """Partition the graph into communities over qualifying edges.

    An existing edge (i, j) qualifies when S(i, j) >= epsilon and the
    closed neighborhoods share at least mu nodes; communities are the
    connected components of the qualifying-edge subgraph, and nodes
    incident to no qualifying edge are outliers.
    """
    # imported here: scipy.sparse.csgraph adds ~0.13 s to ``import spal``
    from scipy.sparse.csgraph import connected_components

    params = params or ScanParams()
    n = g.num_nodes
    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    upper = src < g.csr_targets  # each undirected edge once
    i, j = src[upper], g.csr_targets[upper]
    common, sim = _similarity(g, i, j)
    keep = (sim >= params.epsilon) & (common >= params.mu)
    i, j = i[keep], j[keep]

    members = np.unique(np.concatenate([i, j]))
    qualifying = sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    _, component = connected_components(qualifying, directed=False)
    # members ascend, so a component's first occurrence is its smallest member
    _, first, inverse = np.unique(component[members], return_index=True, return_inverse=True)
    community_of = np.full(n, -1, dtype=np.int64)
    community_of[members] = np.argsort(np.argsort(first))[inverse]

    by_community = members[np.argsort(community_of[members], kind="stable")]
    bounds = np.cumsum(np.bincount(community_of[members]))[:-1]
    communities = np.split(by_community, bounds) if members.size else []
    outliers = np.flatnonzero(community_of < 0).astype(np.int64)
    return CommunityAssignment(
        community_of=community_of, communities=communities, outliers=outliers
    )


def write_communities_csv(assignment: CommunityAssignment, path: str | Path) -> None:
    """Write ``node_id,community_id`` rows (community_id -1 for outliers)."""
    write_csv(path, ("node_id", "community_id"), [enumerate(assignment.community_of.tolist())])
