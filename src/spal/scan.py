"""Structural clustering (SCAN): closed-neighborhood overlap similarity
between adjacent nodes and community partitioning under (epsilon, mu)
thresholds.

The overlaps come from one pass over the edges that does not depend on
epsilon or mu: for adjacent i and j, |N[i] ∩ N[j]| is the number of
triangles on edge (i, j) plus 2, and each triangle is listed once, from
its corner of lowest (degree, id) rank. That takes O(m·sqrt(m)) wedge
checks in the worst case (see ``_edge_overlap``). The pass returns each
edge once, oriented from its end of lower rank, as it counts it. Each
(epsilon, mu) point is then one threshold step, a mask and connected
components, so a sweep over many points runs the edge pass once
(``scan_sweep``)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .graph import AttributedGraph, check_int, stable_argsort
from .output import write_csv


@dataclass(frozen=True)
class ScanParams:
    epsilon: float = 0.5
    mu: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        check_int(self.mu, "mu", 1)


@dataclass(eq=False)
class CommunityAssignment:
    """Disjoint communities plus the unassigned (outlier) remainder.

    ``community_of[v]`` is the community id of ``v`` or -1 for outliers.
    Community ids are assigned in ascending order of each community's
    smallest member, so the partition is reproducible. It is the only
    stored state; everything else is read from it.
    """

    community_of: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        """Member count of each community, by id."""
        return np.bincount(self.community_of[self.community_of >= 0])

    @property
    def num_communities(self) -> int:
        return int(self.community_of.max(initial=-1)) + 1

    @property
    def outliers(self) -> np.ndarray:
        return np.flatnonzero(self.community_of < 0)

    @cached_property
    def communities(self) -> list[np.ndarray]:
        """Each community's members, ascending, indexed by community id."""
        members = np.flatnonzero(self.community_of >= 0)
        by_community = members[np.argsort(self.community_of[members], kind="stable")]
        return np.split(by_community, np.cumsum(self.sizes)[:-1]) if members.size else []


# most wedge lookups held in memory at once; bounds SCAN's transient arrays
_LOOKUP_CHUNK = 1 << 16


def _edge_overlap(g: AttributedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, v, |N[u] ∩ N[v]|) for every edge, each edge once, from the end
    of lower (degree, id) rank: u ranks below v, and the rows come in CSR
    order of u, each u's rows sorted by v. No caller reads the order; the
    threshold step in ``scan_sweep`` is symmetric in u and v.

    For adjacent i and j the closed neighborhoods share i, j and every
    common neighbor, so |N[i] ∩ N[j]| = triangles(i, j) + 2. Triangles are
    listed once each, from their lowest-ranked corner (Chiba & Nishizeki,
    SIAM J. Comput. 1985; Latapy, TCS 2008): nodes are ranked by (degree,
    id), and each edge is kept once, in the out-row of its lower-ranked
    end. The out-rows are the CSR rows filtered, so they stay sorted by
    target. Every pair of out-edges (v, a), (v, b) is a wedge; it closes
    when edge (a, b) exists, which a bisection finds in the out-row of the
    lower-ranked of a and b, and a closed wedge credits all three edges.

    Ranking by degree caps every out-degree at sqrt(2m): a node with k
    out-edges has k neighbors of degree at least k. So the pass checks at
    most m·sqrt(2m)/2 wedges, each in O(log m) bisection steps, and
    nothing in it depends on epsilon or mu. Wedges are checked about
    ``_LOOKUP_CHUNK`` at a time (one out-edge's wedges stay together).
    Each chunk keeps the three edges of each of its closed wedges, and one
    ``np.bincount`` of length m counts them all after the last chunk: the
    counting is O(m), done once, plus one entry per closed wedge, so the
    O(m·sqrt(m)) bound holds at any chunk size.
    """
    n = g.num_nodes
    targets, deg = g.csr_targets, g.degrees
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    rank = np.empty(n, dtype=np.int64)
    rank[stable_argsort(deg)] = np.arange(n)
    out = np.flatnonzero(rank[src] < rank[targets])
    out_src = src[out]
    del src  # the dels here keep SCAN's peak memory down
    m = out.size
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(out_src, minlength=n), out=out_offsets[1:])
    out_dst = targets[out]
    del out
    # wedges whose first out-edge is x: the out-edges after x in its row
    wedges = np.repeat(out_offsets[1:], np.diff(out_offsets)) - np.arange(1, m + 1)
    ends = np.cumsum(wedges)
    longest = int(np.diff(out_offsets).max()) if m else 0
    # halving steps from the top power of two <= longest; they sum to >= longest
    steps = [1 << k for k in reversed(range(longest.bit_length()))]
    credited = [np.empty(0, dtype=np.int64)]  # the three edges of each closed wedge
    start, done = 0, 0
    total = int(ends[-1]) if m else 0
    while done < total:
        stop = max(int(np.searchsorted(ends, done + _LOOKUP_CHUNK, side="right")), start + 1)
        counts = wedges[start:stop]
        x = np.repeat(np.arange(start, stop), counts)
        # y walks the out-edges after x in x's row
        y = x + 1 + np.arange(done, ends[stop - 1]) - np.repeat(ends[start:stop] - counts, counts)
        # the closing edge sits in the out-row of the lower-ranked end, lo.
        # The masks in this loop follow the data (the rank test and each
        # bisection step are coin flips, about 8% of wedges close), so its
        # selects are arithmetic or gathers (see the note below
        # graph.stable_argsort)
        a, b = out_dst[x], out_dst[y]
        shift = (a - b) * (rank[a] < rank[b])
        lo, hi = b + shift, a - shift
        del a, b, shift
        # bisection by halving steps: pos ends at the first entry >= hi
        pos, row_end = out_offsets[lo], out_offsets[lo + 1]
        del lo
        for step in steps:
            probe = pos + step
            below = probe <= row_end
            below &= np.take(out_dst, probe - 1, mode="clip") < hi
            pos += below * step
        closed = np.flatnonzero((pos < row_end) & (np.take(out_dst, pos, mode="clip") == hi))
        credited += [x[closed], y[closed], pos[closed]]
        start, done = stop, int(ends[stop - 1])

    triangles = np.bincount(np.concatenate(credited), minlength=m)
    triangles += 2
    return out_src, out_dst, triangles


def scan_sweep(g: AttributedGraph, grid: Iterable[ScanParams]) -> Iterator[CommunityAssignment]:
    """One partition per point of ``grid``, in order, from one edge pass.

    An existing edge (i, j) qualifies when S(i, j) >= epsilon and the
    closed neighborhoods share at least mu nodes; communities are the
    connected components of the qualifying-edge subgraph, and nodes
    incident to no qualifying edge are outliers.
    """
    # imported here: scipy.sparse.csgraph and the scipy.linalg it loads take
    # ~0.14 s (2 vCPU), which a process that runs no SCAN should not pay
    from scipy.sparse.csgraph import connected_components

    n = g.num_nodes
    i, j, common = _edge_overlap(g)
    closed = (g.degrees + 1).astype(np.float64)
    sim = common / np.sqrt(closed[i] * closed[j])
    for params in grid:
        # a scattered mask (13% of the benchmark graph's edges), so the
        # kept edges are gathered by index
        kept = np.flatnonzero((sim >= params.epsilon) & (common >= params.mu))
        qi, qj = i[kept], j[kept]
        is_member = np.zeros(n, dtype=bool)
        is_member[qi] = is_member[qj] = True
        members = np.flatnonzero(is_member)
        qualifying = sp.coo_matrix((np.ones(qi.size), (qi, qj)), shape=(n, n))
        num_components, component = connected_components(qualifying, directed=False)
        # communities are numbered in ascending order of their smallest members
        component = component[members]
        smallest = np.full(num_components, n, dtype=np.int64)
        np.minimum.at(smallest, component, members)
        is_smallest = np.zeros(n, dtype=bool)
        is_smallest[smallest[smallest < n]] = True
        community_of = np.full(n, -1, dtype=np.int64)
        community_of[members] = (np.cumsum(is_smallest) - 1)[smallest[component]]
        yield CommunityAssignment(community_of)


def scan_partition(g: AttributedGraph, params: ScanParams | None = None) -> CommunityAssignment:
    """The partition at one (epsilon, mu) point: ``scan_sweep`` over one point."""
    return next(scan_sweep(g, [params or ScanParams()]))


def write_communities_csv(assignment: CommunityAssignment, path: str | Path) -> None:
    """Write ``node_id,community_id`` rows (community_id -1 for outliers)."""
    write_csv(path, ("node_id", "community_id"), [enumerate(assignment.community_of.tolist())])
