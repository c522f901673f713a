"""Degree-corrected planted-partition sampler that runs in O(m log m).

``spal.sbm_graph`` materialises every node pair, so it cannot reach 1e5
nodes. This sampler draws each edge directly: an edge is intra-block with
probability ``1 - MIXING``; an intra-block edge picks its block in
proportion to the squared block weight and both endpoints by degree weight
inside the block, an inter-block edge picks both endpoints by degree weight
over the whole graph (pairs that land in one block are redrawn). Each
endpoint is a binary search in a cumulative weight table, and duplicates
are removed by sorting, hence O(m log m). Degree weights follow a
deterministic power law, so only edge placement depends on the seed and
graphs drawn from different seeds have the same degree profile.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np


# The shape of the draw; the size is DcsbmSpec's, which the tests shrink.
MIXING = 0.1  # share of edges that cross blocks
DEGREE_EXPONENT = 2.5  # power-law exponent of the degree weights
MAX_WEIGHT_RATIO = 200.0  # cap of max / min degree weight
FEATURE_SNR = 1.0  # class-mean offset of the features, in noise standard deviations


@dataclass(frozen=True)
class DcsbmSpec:
    num_nodes: int = 100_000
    num_edges: int = 400_000
    blocks: int = 8


@dataclass(eq=False)
class DcsbmDraw:
    edges: np.ndarray  # (m, 2) int64, u < v, unique, no self-loops
    features: np.ndarray  # (n, blocks) float64
    labels: np.ndarray  # (n,) int64 planted block


def degree_weights(spec: DcsbmSpec) -> np.ndarray:
    """Power-law weights at evenly spaced quantiles, capped, in node order."""
    q = (np.arange(spec.num_nodes) + 0.5) / spec.num_nodes
    w = q ** (-1.0 / (DEGREE_EXPONENT - 1.0))
    return np.minimum(w, MAX_WEIGHT_RATIO)


def _draw_endpoints(rng, members: np.ndarray, cum: np.ndarray, count: int) -> np.ndarray:
    """``count`` members of one weighted pool, picked by inverse-CDF lookup."""
    picks = np.searchsorted(cum, rng.random(count) * cum[-1], side="right")
    return members[np.minimum(picks, members.size - 1)]


def sample_dcsbm(spec: DcsbmSpec, seed: int) -> DcsbmDraw:
    """Draw exactly ``spec.num_edges`` unique undirected edges plus features."""
    rng = np.random.default_rng(seed)
    n, k = spec.num_nodes, spec.blocks
    labels = rng.permutation(np.arange(n, dtype=np.int64) % k)
    weights = rng.permutation(degree_weights(spec))
    block_members = [np.flatnonzero(labels == b) for b in range(k)]
    block_cums = [np.cumsum(weights[m]) for m in block_members]
    block_mass = np.array([c[-1] for c in block_cums]) ** 2
    all_nodes = np.arange(n, dtype=np.int64)
    all_cum = np.cumsum(weights)

    unique = np.empty((0, 2), dtype=np.int64)
    while unique.shape[0] < spec.num_edges:
        want = spec.num_edges - unique.shape[0]
        draw = int(want * 1.1) + 16  # over-draw to absorb duplicates and loops
        n_inter = rng.binomial(draw, MIXING)
        per_block = rng.multinomial(draw - n_inter, block_mass / block_mass.sum())
        parts = []
        for b, count in enumerate(per_block):
            u = _draw_endpoints(rng, block_members[b], block_cums[b], count)
            v = _draw_endpoints(rng, block_members[b], block_cums[b], count)
            parts.append(np.stack([u, v], axis=1))
        u = _draw_endpoints(rng, all_nodes, all_cum, n_inter)
        v = _draw_endpoints(rng, all_nodes, all_cum, n_inter)
        inter = np.stack([u, v], axis=1)
        parts.append(inter[labels[u] != labels[v]])
        new = np.concatenate(parts)
        new = np.sort(new[new[:, 0] != new[:, 1]], axis=1)
        unique = np.unique(np.concatenate([unique, new]), axis=0)
    keep = np.sort(rng.choice(unique.shape[0], size=spec.num_edges, replace=False))
    edges = unique[keep]

    features = rng.standard_normal((n, k))
    features[all_nodes, labels] += FEATURE_SNR
    return DcsbmDraw(edges=edges, features=features, labels=labels)


FILE_NAMES = ("edges.txt", "features.csv", "labels.txt")


def write_files(draw: DcsbmDraw, out: Path) -> tuple[Path, Path, Path]:
    """Write the edge list, features CSV and labels in ``load_graph`` format.

    Files are written under temporary names and renamed, so a reader never
    sees a half-written fixture.
    """
    out.mkdir(parents=True, exist_ok=True)
    paths = tuple(out / name for name in FILE_NAMES)
    tmp = [p.with_name(p.name + f".tmp{os.getpid()}") for p in paths]
    np.savetxt(tmp[0], draw.edges, fmt="%d")
    np.savetxt(tmp[1], draw.features, fmt="%.9g", delimiter=",")
    np.savetxt(tmp[2], draw.labels, fmt="%d")
    for t, p in zip(tmp, paths):
        os.replace(t, p)
    return paths


def ensure_files(spec: DcsbmSpec, seed: int, cache: Path) -> tuple[Path, Path, Path]:
    """Paths of the cached exports for (spec, seed), drawing them if absent."""
    key = (f"dcsbm_n{spec.num_nodes}_m{spec.num_edges}_k{spec.blocks}"
           f"_mix{MIXING}_g{DEGREE_EXPONENT}_c{MAX_WEIGHT_RATIO}_snr{FEATURE_SNR}_s{seed}")
    out = cache / key
    paths = tuple(out / name for name in FILE_NAMES)
    if all(p.exists() for p in paths):
        return paths
    return write_files(sample_dcsbm(spec, seed), out)

