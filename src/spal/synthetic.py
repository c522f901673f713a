"""Stochastic block model fixtures: planted communities with class-mean
Gaussian features, so every experiment can run without downloads."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, check_int, from_edges

# Largest total sbm_graph's per-pair arrays may take (2 GiB, n ≈ 11k nodes).
_MAX_DENSE_BYTES = 2 * 2**30
# Bytes per node pair: the two int64 triu indices, the float64 edge
# probability and uniform draw, and the bool keep mask.
_PAIR_BYTES = 33


def sbm_graph(
    blocks: int,
    num_nodes: int,
    p_in: float,
    p_out: float,
    feature_snr: float = 1.0,
    seed: int = 0,
) -> AttributedGraph:
    """Sample an SBM graph whose labels are the planted blocks.

    Node features are ``feature_snr`` times the one-hot block indicator
    plus unit Gaussian noise (feature dimension equals ``blocks``). Node
    ids are shuffled so block membership is not encoded in the id order.
    Sampling retries with an offset seed if a draw comes out edgeless.
    Pair sampling materializes the upper triangle, so this is meant for
    desk-scale fixtures (a few thousand nodes); raises ValueError when the
    per-pair arrays would exceed ``_MAX_DENSE_BYTES``.
    """
    check_int(blocks, "blocks", 1)
    check_int(num_nodes, "num_nodes", blocks)  # at least one node per block
    check_int(seed, "seed", 0)
    if not (0 <= p_in <= 1 and 0 <= p_out <= 1):
        raise ValueError("edge probabilities must be in [0, 1]")
    if not math.isfinite(feature_snr):
        raise ValueError(f"feature_snr must be finite, got {feature_snr}")
    need = _PAIR_BYTES * (num_nodes * (num_nodes - 1) // 2)
    if need > _MAX_DENSE_BYTES:
        raise ValueError(
            f"sbm_graph with num_nodes={num_nodes} needs {need / 2**30:.1f} GiB of "
            f"node-pair arrays, over the {_MAX_DENSE_BYTES / 2**30:.1f} GiB limit; "
            "use a smaller graph"
        )
    rng = np.random.default_rng(seed)
    labels = np.sort(np.arange(num_nodes, dtype=np.int64) % blocks)
    perm = rng.permutation(num_nodes)
    labels = labels[perm]

    iu, ju = np.triu_indices(num_nodes, k=1)
    p_edge = np.where(labels[iu] == labels[ju], p_in, p_out)
    for attempt in range(10):
        keep = rng.random(p_edge.size) < p_edge
        if keep.any():
            break
        rng = np.random.default_rng(seed + 1000 + attempt)
    else:
        raise ValueError("sampled graph has no edges; raise p_in/p_out")
    edges = np.stack([iu[keep], ju[keep]], axis=1)

    features = rng.standard_normal((num_nodes, blocks))
    features[np.arange(num_nodes), labels] += feature_snr
    return from_edges(edges, features, labels)


def parse_synthetic_spec(spec: str) -> AttributedGraph:
    """Build a graph from a CLI spec string.

    Format: ``sbm:blocks,n,p_in,p_out,feature_snr,seed`` (the last two
    default to 1.0 and 0).
    """
    kind, _, rest = spec.partition(":")
    if kind != "sbm":
        raise ValueError(f"unknown synthetic kind {kind!r}; supported: sbm")
    parts = [p.strip() for p in rest.split(",") if p.strip()]
    if not 4 <= len(parts) <= 6:
        raise ValueError(
            "synthetic sbm spec needs blocks,n,p_in,p_out[,feature_snr[,seed]]"
        )
    try:
        blocks, n = int(parts[0]), int(parts[1])
        p_in, p_out = float(parts[2]), float(parts[3])
        snr = float(parts[4]) if len(parts) > 4 else 1.0
        seed = int(parts[5]) if len(parts) > 5 else 0
    except ValueError:
        raise ValueError(f"malformed synthetic spec {spec!r}") from None
    return sbm_graph(blocks, n, p_in, p_out, snr, seed)


def export_graph_files(
    g: AttributedGraph,
    edges_path: str | Path,
    features_path: str | Path,
    labels_path: str | Path,
) -> None:
    """Write the plain-text exports the loader consumes (round-trippable)."""
    with Path(edges_path).open("w", encoding="utf-8") as f:
        for u in range(g.num_nodes):
            for v in g.neighbors(u):
                if v > u:
                    f.write(f"{u} {v}\n")
    with Path(features_path).open("w", encoding="utf-8") as f:
        for row in g.features:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
    with Path(labels_path).open("w", encoding="utf-8") as f:
        for label in g.labels:
            f.write(f"{int(label)}\n")
