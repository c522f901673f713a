"""spa's outputs pinned to the bit by committed SHA-256 digests.

Each digest covers, on one graph at one (epsilon, mu) point: SCAN's
``community_of``; ``pagerank_partition``'s member ids, scores, iteration
counts and converged flags; ``pagerank``'s scores and iteration count;
and spa's ``to_dict()`` at budgets k - 1, k and k + 1 for k communities,
with ``query_time_ms`` removed. A speed-up that claims identical outputs
must leave both digests as they are.

A deliberate output change, such as a new tie rule or a new convergence
test, updates the digest here and says so in CHANGES.md, with the reason.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from spal.pagerank import PageRankParams, pagerank, pagerank_partition
from spal.scan import ScanParams, scan_partition
from spal.selection import spa_select
from spal.synthetic import sbm_graph

from conftest import heavy_tailed_graph

GOLDEN = {
    "heavy-tailed": "a693b34914afa6b6dcc9c575e8f16368fbfbd0c8cf9f7d7c8ee11c57dcce3e9b",
    "sbm-readme": "10a732c2190eed4acd1b1b55aa1f94f343cdf88fe1e9f0cd20457d9ee5919651",
}


def _cases():
    return {
        "heavy-tailed": (heavy_tailed_graph, ScanParams(0.3, 2)),
        "sbm-readme": (lambda: sbm_graph(4, 400, 0.1, 0.01, 1.0, 7), ScanParams(0.28, 2)),
    }


def spa_digest(g, scan_params: ScanParams) -> str:
    """SHA-256 over every array and selection the module docstring names."""
    h = hashlib.sha256()

    def add(name: str, a) -> None:
        a = np.ascontiguousarray(a)
        h.update(f"{name}:{a.dtype.str}:{a.shape}\n".encode())
        h.update(a.tobytes())

    params = PageRankParams()
    assignment = scan_partition(g, scan_params)
    add("community_of", assignment.community_of)
    blocks = pagerank_partition(g, assignment.community_of, params)
    for name in ("node_ids", "scores", "iterations", "converged"):
        add(f"blocks.{name}", getattr(blocks, name))
    sv = pagerank(g, params=params)
    add("global.scores", sv.scores)
    add("global.iterations", np.int64(sv.iterations_used))
    k = assignment.num_communities
    for b in (k - 1, k, k + 1):
        d = spa_select(g, scan_params, params, b=b).to_dict()
        d.pop("query_time_ms")
        h.update(json.dumps(d, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_spa_outputs_match_golden_digest(name):
    make, scan_params = _cases()[name]
    assert spa_digest(make(), scan_params) == GOLDEN[name]
