from __future__ import annotations

import numpy as np
import pytest

from spal.graph import load_graph
from spal.synthetic import export_graph_files, parse_synthetic_spec, sbm_graph


class TestSbmGraph:
    def test_shape_and_labels(self):
        g = sbm_graph(4, 100, 0.3, 0.02, seed=0)
        assert g.num_nodes == 100
        assert g.num_classes == 4
        assert g.features.shape == (100, 4)
        counts = np.bincount(g.labels, minlength=4)
        assert counts.tolist() == [25, 25, 25, 25]

    def test_homophily(self):
        g = sbm_graph(3, 90, 0.4, 0.01, seed=1)
        intra = 0
        total = 0
        for u in range(90):
            for v in g.neighbors(u):
                if v > u:
                    total += 1
                    intra += int(g.labels[u] == g.labels[v])
        assert intra / total > 0.8

    def test_feature_means_separate(self):
        g = sbm_graph(2, 200, 0.1, 0.01, feature_snr=3.0, seed=2)
        mean0 = g.features[g.labels == 0].mean(axis=0)
        mean1 = g.features[g.labels == 1].mean(axis=0)
        assert mean0[0] > mean1[0] + 2.0
        assert mean1[1] > mean0[1] + 2.0

    def test_deterministic(self):
        a = sbm_graph(2, 50, 0.2, 0.05, seed=3)
        b = sbm_graph(2, 50, 0.2, 0.05, seed=3)
        assert np.array_equal(a.csr_targets, b.csr_targets)
        assert np.array_equal(a.features, b.features)

    def test_validation(self):
        with pytest.raises(ValueError):
            sbm_graph(0, 10, 0.1, 0.1)
        with pytest.raises(ValueError):
            sbm_graph(3, 2, 0.1, 0.1)
        with pytest.raises(ValueError):
            sbm_graph(2, 10, 1.5, 0.1)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((2.0, 40), {}, "blocks must be an integer, got 2.0"),
        ((2, 40.0), {}, "num_nodes must be an integer, got 40.0"),
        ((3, 2), {}, "num_nodes must be >= 3, got 2"),
        ((2, 40), {"seed": -1}, "seed must be >= 0, got -1"),
        ((2, 40), {"seed": 0.5}, "seed must be an integer"),
        ((2, 40), {"feature_snr": np.inf}, "feature_snr must be finite, got inf"),
        ((2, 40), {"feature_snr": np.nan}, "feature_snr must be finite, got nan"),
    ])
    def test_rejects_bad_arguments_naming_them(self, args, kwargs, message):
        # num_nodes=40.0 used to raise numpy's AxisError, and feature_snr=inf
        # a GraphLoadError about feature row 0
        with pytest.raises(ValueError, match=message):
            sbm_graph(*args, 0.3, 0.05, **kwargs)

    def test_refuses_oversized_pair_arrays(self, monkeypatch):
        import spal.synthetic

        monkeypatch.setattr(spal.synthetic, "_MAX_DENSE_BYTES", 33 * 45)
        assert sbm_graph(2, 10, 0.5, 0.1, seed=0).num_nodes == 10  # 45 pairs fit
        with pytest.raises(ValueError, match=r"num_nodes=11 .*GiB.*smaller graph"):
            sbm_graph(2, 11, 0.5, 0.1, seed=0)


class TestParseSpec:
    def test_full_spec(self):
        g = parse_synthetic_spec("sbm:4,400,0.1,0.01,1.5,7")
        assert g.num_nodes == 400
        assert g.num_classes == 4

    def test_defaults(self):
        g = parse_synthetic_spec("sbm:2,30,0.3,0.05")
        assert g.num_nodes == 30

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown synthetic kind"):
            parse_synthetic_spec("ring:10")

    def test_bad_arity(self):
        with pytest.raises(ValueError):
            parse_synthetic_spec("sbm:4,400")

    def test_bad_number(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_synthetic_spec("sbm:4,x,0.1,0.01")


def test_export_round_trip(tmp_path):
    g = sbm_graph(3, 40, 0.3, 0.05, feature_snr=1.5, seed=4)
    paths = (tmp_path / "edges.txt", tmp_path / "features.csv", tmp_path / "labels.txt")
    export_graph_files(g, *paths)
    loaded = load_graph(*paths)
    assert loaded.num_nodes == g.num_nodes
    assert loaded.num_edges == g.num_edges
    assert np.array_equal(loaded.csr_offsets, g.csr_offsets)
    assert np.array_equal(loaded.csr_targets, g.csr_targets)
    assert np.array_equal(loaded.labels, g.labels)
    assert np.array_equal(loaded.features, g.features)  # repr() round-trips floats
