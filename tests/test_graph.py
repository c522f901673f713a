from __future__ import annotations

import numpy as np
import pytest

from spal.graph import GraphLoadError, from_edges, load_graph, propagate

from conftest import make_graph, random_graph
from oracles import dense_normalized_adjacency


def write_files(tmp_path, edge_text, feature_text, label_text):
    e = tmp_path / "edges.txt"
    f = tmp_path / "features.csv"
    l = tmp_path / "labels.txt"
    e.write_text(edge_text)
    f.write_text(feature_text)
    l.write_text(label_text)
    return e, f, l


class TestLoadGraph:
    def test_triangle(self, tmp_path):
        paths = write_files(
            tmp_path,
            "0 1\n1 2\n0 2\n",
            "1.0,0.0\n0.0,1.0\n1.0,1.0\n",
            "0\n0\n1\n",
        )
        g = load_graph(*paths)
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert g.num_classes == 2
        assert g.features.shape == (3, 2)

    def test_comments_tabs_and_duplicates(self, tmp_path):
        paths = write_files(
            tmp_path,
            "# a comment\n0\t1\n1 0\n1 2\n\n1 2\n",
            "1\n2\n3\n",
            "0\n1\n0\n",
        )
        g = load_graph(*paths)
        assert g.num_edges == 2  # (0,1) and (1,2), reversed/dup entries merged
        assert g.duplicates_dropped == 2

    def test_self_loops_counted(self, tmp_path):
        paths = write_files(tmp_path, "0 0\n0 1\n1 1\n", "1\n2\n", "0\n0\n")
        g = load_graph(*paths)
        assert g.self_loops_dropped == 2
        assert g.num_edges == 1

    def test_row_count_mismatch(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n", "1\n2\n3\n", "0\n0\n")
        with pytest.raises(GraphLoadError, match="mismatch"):
            load_graph(*paths)

    def test_edge_id_out_of_range(self, tmp_path):
        paths = write_files(tmp_path, "5 2\n", "1\n2\n3\n", "0\n0\n0\n")
        with pytest.raises(GraphLoadError):
            load_graph(*paths)

    def test_malformed_line(self, tmp_path):
        paths = write_files(tmp_path, "0 x\n", "1\n2\n", "0\n0\n")
        with pytest.raises(GraphLoadError, match="non-integer"):
            load_graph(*paths)

    def test_wrong_token_count(self, tmp_path):
        paths = write_files(tmp_path, "0 1 2\n", "1\n2\n3\n", "0\n0\n0\n")
        with pytest.raises(GraphLoadError):
            load_graph(*paths)

    def test_empty_edge_file(self, tmp_path):
        paths = write_files(tmp_path, "# nothing\n", "1\n2\n", "0\n0\n")
        with pytest.raises(GraphLoadError, match="empty graph"):
            load_graph(*paths)

    def test_negative_label(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n", "1\n2\n", "0\n-3\n")
        with pytest.raises(GraphLoadError, match="non-negative"):
            load_graph(*paths)

    def test_malformed_label_file(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n", "1\n2\n", "0\nzebra\n")
        with pytest.raises(GraphLoadError, match="label"):
            load_graph(*paths)

    def test_deterministic_ingestion(self, tmp_path):
        paths = write_files(
            tmp_path, "2 0\n0 1\n1 2\n", "1,2\n3,4\n5,6\n", "0\n1\n2\n"
        )
        g1 = load_graph(*paths)
        g2 = load_graph(*paths)
        assert np.array_equal(g1.csr_offsets, g2.csr_offsets)
        assert np.array_equal(g1.csr_targets, g2.csr_targets)
        assert np.array_equal(g1.features, g2.features)
        assert np.array_equal(g1.labels, g2.labels)

    def test_normalize_features_flag(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n", "2.0,2.0\n0.0,0.0\n", "0\n0\n")
        g = load_graph(*paths, normalize_features=True)
        assert np.allclose(g.features[0], [0.5, 0.5])
        assert np.allclose(g.features[1], [0.0, 0.0])  # zero row untouched

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_row(self, bad):
        with pytest.raises(GraphLoadError, match="row 1 "):
            from_edges([[0, 1], [1, 2]], [[1.0], [bad], [0.0]], [0, 1, 0])

    def test_non_finite_feature_file(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n1 2\n", "1,2\n3,4\nnan,5\n", "0\n0\n1\n")
        with pytest.raises(GraphLoadError, match="row 2 "):
            load_graph(*paths)

    def test_arrays_read_only(self, tmp_path):
        paths = write_files(tmp_path, "0 1\n", "1\n2\n", "0\n0\n")
        g = load_graph(*paths)
        with pytest.raises(ValueError):
            g.labels[0] = 5


class TestNeighbors:
    def test_triangle(self, triangle):
        assert triangle.neighbors(0).tolist() == [1, 2]

    def test_path_middle(self, path3):
        assert path3.neighbors(1).tolist() == [0, 2]

    def test_isolated_node(self):
        g = make_graph([(0, 1)], num_nodes=3)
        assert g.neighbors(2).tolist() == []

    def test_out_of_range(self, triangle):
        with pytest.raises(IndexError):
            triangle.neighbors(3)
        with pytest.raises(IndexError):
            triangle.neighbors(-1)

    def test_symmetry_and_no_self(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = random_graph(rng, int(rng.integers(3, 25)), 0.3)
            for v in range(g.num_nodes):
                nb = g.neighbors(v)
                assert v not in nb
                for u in nb:
                    assert v in g.neighbors(int(u))

    def test_degree_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_graph(rng, 15, 0.3)
            assert int(g.degrees.sum()) == 2 * g.num_edges


class TestPropagate:
    def test_steps_zero_identity(self, triangle):
        M = np.arange(6, dtype=float).reshape(3, 2)
        out = propagate(triangle, M, 0)
        assert np.array_equal(out, M)
        assert out is not M

    def test_regular_graph_preserves_ones(self, triangle):
        ones = np.ones((3, 1))
        assert np.allclose(propagate(triangle, ones, 1), ones)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 10, 0.35)
        M = rng.standard_normal((10, 3))
        dense = dense_normalized_adjacency(g)
        expected = dense @ dense @ M
        assert np.abs(propagate(g, M, 2) - expected).max() < 1e-10

    def test_composition(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 12, 0.3)
        M = rng.standard_normal((12, 2))
        lhs = propagate(g, M, 5)
        rhs = propagate(g, propagate(g, M, 2), 3)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(ValueError):
            propagate(triangle, np.ones((4, 2)), 1)

    def test_negative_steps(self, triangle):
        with pytest.raises(ValueError):
            propagate(triangle, np.ones((3, 1)), -1)

    def test_symmetric_operator(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 8, 0.4)
        dense = dense_normalized_adjacency(g)
        assert np.abs(dense - dense.T).max() < 1e-12
