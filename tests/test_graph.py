from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from spal.graph import GraphLoadError, from_edges, load_graph, propagate

from conftest import make_graph, random_graph
from oracles import csr_reference, dense_normalized_adjacency, parse_edge_file_reference


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "no data" warning must not leak
            with pytest.raises(GraphLoadError, match="empty graph"):
                load_graph(*paths)

    @pytest.mark.parametrize("text", [
        "0 x\n",
        "1.0 2\n",
        "1_0 2\n",  # Python's int() reads this as 10; the edge reader does not
        "0 1 2\n",
        "0\n",
        "0 1\n2 3 4\n",
        "0 1\n-1 2\n",
        "99999999999999999999 1\n",
    ])
    def test_rejected_edge_file_names_file(self, tmp_path, text):
        paths = write_files(tmp_path, text, "1\n" * 12, "0\n" * 12)
        with pytest.raises(GraphLoadError, match=re.escape(str(paths[0]))):
            load_graph(*paths)

    @pytest.mark.parametrize("text", [
        "1.0 2\n", "2.7 3\n", "-0.5 3\n", "nan 1\n", "1e300 1\n", "99999999999999999999 1\n",
    ])
    def test_float_or_overflowing_id_rejected_with_warnings_ignored(self, tmp_path, text):
        # the rejection must not rest on warnings being errors: some numpy
        # versions read a float token as an int with only a DeprecationWarning
        paths = write_files(tmp_path, text, "1\n" * 4, "0\n" * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(GraphLoadError, match="non-integer node id"):
                load_graph(*paths)

    def test_trailing_comment_accepted(self, tmp_path):
        # "#" starts a comment anywhere on a line, not only at its start
        paths = write_files(tmp_path, "0 1 # note\n1 2#x\n", "1\n2\n3\n", "0\n0\n0\n")
        g = load_graph(*paths)
        assert g.num_edges == 2
        assert g.neighbors(1).tolist() == [0, 2]

    def test_matches_line_parser_and_row_wise_csr(self, tmp_path):
        """Random edge files with comments, blank lines, tabs, CRLF endings,
        reversed and duplicate pairs, self-loops and isolated high ids load
        exactly as the line parser and row-wise CSR build of
        ``oracles`` load them; a file that parser rejects is still rejected."""
        rng = np.random.default_rng(11)
        bad_lines = ["0 x", "1.0 2", "0 1 2", "7", "-1 2", "3\t-4", "3 4 5"]
        compared = 0
        for case in range(260):
            n = int(rng.integers(2, 30))
            high = int(rng.integers(n, 5000)) if rng.random() < 0.3 else None
            lines = []
            for _ in range(int(rng.integers(1, 50))):
                r = rng.random()
                if r < 0.1:
                    lines.append(str(rng.choice(["", "  ", "\t", " \t "])))
                elif r < 0.2:
                    lines.append(str(rng.choice(["# comment", "  # 1 2", "#0 1", "\t#"])))
                else:
                    u, v = (int(x) for x in rng.integers(0, n, 2))
                    if high is not None and rng.random() < 0.2:
                        u = high
                    sep = str(rng.choice([" ", "\t", "   ", " \t"]))
                    pad = str(rng.choice(["", " ", "\t"]))
                    lines.append(f"{pad}{u}{sep}{v}{pad[::-1]}")
            lines.append(f"0 {n - 1}" if case % 2 else f"{n - 1}\t0")  # never empty
            if rng.random() < 0.2:
                lines.insert(int(rng.integers(0, len(lines))), str(rng.choice(bad_lines)))
            eol = "\r\n" if rng.random() < 0.3 else "\n"
            num_nodes = (n if high is None else high + 1) + int(rng.integers(0, 3))
            paths = write_files(
                tmp_path, eol.join(lines) + eol, "1\n" * num_nodes, "0\n" * num_nodes
            )
            try:
                pairs, self_loops = parse_edge_file_reference(paths[0])
            except GraphLoadError:
                with pytest.raises(GraphLoadError, match=re.escape(str(paths[0]))):
                    load_graph(*paths)
                continue
            g = load_graph(*paths)
            offsets, targets, num_edges, duplicates = csr_reference(pairs, num_nodes)
            np.testing.assert_array_equal(g.csr_offsets, offsets, strict=True)
            np.testing.assert_array_equal(g.csr_targets, targets, strict=True)
            assert (g.num_edges, g.self_loops_dropped, g.duplicates_dropped) == (
                num_edges, self_loops, duplicates,
            )
            compared += 1
        assert compared >= 200

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
