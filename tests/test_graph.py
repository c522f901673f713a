from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from spal.graph import (
    GraphLoadError, NormalizedAdjacency, from_edges, load_graph, propagate, sorted_unique,
)

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

    @pytest.mark.parametrize("feature_text, label_text, message", [
        ("1\n2\n", "", "0 labels"),
        ("", "0\n0\n", "no nodes"),
    ])
    def test_empty_feature_or_label_file(self, tmp_path, feature_text, label_text, message):
        paths = write_files(tmp_path, "0 1\n", feature_text, label_text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "no data" warning must not leak
            with pytest.raises(GraphLoadError, match=message):
                load_graph(*paths)

    @pytest.mark.parametrize("text", ["0\n1.0\n", "0\n2.7\n"])
    def test_float_label_rejected_with_warnings_ignored(self, tmp_path, text):
        # as for edge ids: some numpy versions read a float token as an int
        # with only a DeprecationWarning, which would truncate 2.7 to 2
        paths = write_files(tmp_path, "0 1\n", "1\n2\n", text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(GraphLoadError, match=re.escape(str(paths[2]))):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_row(self, bad):
        with pytest.raises(GraphLoadError, match="row 1 "):
            from_edges([[0, 1], [1, 2]], [[1.0], [bad], [0.0]], [0, 1, 0])

    def test_float_edges_rejected_not_truncated(self):
        # these used to become edges (0, 1) and (1, 2)
        with pytest.raises(GraphLoadError, match="edge node ids must be integers"):
            from_edges(np.array([[0.5, 1.7], [1.2, 2.9]]), np.zeros((3, 1)), [0, 1, 0])

    def test_float_labels_rejected_not_truncated(self):
        # these used to become [0, 1, 0]
        with pytest.raises(GraphLoadError, match="labels must be integers"):
            from_edges([[0, 1], [1, 2]], np.zeros((3, 1)), np.array([0.5, 1.7, 0]))

    @pytest.mark.parametrize("edges", [[], np.empty((0, 2)), np.empty((0, 2), dtype=np.int64)])
    def test_empty_edge_list_still_reports_no_edges(self, edges):
        with pytest.raises(GraphLoadError, match="no edges"):
            from_edges(edges, np.zeros((3, 1)), [0, 1, 0])

    def test_any_integer_dtype_accepted(self):
        g = from_edges(np.array([[0, 1], [1, 2]], dtype=np.int32), np.zeros((3, 1)),
                       np.array([0, 1, 0], dtype=np.uint8))
        assert g.csr_targets.dtype == g.labels.dtype == np.int64
        assert g.labels.tolist() == [0, 1, 0] and g.num_edges == 2

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

    def test_non_integer_steps(self, triangle):
        with pytest.raises(ValueError, match="steps must be an integer, got 2.5"):
            propagate(triangle, np.ones((3, 1)), 2.5)

    def test_symmetric_operator(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 8, 0.4)
        dense = dense_normalized_adjacency(g)
        assert np.abs(dense - dense.T).max() < 1e-12


class TestReceptiveBlock:
    def test_rows_of_the_product_bit_for_bit(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            n = int(rng.integers(5, 30))
            g = random_graph(rng, n, float(rng.choice([0.05, 0.2, 0.5])))
            op = NormalizedAdjacency(g)
            rows = np.unique(rng.choice(n, size=int(rng.integers(1, n + 1))))
            R, block = op.receptive_block(rows)
            closed = set(rows.tolist()).union(*(g.neighbors(int(u)).tolist() for u in rows))
            assert R.tolist() == sorted(closed)
            assert block.shape == (rows.size, R.size)
            dense = dense_normalized_adjacency(g)
            assert np.abs(block.toarray() - dense[np.ix_(rows, R)]).max() < 1e-15
            M = rng.standard_normal((n, 4))
            assert np.array_equal(block @ M[R], op.apply(M)[rows])
            # Â is symmetric to the bit, so the block's transpose is Â[R, rows]:
            # the backward pass through rows that are zero off ``rows``
            X = rng.standard_normal((rows.size, 4))
            Z = np.zeros((n, 4))
            Z[rows] = X
            assert np.array_equal(block.T.tocsr() @ X, op.apply(Z)[R])


def unique_cases():
    """Inputs for the ``np.unique`` equivalence test, each with its test id."""
    rng = np.random.default_rng(17)
    for dtype in (np.int8, np.int32, np.int64, np.uint64):
        name, info = np.dtype(dtype).name, np.iinfo(dtype)
        for size in (0, 1, 2, 1_000, 100_000):
            # a range narrower than the size forces repeats; signed ones go negative
            high = min(int(info.max), max(size // 3, 1))
            low = max(int(info.min), -high)
            x = rng.integers(low, high, size=size, endpoint=True, dtype=dtype)
            yield pytest.param(x, id=f"{name}-{size}")
        wide = rng.integers(info.min, info.max, size=1_000, endpoint=True, dtype=dtype)
        yield pytest.param(wide, id=f"{name}-full-range")
        yield pytest.param(np.full(1_000, info.min, dtype=dtype), id=f"{name}-all-equal")
        yield pytest.param(np.sort(wide), id=f"{name}-sorted")
        yield pytest.param(np.sort(wide)[::-1], id=f"{name}-reversed")
        yield pytest.param(wide.reshape(40, 25), id=f"{name}-2d")
    yield pytest.param(np.array([-3, 5, -3, -7, 0, 5, -7]), id="negative")
    yield pytest.param(np.empty((0, 3), dtype=np.int64), id="2d-empty")
    yield pytest.param([4, 1, 4, 2], id="list")


@pytest.mark.parametrize("values", list(unique_cases()))
def test_sorted_unique_matches_np_unique(values):
    got, want = sorted_unique(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)
