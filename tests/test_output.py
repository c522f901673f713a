from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from spal.output import write_csv, write_json, write_records_csv
from spal.selection import random_select

from conftest import make_graph


@dataclass
class Row:
    name: str
    value: float
    count: int


class TestWriteCsv:
    def test_header_rows_and_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [[(0, 0.5), (1, "x,y")], [(2, 1e-8)]])
        assert path.read_bytes() == b'a,b\r\n0,0.5\r\n1,"x,y"\r\n2,1e-08\r\n'

    def test_no_batches_leaves_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [])
        assert path.read_bytes() == b"a,b\r\n"

    def test_batches_before_a_failure_stay_on_disk(self, tmp_path):
        path = tmp_path / "t.csv"

        def batches():
            yield [(0, 1), (2, 3)]
            # the writer asks for this batch only after flushing the first
            assert path.read_bytes() == b"a,b\r\n0,1\r\n2,3\r\n"
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            write_csv(path, ("a", "b"), batches())
        assert path.read_bytes() == b"a,b\r\n0,1\r\n2,3\r\n"


def test_records_csv_columns_are_the_fields(tmp_path):
    path = tmp_path / "t.csv"
    write_records_csv(path, Row, [Row("spa", 0.25, 3), Row("random", 1.0, 0)])
    assert path.read_bytes() == b"name,value,count\r\nspa,0.25,3\r\nrandom,1.0,0\r\n"


def test_json_two_space_indent_and_final_newline(tmp_path):
    path = tmp_path / "t.json"
    data = {"b": [1, 2], "a": None}
    write_json(path, data)
    assert path.read_text(encoding="utf-8") == json.dumps(data, indent=2) + "\n"


def test_json_numpy_integers_written_as_ints(tmp_path):
    g = make_graph([(v, v + 1) for v in range(9)])
    paths = []
    for budget, seed in ((3, 1), (np.int64(3), np.int64(1)), (np.int32(3), np.uint8(1))):
        result = random_select(g, budget, seed)
        result.query_time_ms = 0.0
        paths.append(tmp_path / f"select{len(paths)}.json")
        result.write_json(paths[-1])
    assert paths[1].read_bytes() == paths[2].read_bytes() == paths[0].read_bytes()


def test_json_unserializable_value_leaves_no_file(tmp_path):
    path = tmp_path / "t.json"
    for bad in ({1, 2}, np.float32(0.5), object()):
        with pytest.raises(TypeError):
            write_json(path, {"budget": 3, "bad": bad})
        assert not path.exists()
