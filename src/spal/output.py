"""The one place spal formats the files it writes: CSV through the ``csv``
module, with its CRLF line ends, and JSON indented by two spaces with a
final newline."""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence


def write_csv(path: str | Path, columns: Sequence[str], batches: Iterable[Iterable]) -> None:
    """Write the header ``columns``, then each batch of rows, every row a
    sequence in column order. The file is flushed after the header and after
    each batch, so when drawing the next batch raises, the rows of the
    batches before it are already on disk."""
    with Path(path).open("w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        f.flush()
        for rows in batches:
            writer.writerows(rows)
            f.flush()


def write_records_csv(path: str | Path, record_type: type, records: Iterable) -> None:
    """``write_csv`` with one column per field of the dataclass
    ``record_type`` and one batch per record."""
    columns = [fld.name for fld in fields(record_type)]
    write_csv(path, columns, ([[getattr(r, c) for c in columns]] for r in records))


def write_json(path: str | Path, data) -> None:
    """Write ``data`` as JSON; numpy integers are written as ints. The text
    is built first, so a value that cannot be serialized leaves no file."""
    text = json.dumps(data, indent=2, default=operator.index)
    Path(path).write_text(text + "\n", encoding="utf-8")
