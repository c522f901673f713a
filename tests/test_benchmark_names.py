"""The benchmark's tracer wraps spal functions by module attribute name. A
rename of one of them, or a call moved off a traced name, fails here
instead of in a traced benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from spal import selection
from spal.scan import ScanParams
from spal.synthetic import sbm_graph

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()  # raises AttributeError when a traced name is gone
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_installs_on_every_name(tracer):
    assert tracer.spans == []


def test_overlapped_spa_traces_its_global_vector(tracer, monkeypatch):
    # the worker thread's call must go through the traced name; its span's
    # parent is not checked, because the tracer's span stack is per process
    monkeypatch.setattr(selection, "_OVERLAP_FROM", 0)
    selection.spa_select(sbm_graph(4, 400, 0.1, 0.01, 1.0, 7), ScanParams(0.28, 2), b=10)
    kept = tracer.results("pagerank.global")
    assert len(kept) == 1 and kept[0].iterations_used > 0
