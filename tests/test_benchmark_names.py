"""The benchmark's tracer wraps spal functions by module attribute name. A
rename of one of them fails here instead of in a traced benchmark run."""

from __future__ import annotations

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_tracer_installs_on_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # raises AttributeError when a traced name is gone
    finally:
        tracer.uninstall()
