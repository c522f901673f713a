"""In-memory span tracer that wraps spal's functions from outside.

Each wrapped call records a span (name, start, end, parent) in a list held
by the tracer until the run ends. Functions are replaced at the module
attributes other layers call them through, so no spal code changes. A name
that no longer exists makes ``install`` raise, which fails the traced run
instead of silently reporting zeros.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


# (span name, module, attribute paths that callers use); "Class.method" wraps a method
FUNCTION_SPANS = [
    ("synthetic.sbm_graph", "spal.synthetic", ["sbm_graph"]),
    ("graph.load_graph", "spal.graph", ["load_graph"]),
    ("graph.from_edges", "spal.graph", ["from_edges"]),
    ("graph.from_edges", "spal.synthetic", ["from_edges"]),
    ("graph.propagate", "spal.selection", ["propagate"]),
    ("scan.partition", "spal.selection", ["scan_partition"]),
    ("pagerank.blocks", "spal.selection", ["pagerank_blocks"]),
    ("pagerank.global", "spal.selection", ["pagerank"]),
    ("selection.spa", "spal.experiment", ["spa_select"]),
    ("selection.random", "spal.experiment", ["random_select"]),
    ("selection.pagerank", "spal.experiment", ["pagerank_select"]),
    ("selection.uncertainty", "spal.experiment", ["uncertainty_select"]),
    ("selection.featprop", "spal.experiment", ["featprop_select"]),
    ("kmedoids.kmedoids", "spal.selection", ["kmedoids"]),
    ("gcn.train", "spal.gcn", ["train"]),
    ("gcn.predict", "spal.gcn", ["predict"]),
    ("gcn.forward", "spal.gcn", ["gcn_forward"]),
    ("metrics.accuracy", "spal.experiment", ["accuracy"]),
    ("metrics.macro_f1", "spal.experiment", ["macro_f1"]),
    ("experiment.run", "spal.experiment", ["run_single"]),
    ("experiment.report", "spal.experiment",
     ["aggregate_runs", "write_runs_csv", "write_aggregates_csv", "EvalReport.write_json"]),
]
# spans whose return values the correctness checks read
CHECKED_RESULTS = {"gcn.predict", "selection.spa", "selection.random", "selection.pagerank",
                   "selection.uncertainty", "selection.featprop"}
# kept in traced runs only: the per-layer metrics also read PageRank's iteration counts
KEEP_RESULTS = CHECKED_RESULTS | {"pagerank.blocks", "pagerank.global"}
ADJACENCY_MODULES = ["spal.graph", "spal.gcn"]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.kept: list[tuple[str, object]] = []  # (span name, return value) in call order

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()
        if name in KEEP_RESULTS:
            self.kept.append((name, out))
        return out

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _keep(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.kept.append((name, out))
            return out

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, capture_only: bool = False) -> None:
        """Replace every traced name; raises AttributeError if one is gone.

        With ``capture_only`` only the names whose results the checks read
        are replaced, and they keep their return values without timing.
        """
        for name, module_name, paths in FUNCTION_SPANS:
            if capture_only and name not in CHECKED_RESULTS:
                continue
            module = importlib.import_module(module_name)
            wrap = self._keep if capture_only else self._wrap
            for path in paths:
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self._patch(owner, attr, wrap(name, getattr(owner, attr)))
        if capture_only:
            return
        tracer = self
        for module_name in ADJACENCY_MODULES:
            module = importlib.import_module(module_name)
            base = module.NormalizedAdjacency

            class TracedAdjacency(base):
                def __init__(self, g):
                    tracer.call("graph.adjacency_build", super().__init__, g)

                def apply(self, M):
                    return tracer.call("graph.adjacency_apply", super().apply, M)

            TracedAdjacency.__name__ = base.__name__
            self._patch(module, "NormalizedAdjacency", TracedAdjacency)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def clear(self) -> None:
        self.spans.clear()
        self.kept.clear()

    def results(self, prefix: str) -> list:
        """Kept return values of spans named ``prefix`` or ``prefix.*``."""
        return [out for name, out in self.kept
                if name == prefix or name.startswith(prefix + ".")]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total ms and self ms (minus children)."""
        child_ms = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_ms[s.parent] += s.ms
        out: dict[str, dict[str, float]] = {}
        for s, c in zip(self.spans, child_ms):
            agg = out.setdefault(s.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            agg["calls"] += 1
            agg["ms"] += s.ms
            agg["self_ms"] += s.ms - c
        return out
