"""What ``import spal`` loads, and when the modules it defers are loaded.
Each check runs in a fresh interpreter, because this one has loaded them
all already."""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import spal

# Modules that only one path uses: SCAN (csgraph, which brings in
# scipy.linalg), featprop (scipy.spatial, which brings in scipy.special),
# and --jobs > 1 (multiprocessing). scipy.sparse.linalg has no user.
ONE_PATH_ONLY = (
    "multiprocessing",
    "scipy.linalg",
    "scipy.sparse.csgraph",
    "scipy.sparse.linalg",
    "scipy.spatial",
    "scipy.special",
)


def test_exports_resolve_and_shadow_no_submodule():
    # a function exported under its module's name would hide the module
    # from ``spal.<name>`` attribute access (and from monkeypatching)
    submodules = {info.name for info in pkgutil.iter_modules(spal.__path__)}
    assert [name for name in spal.__all__ if not hasattr(spal, name)] == []
    assert sorted(submodules & set(spal.__all__)) == []


def run_python(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(spal.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_only_what_every_command_needs():
    for module in ("spal", "spal.cli"):
        loaded = run_python(
            f"import json, sys, {module}\n"
            f"print(json.dumps([m for m in {ONE_PATH_ONLY!r} if m in sys.modules]))"
        )
        assert loaded == [], f"import {module} loads {', '.join(loaded)}"


@pytest.mark.parametrize(
    "strategy, deferred",
    [("spa", "scipy.sparse.csgraph"), ("featprop", "scipy.spatial.distance")],
)
def test_deferred_import_finishes_before_the_stopwatch_starts(strategy, deferred):
    # query_time_ms, and the benchmark's per-layer spans inside it, must not
    # include a module import
    loaded_before, loaded_at_start = run_python(f"""
import json, sys
from spal.experiment import run_strategy
from spal.selection import Stopwatch
from spal.synthetic import sbm_graph

g = sbm_graph(2, 30, 0.3, 0.05, seed=0)
loaded_before = {deferred!r} in sys.modules
loaded_at_start = []
enter = Stopwatch.__enter__

def recording_enter(self):
    loaded_at_start.append({deferred!r} in sys.modules)
    return enter(self)

Stopwatch.__enter__ = recording_enter
run_strategy({strategy!r}, g, 4, 0)
print(json.dumps([loaded_before, loaded_at_start]))
""")
    assert not loaded_before, f"{deferred} loaded before {strategy} ran"
    assert loaded_at_start == [True]


def test_refused_kmedoids_call_leaves_scipy_spatial_unimported():
    # the argument checks and the size guard run before the import: 16,385
    # points need a 2.0001 GiB matrix
    refused, loaded = run_python("""
import json, sys
import numpy as np
from spal.kmedoids import kmedoids

refused = []
for points, k in ((np.zeros((16_385, 1)), 3), (np.array([[0.0], [np.nan]]), 1)):
    try:
        kmedoids(points, k)
        refused.append(False)
    except ValueError:
        refused.append(True)
print(json.dumps([refused, "scipy.spatial" in sys.modules]))
""")
    assert refused == [True, True]
    assert not loaded
