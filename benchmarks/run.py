"""Benchmark entry point: one workload per call, one fresh process per run.

    python3 benchmarks/run.py --workload grid-sbm400 --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: ``grid-sbm400``, ``spa-dcsbm100k`` and ``featprop-sbm1k`` (see
README.md). Every input is pinned, so ``--seed`` does not change the work;
it is echoed in the ``setup`` line. The script prepares fixture files
(outside the measured process), runs the measured process
(``workloads.py``) with BLAS pinned to one thread, times set-up in fresh
processes spread over the run (the measured process itself, one between
each two of its rounds, and more after it up to ``SETUP_SAMPLES``), and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Every other line it prints starts
with ``record`` or ``setup``. ``--workload all`` runs the three in turn and
ends with one JSON object that maps each workload to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / ".cache"
WORKLOADS = ("grid-sbm400", "spa-dcsbm100k", "featprop-sbm1k")
SETUP_SAMPLES = 5  # fewest set-up samples per untraced run; their median is setup_s
DCSBM_SEED = 1  # the draw that spa-dcsbm100k's epsilon and mu were chosen on
TIMEOUT_S = 150  # a measured process still running after this is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def spawn(cmd: list[str], env: dict[str, str], stdin=subprocess.DEVNULL
          ) -> tuple[float, subprocess.Popen]:
    """Start ``cmd`` and wait for its ``ready`` line; returns the seconds from
    start to that line and the still-running process."""
    t = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t
    if line.strip() != "ready":
        rest, _ = proc.communicate()
        raise RuntimeError(f"{cmd[1]} exited with {proc.returncode} before set-up "
                           f"finished: {(line + rest).strip()[-500:]}")
    return elapsed, proc


def time_setup(cmd: list[str], env: dict[str, str]) -> float:
    """Set-up time of one fresh process that exits once its graph is ready."""
    elapsed, proc = spawn(cmd + ["--setup-only"], env)
    proc.communicate()
    return elapsed


def measure(cmd: list[str], env: dict[str, str], setup_s: list[float]) -> list[str]:
    """Run the measured process to its end, timing a set-up at each of its
    pauses; returns its output lines."""
    elapsed, proc = spawn(cmd, env, stdin=subprocess.PIPE)
    setup_s.append(elapsed)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line.strip() == "pause":
                setup_s.append(time_setup(cmd, env))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                lines.append(line.rstrip("\n"))
    except BaseException:
        proc.kill()
        raise
    finally:
        watchdog.cancel()
        proc.wait()
        proc.stdin.close()
    if proc.returncode != 0:
        raise RuntimeError(f"the measured process exited with {proc.returncode}"
                           + (f" (killed after {TIMEOUT_S} s)" if proc.returncode < 0 else ""))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """One run of one workload; prints its record lines and returns its
    result, or prints an error and returns None."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    out = CACHE / f"out-{workload}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--out", str(out)]
    if workload == "spa-dcsbm100k":
        sys.path.insert(0, str(HERE))
        import dcsbm

        paths = dcsbm.ensure_files(dcsbm.DcsbmSpec(), DCSBM_SEED, CACHE)
        cmd += ["--edges", str(paths[0]), "--features", str(paths[1]), "--labels", str(paths[2])]

    setup_s: list[float] = []
    try:
        lines = measure(cmd + ["--seconds", str(seconds), "--trace", str(trace)], env, setup_s)
        while not trace and len(setup_s) < SETUP_SAMPLES:
            setup_s.append(time_setup(cmd, env))
    except (RuntimeError, OSError) as e:
        print(f"error: {workload}: {e}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out, ignore_errors=True)

    for line in lines[:-1]:
        print(line)
    print("setup " + json.dumps({"workload": workload, "seed": seed, "setup_s": setup_s}))
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spal" / "__init__.py").is_file():
        print(f"error: no spal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
