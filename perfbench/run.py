#!/usr/bin/env python3
"""Benchmark of the chipfire command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses ``src/chipfire`` of
the checkout it sits in and never an installed copy.  Workloads:

* ``engine-runs``: one random base n=80 run written as a JSON-lines trace,
  read back and replayed with verification (the engine's move loop and
  I/O); then ``verify`` on base n=30 (20 runs) and one-loop n=11 (100 runs),
  short runs checked by the oracles and every checker.
* ``state-search``: labeled BFS on base n=8, base n=7 (with its unsorted
  witness) and one-loop n=11; then the fire-count poset of base n=14 (grid
  check, DOT), base n=15, and exponential t=1 (expgrid check, DOT).

``--seed`` is the seed of the random runs; the amount of work does not
depend on it.  The workload runs in a child process of its own, single
threaded (BLAS/OpenMP limits are set in that child's environment only), as
a closed loop with one client: every operation starts when the previous one
has returned.  ``workload.py`` runs and checks the operations; ``spans.py``
times the layers.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics:

* ``setup_s``: median over fresh processes of the time to import chipfire
  and build the CLI parser.
* ``scaled_wall_s``: median seconds per iteration (one pass over the
  workload's operations; the sample count is printed above the last line),
  at a fixed host speed: each operation's time is scaled by a fixed
  reference's time just before and after it (``workload.reference``), so
  that the host's drift in speed cancels.  The raw median, ``wall_s``, is
  printed above the last line and kept in the result file.
* ``scaled_work_per_s``: moves (engine-runs) or states (state-search) per
  second at ``scaled_wall_s``.
* ``peak_rss_mb``: peak resident memory of the workload's process.
* ``ok_ratio``: operations with correct output over operations attempted,
  that is ``1 - failed / attempted``; the failures themselves are the
  ``failed`` and ``attempted`` fields of the same object.

With ``--trace 1`` it carries the per-layer metrics of the traced
iterations instead, as means per iteration.  ``<span>_s`` is a span's time
including the spans it calls, ``<layer>.self_s`` excludes them; the layer
self times plus ``trace.unattributed_s`` add up to ``trace.wall_s``.

Every run also writes its figures, per-iteration samples and environment
(Python, numpy, whether numba imports, CPU count and model, git commit) to
``perfbench/out/<workload>-trace<0|1>.json``, so runs of two commits can be
compared field by field.  Iterations repeat the same inputs in one process,
as the commands run for a user do not; a cache kept across commands would
flatter every iteration after the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("engine-runs", "state-search")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # the whole run, so a hung workload still exits in time

CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import chipfire.cli
chipfire.cli.build_parser()
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    pass


def child(argv: list[str], timeout: float) -> str:
    """Run a Python child with the benchmark's environment; return its stdout."""
    env = {**os.environ, **CHILD_ENV}
    try:
        proc = subprocess.run([sys.executable, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:1]} still running after {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"child {argv[:1]} exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(deadline: float) -> float:
    """Median import-and-parser time over fresh processes, after one unmeasured."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        out = child(["-c", SETUP_CODE, str(SRC)], deadline - time.monotonic())
        samples.append(float(out.strip().splitlines()[-1]))
    return statistics.median(samples[1:])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fp:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fp
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": git_commit(),
    }


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    scaled = statistics.median(result["scaled_walls"])
    return {
        "setup_s": setup_s,
        "scaled_wall_s": scaled,
        "scaled_work_per_s": result["work"] / scaled,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_ratio": 1 - result["failed"] / result["attempted"],
    }


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "chipfire" / "__init__.py").is_file():
        print(f"error: no chipfire sources at {SRC}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup_s = None if args.trace else measure_setup(deadline)
        workdir.mkdir(parents=True)
        out = child([str(HERE / "workload.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace), "--workdir", str(workdir)],
                    deadline - time.monotonic())
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["layers"] if args.trace else end_to_end(result, setup_s)
    units = metric_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    correct = result["failed"] == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "fail_ratio": result["failed"] / result["attempted"],
        "errors": result["errors"], "work_unit": result["unit"],
        "work_per_iteration": result["work"], "untraced_walls": result["untraced_walls"],
        "wall_s": statistics.median(result["untraced_walls"]),
        "scaled_walls": result["scaled_walls"], "reference_s": result["reference_s"],
        "traced_walls": result.get("traced_walls"), "metrics": metrics,
        "environment": environment(),
    }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed={args.seed}: {len(result['untraced_walls'])} "
          f"untraced iterations, {result['work']:.0f} {result['unit']} each, "
          f"fail_ratio {record['fail_ratio']:.3g} ({result['failed']}/{result['attempted']})")
    print(f"  {'wall_s (raw, unscaled)':28s} {record['wall_s']:>14.6g} s")
    print(f"  {'reference_s (median)':28s} {record['reference_s']:>14.6g} s")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}")
    print("environment:", json.dumps(record["environment"]))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
