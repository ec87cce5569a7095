"""One benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR

Runs the workload's operations (two groups of them) through
``chipfire.cli.main`` and the library trace round trip, as a closed loop
with one client: each operation starts when the previous one has returned.
One iteration is the workload's full list of operations.  Iterations repeat
until the next one would end past ``--seconds``.  The first one is not set
apart as a warm-up: a user runs each command in a fresh process and pays
its first-call costs every time, and the median keeps one slow sample from
moving the result.  Each operation is timed on its own and, untraced, is
bracketed by a fixed host-speed reference (see ``reference``).  Every
operation's output is checked after the iteration's clocks have stopped,
and an operation that raises or gives a wrong output counts as failed.

With ``--trace 1`` untraced and traced iterations alternate (see
``spans.py``), so the per-layer figures and the tracing overhead come from
the same stretch of time.

Prints one JSON line: per-iteration wall times, raw and at reference
speed, the median reference time, the work per iteration, operations
attempted and failed, the process's peak RSS and, when traced, the
per-layer aggregates.  Scratch files go to ``--workdir``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import re
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chipfire import Variant, analysis, cli, closedform  # noqa: E402
from chipfire.engine import Trace  # noqa: E402

import spans  # noqa: E402


class WrongOutput(Exception):
    """An operation returned, but its output is not the expected one."""


def expect(condition: bool, message: str):
    if not condition:
        raise WrongOutput(message)


@dataclass
class Op:
    """One operation: ``run`` is timed (and traced); ``check`` is not.

    ``check(result)`` raises on a wrong output and returns the operation's
    work in the workload's unit.
    """
    label: str
    run: Callable[[], object]
    check: Callable[[object], int]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # looked up on the module, so a traced run sees it
    return code, out.getvalue()


def cli_op(label: str, argv: list[str], check: Callable[[str], int]) -> Op:
    def check_output(result):
        code, out = result
        expect(code == 0, f"exit code {code}")
        return check(out)
    return Op(label, lambda: run_cli(argv), check_output)


def grab(pattern: str, out: str) -> str:
    found = re.search(pattern, out, re.MULTILINE)
    expect(found is not None, f"no match for {pattern!r} in {out!r}")
    return found.group(1)


def count_edges(dot: Path) -> int:
    return sum(" -> " in line for line in dot.read_text().splitlines())


# --- simulate-long: engine move loop and trace I/O ---------------------------

def simulate_long(seed: int, workdir: Path) -> list[Op]:
    base = Variant("base")
    fires = {str(s): c for s, c in closedform.fire_count_table(base, 80).items()}
    terminal = {str(s): list(v) for s, v in
                closedform.expected_sorted_terminal(base, 80).items()}
    moves = sum(fires.values())
    trace_path = workdir / "simulate.jsonl"

    def check_simulate(out):
        expect(json.loads(grab(r"^fires: (.*)$", out)) == fires, "fire counts")
        expect(json.loads(grab(r"^terminal: (.*)$", out)) == terminal, "terminal")
        expect(int(grab(r" moves=(\d+)", out)) == moves, "move count")
        return moves

    def round_trip():
        with open(trace_path) as fp:
            trace = Trace.read_jsonl(fp)
        steps, final = 0, trace.initial
        for _, _, final in trace.replay(verify=True):
            steps += 1
        return steps, final

    def check_round_trip(result):
        steps, final = result
        expect(steps == moves, f"replayed {steps} moves, expected {moves}")
        replayed = {str(s): list(v) for s, v in final.values_by_site().items()}
        expect(replayed == terminal, "replayed terminal")
        return 0

    return [
        cli_op("simulate base n=80", ["simulate", "--variant", "base", "--n", "80",
                                      "--strategy", "random", "--seed", str(seed),
                                      "--trace", str(trace_path)], check_simulate),
        Op("trace round trip", round_trip, check_round_trip),
    ]


# --- verify-batch: oracles and checkers on short runs ------------------------

def verify_batch(seed: int, workdir: Path) -> list[Op]:
    def verify(variant: str, n: int, runs: int) -> Op:
        report = workdir / f"verify-{variant}-{n}.json"

        def check(out):
            expect(re.search(rf"\b{runs} runs, PASS\b", out) is not None, out.strip())
            data = json.loads(report.read_text())
            expect(data["passed"] and len(data["run_details"]) == runs, "report")
            return sum(run["moves"] for run in data["run_details"])
        return cli_op(f"verify {variant} n={n} runs={runs}",
                      ["verify", "--variant", variant, "--n", str(n), "--runs", str(runs),
                       "--seed", str(seed), "--report", str(report)], check)

    return [verify("base", 30, 20), verify("loops", 11, 100)]


# --- explore-exhaustive: labeled BFS -----------------------------------------

def explore_exhaustive(seed: int, workdir: Path) -> list[Op]:
    def explore(variant: str, n: int, states: int, terminals: int,
                report: Path | None = None) -> Op:
        def check(out):
            expect(int(grab(r"states=(\d+)", out)) == states, "states")
            expect(int(grab(r"terminals=(\d+)", out)) == terminals, "terminals")
            if report is not None:
                check_witness(json.loads(report.read_text())["witness"])
            return states
        argv = ["explore", "--variant", variant, "--n", str(n), "--seed", str(seed)]
        if report is not None:
            argv += ["--report", str(report)]
        return cli_op(f"explore {variant} n={n}", argv, check)

    def check_witness(records):
        expect(records is not None, "no witness")
        jsonl = "".join(json.dumps(record) + "\n" for record in records)
        final = Trace.read_jsonl(io.StringIO(jsonl)).final_config()
        expect(not final.enabled_sites(Variant("base")), "witness does not terminate")
        expect(not analysis.is_weakly_sorted(final), "witness terminal is weakly sorted")

    return [
        explore("base", 8, 11_281, 1),
        explore("base", 7, 1_699, 54, report=workdir / "explore-base-7.json"),
        explore("loops", 11, 6_271, 1),
    ]


# --- poset-grid: fire-count BFS and relation build ---------------------------

def poset_grid(seed: int, workdir: Path) -> list[Op]:
    def poset(args: list[str], label: str, states: int, check: str,
              edges: int | None = None) -> Op:
        dot = workdir / f"{label}.dot"
        argv = ["poset", *args, "--seed", str(seed)]
        if check != "none":
            argv += ["--check", check]
        if edges is not None:
            argv += ["--dot", str(dot)]

        def check_output(out):
            expect(int(grab(r": (\d+) states", out)) == states, "states")
            expect(f"check={check} PASS" in out, out.strip())
            if edges is not None:
                expect(count_edges(dot) == edges, "Hasse edges")
            return states
        return cli_op(f"poset {label}", argv, check_output)

    return [
        poset(["--variant", "base", "--n", "14"], "base-14", 23_744, "grid", edges=295),
        poset(["--variant", "base", "--n", "15"], "base-15", 54_522, "none"),
        poset(["--variant", "exponential", "--t", "1"], "exponential-1", 25, "expgrid",
              edges=17),
    ]


# Two workloads of two operation groups each, not four of one: the host's
# speed drifts by a fifth over a few seconds, and only longer runs (fewer
# workloads in the same time) keep the run-to-run spread under the bounds.
# Why each workload is here, and which layers it leaves idle, is in
# BENCHMARK.json.
WORKLOADS = {
    "engine-runs": ("moves", (simulate_long, verify_batch)),
    "state-search": ("states", (explore_exhaustive, poset_grid)),
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, label: str, message: str):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{label}: {message}")
        print(f"FAILED {label}: {message}", file=sys.stderr)


# --- host-speed reference ------------------------------------------------------

# The host's speed drifts by a fifth or more over seconds to minutes, which
# spreads the raw wall times of runs of the same code past the bounds.  So
# each untraced operation is also timed against a fixed piece of work that
# does not touch chipfire, run just before and just after it: the
# operation's seconds times REFERENCE_S over the mean of those two reference
# times is its time at a fixed host speed.  A slow spell slows the operation
# and the reference alike and cancels; a change to chipfire moves the scaled
# time as it moves the raw one.
REFERENCE_S = 0.165  # the reference's median on the 2-core host the bounds were set on
REFERENCE_CHIPS = 120
REFERENCE_FIRES = 73_810  # topplings of REFERENCE_CHIPS chips on one site of a line
REFERENCE_PERMUTATIONS = 5_040  # states of the adjacent-swap BFS on 7 items


def reference() -> float:
    """Seconds for a fixed mix of tuple-set BFS and NumPy scalar loops.

    The mix resembles the operations' own inner loops (set lookups of tuple
    states, Python loops over small NumPy arrays), so host slowdowns that
    hit one hit the other.
    """
    start = time.perf_counter()
    for _ in range(4):
        first = tuple(range(7))
        seen, queue = {first}, deque([first])
        while queue:
            state = queue.popleft()
            for i in range(6):
                nxt = state[:i] + (state[i + 1], state[i]) + state[i + 2:]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        assert len(seen) == REFERENCE_PERMUTATIONS, len(seen)
    line = np.zeros(2 * REFERENCE_CHIPS + 3, np.int16)
    line[REFERENCE_CHIPS + 1] = REFERENCE_CHIPS
    fires, stack = 0, [REFERENCE_CHIPS + 1]
    while stack:
        i = stack.pop()
        while line[i] >= 2:
            line[i] -= 2
            line[i - 1] += 1
            line[i + 1] += 1
            fires += 1
            if line[i - 1] >= 2:
                stack.append(i - 1)
            if line[i + 1] >= 2:
                stack.append(i + 1)
    assert fires == REFERENCE_FIRES, fires
    return time.perf_counter() - start


@dataclass
class Pass:
    """One iteration: raw seconds, seconds at reference speed, work done."""
    wall: float
    scaled: float | None  # None when traced: tracing runs no reference
    work: int
    references: list[float]


def iterate(ops: list[Op], workdir: Path, tally: Tally,
            tracer: spans.Tracer | None) -> Pass:
    """Run one iteration, each operation timed on its own, and check it."""
    for stale in workdir.iterdir():  # a failed write must not pass on old output
        stale.unlink()
    gc.collect()
    results, walls = [], []
    refs = [] if tracer else [reference()]
    with (spans.instrumented(tracer) if tracer else contextlib.nullcontext()):
        for op in ops:
            start = time.perf_counter()
            try:
                results.append((True, op.run()))
            except (Exception, SystemExit):
                results.append((False, traceback.format_exc(limit=3)))
            walls.append(time.perf_counter() - start)
            if not tracer:
                refs.append(reference())
    scaled = None if tracer else sum(
        wall * 2 * REFERENCE_S / (before + after)
        for wall, before, after in zip(walls, refs, refs[1:]))
    work = 0
    for op, (returned, result) in zip(ops, results):
        tally.attempted += 1
        if not returned:
            tally.fail(op.label, result)
            continue
        try:
            work += op.check(result)
        except Exception as exc:
            tally.fail(op.label, f"{type(exc).__name__}: {exc}")
    return Pass(sum(walls), scaled, work, refs)


def layer_metrics(tracer: spans.Tracer, iterations: int, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-iteration means of the traced iterations' spans and counters."""
    calls, incl, tallies = tracer.calls, tracer.inclusive, tracer.tallies

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    check_names = ("analysis.check", "analysis.conservation")
    totals = {
        "cli.self_s": tracer.self_time["cli.main"],
        "engine.run_s": incl["engine.run"],
        "engine.moves": tallies["engine.moves"],
        "engine.moves_per_s": rate(tallies["engine.moves"], incl["engine.run"]),
        "engine.apply_calls": calls["engine.apply"],
        "engine.apply_s": incl["engine.apply"],
        "engine.enabled_sites_calls": calls["engine.enabled_sites"],
        "engine.enabled_sites_s": incl["engine.enabled_sites"],
        "engine.choose_s": incl["engine.choose"],
        "engine.trace_write_s": incl["engine.trace_write"],
        "engine.trace_read_s": incl["engine.trace_read"],
        "engine.replay_calls": calls["engine.replay"],
        "engine.replay_s": incl["engine.replay"],
        "variants.threshold_calls": calls["variants.threshold"],
        "closedform.oracle_calls": calls["closedform.oracle"],
        "closedform.oracle_s": incl["closedform.oracle"],
        "analysis.check_calls": sum(calls[name] for name in check_names),
        "analysis.check_s": sum(incl[name] for name in check_names),
        "analysis.conservation_s": incl["analysis.conservation"],
        "explorer.explore_calls": calls["explorer.explore"],
        "explorer.explore_s": incl["explorer.explore"],
        "explorer.states_visited": tallies["explorer.states_visited"],
        "explorer.states_per_s": rate(tallies["explorer.states_visited"],
                                      incl["explorer.explore"]),
        "explorer.witness_s": incl["explorer.witness"],
        "poset.reachable_s": incl["poset.reachable"],
        "poset.n_states": tallies["poset.n_states"],
        "poset.states_per_s": rate(tallies["poset.n_states"], incl["poset.reachable"]),
        "poset.build_s": incl["poset.build"],
        "poset.check_s": incl["poset.check"],
        "poset.dot_s": incl["poset.dot"],
    }
    layer_self = tracer.layer_self_seconds()
    for layer in spans.LAYERS[1:]:
        totals[f"{layer}.self_s"] = layer_self[layer]
    totals["trace.wall_s"] = traced_wall
    totals["trace.unattributed_s"] = traced_wall - sum(layer_self.values())
    rates = {"engine.moves_per_s", "explorer.states_per_s", "poset.states_per_s"}
    out = {name: value if name in rates else value / iterations
           for name, value in totals.items()}
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_ratio"] = out["trace.wall_s"] / untraced_wall
    out["trace.iterations"] = iterations
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    unit, groups = WORKLOADS[workload]
    ops = [op for group in groups for op in group(seed, workdir)]
    tally = Tally()
    untraced, scaled, traced, work, references = [], [], [], [], []
    tracer = spans.Tracer() if trace else None
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        done = iterate(ops, workdir, tally, None)
        untraced.append(done.wall)
        scaled.append(done.scaled)
        work.append(done.work)
        references += done.references
        if trace:
            traced.append(iterate(ops, workdir, tally, tracer).wall)
        pass_seconds = time.perf_counter() - began
        if time.perf_counter() - start + pass_seconds > seconds:
            break
    result = {
        "workload": workload,
        "unit": unit,
        "untraced_walls": untraced,
        "scaled_walls": scaled,
        "reference_s": statistics.median(references),
        "work": statistics.median(work),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["traced_walls"] = traced
        result["layers"] = layer_metrics(tracer, len(traced), sum(traced),
                                         statistics.fmean(untraced))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
