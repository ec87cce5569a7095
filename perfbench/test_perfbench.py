"""Tests of the benchmark itself: its gate, its spans and its contract.

    python3 -m pytest perfbench/test_perfbench.py -q

The span tests make one short traced run of every workload per seed, which
takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

import run
import workload  # first: it puts the checkout's src/ on sys.path
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Which workloads each per-layer metric must be non-zero on.
FIRES_ON = {
    **dict.fromkeys(
        ["engine.apply_calls", "engine.apply_s", "engine.choose_s",
         "engine.enabled_sites_calls", "engine.enabled_sites_s", "engine.run_s",
         "engine.moves", "engine.moves_per_s", "variants.threshold_calls"],
        ("engine-runs",)),
    **dict.fromkeys(
        ["engine.trace_write_s", "engine.trace_read_s", "engine.replay_calls",
         "engine.replay_s", "analysis.check_calls", "analysis.check_s",
         "analysis.conservation_s", "closedform.oracle_calls", "closedform.oracle_s"],
        ("engine-runs",)),
    **dict.fromkeys(
        ["explorer.explore_calls", "explorer.explore_s", "explorer.states_visited",
         "explorer.states_per_s", "explorer.witness_s"], ("state-search",)),
    **dict.fromkeys(
        ["poset.reachable_s", "poset.n_states", "poset.states_per_s", "poset.build_s",
         "poset.check_s", "poset.dot_s"], ("state-search",)),
    "cli.self_s": run.WORKLOADS,
}

# Work counters that every iteration repeats exactly, whatever the seed.
SEED_FREE_COUNTS = ["engine.moves", "engine.apply_calls", "engine.enabled_sites_calls",
                    "engine.replay_calls", "analysis.check_calls", "closedform.oracle_calls",
                    "explorer.explore_calls", "explorer.states_visited", "poset.n_states"]


def traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {name: metric["value"] for name, metric in result["metrics"].items()}


traced = cache(traced_run)


def test_names_agree_with_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(workload.WORKLOADS) == list(run.WORKLOADS)
    assert BENCHMARK["paths"] == [HERE.name]
    assert set(FIRES_ON) <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    assert list(traced(name, 1)) == [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_listed_spans_fire_and_idle_layers_stay_idle(name):
    metrics = traced(name, 1)
    for metric, workloads in FIRES_ON.items():
        if name in workloads:
            assert metrics[metric] > 0, metric
        elif metric.startswith(("explorer.", "poset.")):
            assert metrics[metric] == 0, metric


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_layer_self_times_and_remainder_add_up_to_traced_wall(name):
    metrics = traced(name, 1)
    parts = [metrics[f"{layer}.self_s"] for layer in spans.LAYERS]
    assert math.isclose(sum(parts) + metrics["trace.unattributed_s"],
                        metrics["trace.wall_s"], rel_tol=1e-9)
    assert metrics["trace.unattributed_s"] >= 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_work_counts_repeat_across_seeds(name):
    one, two = traced(name, 1), traced(name, 2)
    for metric in SEED_FREE_COUNTS:
        assert one[metric] == two[metric] == int(one[metric]), metric


def test_path_dependent_counts_repeat_for_one_seed():
    # Threshold lookups follow the occupied sites along the random firing
    # path, so they repeat for a seed but differ between seeds.
    first = traced("engine-runs", 1)["variants.threshold_calls"]
    assert traced_run("engine-runs", 1)["variants.threshold_calls"] == first


def test_wrong_outputs_and_errors_count_as_failed(tmp_path):
    def states_are(expected):
        return lambda out: workload.expect(f"states={expected} " in out, "states") or 1
    ops = [
        workload.cli_op("right", ["explore", "--n", "4"], states_are(15)),
        workload.cli_op("wrong count", ["explore", "--n", "4"], states_are(16)),
        workload.cli_op("raises", ["explore", "--n", "130"], states_are(0)),
        workload.cli_op("bad usage", ["explore", "--no-such-flag"], states_are(0)),
        workload.cli_op("exit code", ["poset", "--n", "5", "--check", "grid"],
                        lambda out: 1),
    ]
    tally = workload.Tally()
    done = workload.iterate(ops, tmp_path, tally, None)
    assert (tally.attempted, tally.failed, done.work) == (5, 4, 1)
    assert done.wall > 0 and done.scaled > 0 and len(done.references) == len(ops) + 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           run.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
