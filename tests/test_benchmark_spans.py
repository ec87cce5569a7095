"""The benchmark's span lookup sites, checked on tiny runs of every command.

``perfbench/spans.py`` wraps functions where the program looks them up.
Entering its instrumentation fails at once if one of them is gone, and a
span that tiny runs never call means a path stopped calling it, so the
benchmark's per-layer figures would read zero.  The module is loaded from
its file, never edited or copied.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from chipfire import cli
from chipfire.engine import Trace

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

SPANS = ("engine.apply", "engine.choose", "engine.trace_write", "engine.trace_read",
         "variants.threshold", "engine.replay", "analysis.conservation", "analysis.check",
         "explorer.explore", "explorer.witness", "poset.reachable", "poset.check", "poset.dot")


def _traced(calls) -> spans.Tracer:
    """Run ``calls()`` with every lookup site traced and stdout discarded."""
    tracer = spans.Tracer()
    with spans.instrumented(tracer), contextlib.redirect_stdout(io.StringIO()):
        calls()
    return tracer


def test_every_span_is_called(tmp_path):
    trace_path = tmp_path / "run.jsonl"

    def calls():
        assert cli.main(["simulate", "--n", "8", "--trace", str(trace_path)]) == 0
        with open(trace_path) as fp:
            for _ in Trace.read_jsonl(fp).replay(verify=True):
                pass
        assert cli.main(["verify", "--n", "8", "--runs", "2"]) == 0
        assert cli.main(["verify", "--variant", "loops", "--n", "7", "--runs", "2"]) == 0
        assert cli.main(["explore", "--n", "5"]) == 0
        assert cli.main(["poset", "--n", "6", "--check", "grid",
                         "--dot", str(tmp_path / "poset.dot")]) == 0
        assert cli.main(["poset", "--variant", "exponential", "--t", "0",
                         "--check", "expgrid"]) == 0

    tracer = _traced(calls)
    assert [name for name in SPANS if not tracer.calls[name]] == []


@pytest.mark.parametrize("argv", [["--n", "8"], ["--n", "30"], ["--variant", "loops", "--n", "7"],
                                  ["--variant", "loops", "--n", "11"]])
def test_verify_replays_each_run_once(argv):
    """The run fires each move in place, without ``apply``; conservation
    fires each run's moves once through ``apply``, on its own and not through
    ``Trace.replay``, and the bound checkers read a table of chip sites built
    from the records without replaying, so ``verify`` never calls
    ``Trace.replay`` and each move goes through ``apply`` once."""
    runs = 3
    tracer = _traced(lambda: cli.main(["verify", *argv, "--runs", str(runs)]))
    assert tracer.calls["engine.run"] == runs
    assert tracer.calls["engine.replay"] == 0
    assert tracer.calls["analysis.conservation"] == runs
    assert tracer.calls["analysis.check"] == runs
    assert tracer.calls["engine.apply"] == tracer.tallies["engine.moves"]
