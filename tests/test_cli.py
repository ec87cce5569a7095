import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chipfire import cli, engine, explorer, poset
from chipfire.cli import main
from chipfire.variants import base


def test_simulate_writes_trace_and_report(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    report = tmp_path / "run.json"
    rc = main(["simulate", "--variant", "base", "--n", "10", "--strategy", "leftmost",
               "--trace", str(trace), "--report", str(report)])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["variant"] == {"kind": "base"} and header["n"] == 10
    assert len(lines) == 1 + 55
    move = json.loads(lines[1])
    assert set(move) == {"step", "site", "chosen_values", "chosen_ids",
                         "present_before", "fire_index_at_site"}
    data = json.loads(report.read_text())
    assert data["fires"]["0"] == 15
    out = capsys.readouterr().out
    assert "terminal" in out


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        assert main(["simulate", "--variant", "loops", "--n", "11",
                     "--strategy", "random", "--seed", "5", "--trace", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_base_even(tmp_path):
    report = tmp_path / "verify.json"
    rc = main(["verify", "--variant", "base", "--n", "10", "--runs", "5",
               "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["passed"] and data["sorting_oracle_applies"]
    assert all(r["ok"] for r in data["run_details"])


def test_verify_base_odd_reports_sortedness_without_failing(tmp_path):
    report = tmp_path / "verify.json"
    rc = main(["verify", "--variant", "base", "--n", "11", "--runs", "10",
               "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["passed"] and not data["sorting_oracle_applies"]
    assert all(r["terminal_unlabeled_ok"] and r["fires_ok"] for r in data["run_details"])
    assert any("weakly_sorted" in r for r in data["run_details"])


def test_verify_loops(tmp_path):
    rc = main(["verify", "--variant", "loops", "--n", "11", "--runs", "5",
               "--report", str(tmp_path / "r.json")])
    assert rc == 0
    data = json.loads((tmp_path / "r.json").read_text())
    run = data["run_details"][0]
    assert {"loop_bounds", "diamond_count_bounds", "diamond_config_bounds"} <= \
        set(run["violations"])


def test_verify_usage_error():
    assert main(["verify", "--variant", "multi-edge", "--r", "2", "--n", "7"]) == 2


def test_invalid_variant_parameter_is_usage_error(capsys):
    assert main(["simulate", "--variant", "multi-edge", "--r", "0", "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_poset_grid(tmp_path):
    dot = tmp_path / "poset.dot"
    report = tmp_path / "grid.json"
    rc = main(["poset", "--variant", "base", "--n", "10", "--check", "grid",
               "--dot", str(dot), "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["passed"] and data["check"] == "grid"
    text = dot.read_text()
    assert text.count('group="diamond"') == 25
    assert text.count("[label=") == 55


def test_poset_grid_n11_reports_failure(tmp_path):
    report = tmp_path / "grid11.json"
    rc = main(["poset", "--variant", "base", "--n", "11", "--check", "grid",
               "--report", str(report)])
    assert rc == 1
    data = json.loads(report.read_text())
    assert any(v["node"] == "s0_j1" and v["clause"] == "exact_chips" and v["chips"] == 3
               for v in data["violations"])


def test_poset_expgrid():
    assert main(["poset", "--variant", "exponential", "--t", "1",
                 "--check", "expgrid"]) == 0


def test_explore_reports(tmp_path):
    report = tmp_path / "explore.json"
    rc = main(["explore", "--variant", "base", "--n", "5", "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["terminal_count"] >= 2
    assert data["confluent"] is False
    assert data["witness"] is not None
    header = data["witness"][0]
    assert header["n"] == 5 and "initial" in header


def test_explore_witness_is_the_counterexample_trace(tmp_path):
    """A move has one JSON form: ``explore --report``'s witness entries,
    written one ``json.dumps`` per line, are byte for byte the trace that
    ``counterexample --case odd --trace`` writes for the same n."""
    report, trace = tmp_path / "explore.json", tmp_path / "cx.jsonl"
    assert main(["explore", "--n", "5", "--report", str(report)]) == 0
    assert main(["counterexample", "--case", "odd", "--n", "5", "--trace", str(trace)]) == 0
    witness = json.loads(report.read_text())["witness"]
    assert len(witness) > 1
    assert "".join(json.dumps(entry) + "\n" for entry in witness) == trace.read_text()


def test_explore_beyond_key_limit_is_usage_error(capsys):
    assert main(["explore", "--n", "130"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "<= 120" in err and err.count("\n") == 1


def test_explore_cap_exit(capsys):
    assert main(["explore", "--variant", "base", "--n", "6", "--state-cap", "3"]) == 3
    assert capsys.readouterr().err.endswith("(states_visited=16, level=1, frontier=1)\n")
    assert main(["explore", "--variant", "base", "--n", "6", "--state-cap", "40"]) == 3
    err = capsys.readouterr().err
    assert err == ("cap exceeded: labeled exploration exceeded 40 states "
                   "(states_visited=46, level=2, frontier=15)\n")


def test_simulate_move_cap_exit(tmp_path, monkeypatch, capsys):
    """A run past its move cap exits 3 with one stderr line and writes no
    trace.  The staircase is not an origin initial, so its cap is
    ``DEFAULT_MOVE_CAP``."""
    monkeypatch.setattr(engine, "DEFAULT_MOVE_CAP", 5)
    trace = tmp_path / "run.jsonl"
    assert main(["simulate", "--preset", "staircase", "--n", "3", "--trace", str(trace)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cap exceeded: exceeded move cap 5 without terminating\n"
    assert not trace.exists()


def test_counterexample_odd(tmp_path):
    trace = tmp_path / "cx.jsonl"
    rc = main(["counterexample", "--case", "odd", "--n", "3", "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().strip().splitlines()
    assert len(lines) == 2  # header + the single move reaching an unsorted terminal


def _sorted_trace(m):
    v = base()
    return engine.run_to_completion(engine.standard_initial(v, 2), v, engine.LeftmostStrategy())


@pytest.mark.parametrize("argv,name,stub,out", [
    (["--case", "odd", "--n", "3"], "find_unsorted_terminal", lambda *args: None,
     "no unsorted terminal exists for base n=3\n"),
    (["--case", "loops-1mod4", "--n", "5"], "adversarial_1mod4", _sorted_trace,
     "adversarial schedule at m=1 unexpectedly sorted\n"),
], ids=["odd", "loops-1mod4"])
def test_counterexample_that_finds_no_witness_exits_1(argv, name, stub, out, monkeypatch,
                                                      capsys, tmp_path):
    """With no counterexample to show, neither ``--trace`` nor ``--report`` is written."""
    monkeypatch.setattr(explorer, name, stub)
    trace, report = tmp_path / "cx.jsonl", tmp_path / "cx.json"
    assert main(["counterexample", *argv, "--trace", str(trace), "--report", str(report)]) == 1
    assert capsys.readouterr().out == out
    assert not trace.exists() and not report.exists()


def test_trace_header_n_is_preset_parameter_or_chip_count(tmp_path):
    # a staircase's header n is its parameter, not its 2n+1 chips; a trace
    # with no preset (the witness of the labeled search) records its chips
    staircase, witness = tmp_path / "staircase.jsonl", tmp_path / "witness.jsonl"
    assert main(["simulate", "--preset", "staircase", "--n", "2", "--trace", str(staircase)]) == 0
    header = json.loads(staircase.read_text().splitlines()[0])
    assert (header["preset"], header["n"]) == ("staircase", 2)
    assert sum(map(len, header["initial"].values())) == 5
    assert main(["counterexample", "--case", "odd", "--n", "3", "--trace", str(witness)]) == 0
    header = json.loads(witness.read_text().splitlines()[0])
    assert (header["preset"], header["n"]) == (None, 3)
    assert sum(map(len, header["initial"].values())) == 3


@pytest.mark.parametrize("flag,value", [("--variant", "loops"), ("--r", "2"), ("--s", "1"),
                                        ("--t", "1"), ("--preset", "staircase")])
def test_counterexample_rejects_variant_and_preset(flag, value, capsys):
    # each case fixes its own variant and starts from the origin
    assert _usage_exit(["counterexample", "--case", "odd", "--n", "3", flag, value]) == 2
    assert flag in capsys.readouterr().err


def test_explore_searches_once(tmp_path, monkeypatch):
    calls = []
    levels = explorer._levels

    def counted(*args, **kwargs):
        calls.append(args)
        return levels(*args, **kwargs)

    monkeypatch.setattr(explorer, "_levels", counted)
    assert main(["explore", "--n", "7", "--report", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "r.json").read_text())["witness"] is not None


def test_poset_without_check_or_dot_builds_no_closure_rows(monkeypatch):
    def refuse(space):
        raise AssertionError("closure rows built")

    monkeypatch.setattr(poset.FireCountSpace, "closure_rows", property(refuse))
    assert main(["poset", "--n", "10"]) == 0
    with pytest.raises(AssertionError, match="closure rows built"):
        main(["poset", "--n", "10", "--check", "grid"])


@pytest.mark.parametrize("argv", [["--n", "600"], ["--variant", "exponential", "--t", "40"]],
                         ids=["int16-fires", "float64-chips"])
def test_poset_past_representation_limits_is_usage_error(argv):
    """A space whose fire or chip counts would not fit its arrays is
    refused before the search: exit 2 and one ``error:`` line, run through
    the module's own entry point so that a traceback would show."""
    src = Path(poset.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "chipfire.cli", "poset", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


_LOADED = '"numpy.random" in sys.modules, "numpy.ma" in sys.modules'
_PROBE = f"""
import contextlib, io, sys
from chipfire import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(rc, {_LOADED})
"""


def _fresh_python(code, *argv, cwd=None):
    src = Path(poset.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def lazy_numpy():
    """Skip where ``import numpy`` loads the submodules itself, as numpy 1.x does."""
    if _fresh_python(f"import sys, numpy; print({_LOADED})") != "False False":
        pytest.skip("import numpy loads numpy.random and numpy.ma")


@pytest.mark.parametrize("argv", [
    ["explore", "--n", "7", "--report", "explore.json"],
    ["poset", "--n", "6", "--check", "grid", "--dot", "poset.dot"],
    ["poset", "--variant", "exponential", "--t", "1", "--check", "expgrid"],
    ["counterexample", "--case", "loops-1mod4", "--n", "9"],
    ["simulate", "--n", "6", "--strategy", "leftmost"],
], ids=["explore-witness", "poset-grid-dot", "poset-expgrid", "loops-1mod4", "leftmost"])
def test_commands_that_never_draw_load_no_numpy_random_or_ma(argv, lazy_numpy, tmp_path):
    """Searches and runs that make no random draw (the explore witness is
    replayed by a scripted run, loops-1mod4 by a hold run) never make the
    generator, and the move table finds its thresholds without np.unique,
    which imports numpy.ma; each case runs in a fresh interpreter."""
    assert _fresh_python(_PROBE, *argv, cwd=tmp_path) == "0 False False"


def test_random_run_loads_numpy_random(lazy_numpy, tmp_path):
    """The control for the test above: a random run's first draw makes the generator."""
    assert _fresh_python(_PROBE, "simulate", "--n", "6", cwd=tmp_path).startswith("0 True ")


def test_counterexample_odd_even_n_is_usage_error():
    assert main(["counterexample", "--case", "odd", "--n", "2"]) == 2


@pytest.mark.parametrize("m", ["0", "-2"])
def test_counterexample_loops_m_below_one_is_usage_error(m, capsys):
    n = str(4 * int(m) + 1)
    assert main(["counterexample", "--case", "loops-1mod4", "--n", n]) == 2
    err = capsys.readouterr().err
    assert err == "error: loops-1mod4 case needs --n = 4m+1 >= 5\n"


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_verify_runs_below_one_is_usage_error(runs, capsys):
    assert main(["verify", "--n", "4", "--runs", runs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --runs must be >= 1, got {runs}\n"


def test_counterexample_loops(tmp_path):
    report = tmp_path / "cx.json"
    rc = main(["counterexample", "--case", "loops-1mod4", "--n", "5",
               "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert data["weakly_sorted"] is False


def _usage_exit(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_poset_rejects_preset(capsys):
    # the fire-count space always starts from the origin preset
    assert _usage_exit(["poset", "--n", "4", "--preset", "staircase"]) == 2
    assert "--preset" in capsys.readouterr().err


def test_verify_rejects_preset(capsys):
    # the oracles and checker scopes of verify hold for the origin preset only
    assert _usage_exit(["verify", "--n", "4", "--runs", "1", "--preset", "staircase"]) == 2
    assert "--preset" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "4"], ["verify", "--n", "4", "--runs", "1"], ["poset", "--n", "5"],
    ["explore", "--n", "4"]])
def test_negative_seed_is_usage_error(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ["poset", "--n", "5"], ["explore", "--n", "4"], ["counterexample", "--case", "odd", "--n", "3"]])
@pytest.mark.parametrize("cap", ["0", "-4"])
def test_state_cap_below_one_is_usage_error(argv, cap, capsys):
    assert main(argv + ["--state-cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --state-cap must be >= 1, got {cap}\n"


def test_counterexample_loops_rejects_state_cap(capsys):
    # the adversarial schedule runs no search
    assert main(["counterexample", "--case", "loops-1mod4", "--n", "5", "--state-cap", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "loops-1mod4 case takes no --state-cap" in captured.err


@pytest.mark.parametrize("case", [["odd", "--n", "3"], ["loops-1mod4", "--n", "5"]])
@pytest.mark.parametrize("flag", ["--seed", "--m"])
def test_counterexample_takes_no_seed_or_m(case, flag, capsys):
    # neither case draws random numbers, and --n is the one size flag
    assert _usage_exit(["counterexample", "--case", *case, flag, "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag} 1" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--n", "4"], "--report"),
    (["simulate", "--n", "4"], "--trace"),
    (["poset", "--n", "4"], "--dot"),
    (["verify", "--n", "4", "--runs", "1"], "--report"),
    (["explore", "--n", "4"], "--report"),
    (["counterexample", "--case", "odd", "--n", "3"], "--report"),
    (["counterexample", "--case", "loops-1mod4", "--n", "5"], "--trace")])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_unwritable_output_path_is_usage_error(argv, flag, where, tmp_path, capsys,
                                               monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the output was opened")

    # every run, search and space the subcommands build
    for owner, name in [(cli, "run_to_completion"), (explorer, "explore"),
                        (explorer, "find_unsorted_terminal"), (explorer, "adversarial_1mod4"),
                        (poset, "reachable_states")]:
        monkeypatch.setattr(owner, name, refuse)
    path = tmp_path / "missing" / "out" if where == "missing-dir" else tmp_path
    assert main(argv + [flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,flags", [
    (["simulate", "--n", "4"], ("--trace", "--report")),
    (["counterexample", "--case", "odd", "--n", "3"], ("--trace", "--report")),
    (["counterexample", "--case", "loops-1mod4", "--n", "5"], ("--report", "--trace")),
    (["poset", "--n", "4"], ("--report", "--dot"))])
@pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
def test_two_outputs_naming_one_file_is_usage_error(argv, flags, spelling, tmp_path, capsys,
                                                   monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the outputs were checked")

    for owner, name in [(cli, "run_to_completion"), (explorer, "find_unsorted_terminal"),
                        (explorer, "adversarial_1mod4"), (poset, "reachable_states")]:
        monkeypatch.setattr(owner, name, refuse)
    first = tmp_path / "out"
    first.write_text("kept\n")
    if spelling == "same":
        second = first
    elif spelling == "dotted":
        second = tmp_path / "." / "out"
    else:
        second = tmp_path / "link"
        second.symlink_to(first)
    assert main(argv + [flags[0], str(first), flags[1], str(second)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the flags are checked as --report, --trace, --dot; the later one's path is named
    path = dict(zip(flags, (first, second)))
    early, late = sorted(flags, key=["--report", "--trace", "--dot"].index)
    assert captured.err == f"error: {early} and {late} both name {path[late]}\n"
    assert first.read_text() == "kept\n"


def test_simulate_rejects_state_cap(capsys):
    assert _usage_exit(["simulate", "--n", "4", "--state-cap", "10"]) == 2
    assert "--state-cap" in capsys.readouterr().err


def test_verify_rejects_state_cap(capsys):
    assert _usage_exit(["verify", "--n", "4", "--runs", "1", "--state-cap", "10"]) == 2
    assert "--state-cap" in capsys.readouterr().err


def test_parameter_the_variant_ignores_is_usage_error(capsys):
    assert main(["simulate", "--variant", "base", "--r", "3", "--n", "4"]) == 2
    assert "takes no parameter r" in capsys.readouterr().err


def test_simulate_without_n_is_usage_error(capsys):
    assert main(["simulate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--n is required" in captured.err


@pytest.mark.parametrize("n", ["0", "1"])
def test_poset_with_empty_window_passes_grid_check(n, tmp_path, capsys):
    # no site fires: one state, the empty diamond, a DOT without nodes or edges
    report, dot = tmp_path / "r.json", tmp_path / "p.dot"
    assert main(["poset", "--n", n, "--check", "grid", "--report", str(report),
                 "--dot", str(dot)]) == 0
    assert "1 states, check=grid PASS" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["passed"] and data["states_explored"] == 1 and data["diamond_nodes"] == 0
    assert dot.read_text() == "digraph firing_poset {\n}\n"


def test_poset_expgrid_on_base_is_usage_error(capsys):
    assert main(["poset", "--n", "6", "--check", "expgrid"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "needs the exponential variant" in captured.err


def test_explore_with_no_enabled_site(tmp_path, capsys):
    # one chip fits no threshold block: the start is the only state and terminal
    report = tmp_path / "r.json"
    assert main(["explore", "--n", "1", "--report", str(report)]) == 0
    assert "states=1 terminals=1 confluent=True" in capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["terminals"] == [{"0": [0]}] and data["witness"] is None


@pytest.mark.parametrize("code,argv,flags", [
    (0, ["simulate", "--n", "4"], ["--trace", "--report"]),
    (1, ["poset", "--n", "5", "--check", "grid"], ["--dot", "--report"]),
    (2, ["verify", "--n", "4", "--runs", "0"], ["--report"]),
    (2, ["simulate", "--preset", "staircase", "--n", "-1"], ["--trace", "--report"]),
    (3, ["explore", "--n", "8", "--state-cap", "10"], ["--report"])])
@pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
def test_outputs_are_written_only_on_exit_0_or_1(code, argv, flags, exists, tmp_path, capsys):
    """Exit 0 and 1 write every output; a command that exits 2 or 3 after
    its paths were checked leaves an existing file byte-identical and
    creates none."""
    paths = [tmp_path / flag.lstrip("-") for flag in flags]
    if exists:
        for path in paths:
            path.write_bytes(b"old contents\n")
    assert main(argv + [arg for flag, path in zip(flags, paths)
                        for arg in (flag, str(path))]) == code
    if code <= 1:
        assert all(path.read_text().strip() not in ("", "old contents") for path in paths)
    elif exists:
        assert all(path.read_bytes() == b"old contents\n" for path in paths)
    assert sorted(tmp_path.iterdir()) == (sorted(paths) if exists or code <= 1 else [])


@pytest.mark.parametrize("command", ["simulate", "explore"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_staircase_needs_n_at_least_one(command, n, capsys):
    assert main([command, "--preset", "staircase", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: staircase preset needs n >= 1, got {n}\n"
