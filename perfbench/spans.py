"""Per-layer spans for the benchmark's traced iterations.

Tracing lives in the benchmark, not in the program: ``instrumented`` replaces
public functions and methods of the chipfire layers with wrappers that time
each call, then puts the originals back.  A function is wrapped where the
program looks it up, not where it is defined: ``chipfire.cli`` imports
``run_to_completion`` by name, so the wrapper goes on
``chipfire.cli.run_to_completion``; methods are looked up on their class, so
they are wrapped there.  Private names (``_kernels`` and the explorer's
helpers) are never touched, so their time shows up as self time of the
public span that called them.

Spans are aggregated as they close instead of being stored one by one,
because the engine makes hundreds of thousands of calls per iteration.  A
span's self time is its duration minus the time covered by its child spans;
the self times of all spans add up to the time covered by the outermost
spans, so whatever an iteration spends outside every span is an explicit
remainder.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import defaultdict

from chipfire import analysis, cli, closedform, engine, explorer, poset, variants

LAYERS = ("cli", "engine", "closedform", "analysis", "explorer", "poset")


class Tracer:
    """Calls, inclusive seconds and self seconds per span name, plus tallies."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.tallies: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, seconds covered by children]

    def _open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        self.inclusive[frame[0]] += duration
        self.self_time[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def _inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def span(self, name: str, fn, tally=None):
        """Wrap ``fn`` in a span; ``tally(result)`` returns (counter, amount).

        A call made while a span of the same name is open is part of that
        span, so a closed-form oracle calling another one counts once.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._inside(name):
                return fn(*args, **kwargs)
            self.calls[name] += 1
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if tally is not None:
                key, amount = tally(result)
                self.tallies[key] += amount
            return result
        return wrapper

    def generator_span(self, name: str, fn):
        """Wrap a generator function: one call per generator, one span per step."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return self._steps(name, fn(*args, **kwargs))
        return wrapper

    def _steps(self, name: str, steps):
        while True:
            frame = self._open(name)
            try:
                item = next(steps)
            except StopIteration:
                return
            finally:
                self._close(frame)
            yield item

    def counter(self, name: str, fn):
        """Count calls without timing them, for functions too small to time."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0]] += seconds
        return out


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if isinstance(obj, types.FunctionType) and not name.startswith("_")
            and obj.__module__ == module.__name__]


def _moves(trace):
    return "engine.moves", len(trace)


def _states_visited(report):
    return "explorer.states_visited", report.states_visited


def _n_states(space):
    return "poset.n_states", space.n_states


def _targets():
    """(owner, attribute, span name, kind, tally) for every traced lookup site."""
    config, trace = engine.LabeledConfiguration, engine.Trace
    out = [
        (cli, "main", "cli.main", "call", None),
        (cli, "run_to_completion", "engine.run", "call", _moves),
        (explorer, "run_to_completion", "engine.run", "call", _moves),
        (cli, "standard_initial", "engine.initial", "call", None),
        (explorer, "standard_initial", "engine.initial", "call", None),
        (config, "apply", "engine.apply", "call", None),
        (config, "enabled_sites", "engine.enabled_sites", "call", None),
        (trace, "replay", "engine.replay", "generator", None),
        (trace, "write_jsonl", "engine.trace_write", "call", None),
        (trace, "read_jsonl", "engine.trace_read", "classmethod", None),
        (trace, "final_config", "engine.trace_query", "call", None),
        (trace, "fire_counts", "engine.trace_query", "call", None),
        (variants.Variant, "threshold", "variants.threshold", "counter", None),
        (explorer, "explore", "explorer.explore", "call", _states_visited),
        (explorer, "find_unsorted_terminal", "explorer.witness", "call", None),
        (poset, "reachable_states", "poset.reachable", "call", _n_states),
        (poset, "build_poset", "poset.build", "call", None),
        (poset, "check_grid_structure", "poset.check", "call", None),
        (poset, "check_exponential_grid", "poset.check", "call", None),
        (poset, "export_dot", "poset.dot", "call", None),
        (analysis, "is_weakly_sorted", "analysis.sorted", "call", None),
        (analysis, "check_conservation", "analysis.conservation", "call", None),
    ]
    for name, obj in vars(engine).items():
        if (isinstance(obj, type) and issubclass(obj, engine.Strategy)
                and "choose" in vars(obj)):
            out.append((obj, "choose", "engine.choose", "call", None))
    for name in _public_functions(analysis):
        if ((name.startswith("check_") and name != "check_conservation")
                or name == "diamond_configuration"):
            out.append((analysis, name, "analysis.check", "call", None))
    for name in _public_functions(closedform):
        out.append((closedform, name, "closedform.oracle", "call", None))
    return out


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every traced lookup site through ``tracer`` until the block exits."""
    saved = []
    try:
        for owner, attr, name, kind, tally in _targets():
            original = vars(owner)[attr]
            if kind == "call":
                wrapped = tracer.span(name, original, tally)
            elif kind == "generator":
                wrapped = tracer.generator_span(name, original)
            elif kind == "classmethod":
                wrapped = classmethod(tracer.span(name, original.__func__))
            else:
                wrapped = tracer.counter(name, original)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
