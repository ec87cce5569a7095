"""Command-line frontend.

Subcommands: simulate (one run, optional JSON-lines trace), verify (seeded
runs against the closed-form oracles and every applicable checker), poset
(fire-count state space, structure checks, DOT export), explore (exhaustive
labeled search), counterexample (non-sorting witnesses).

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 resource cap.
All randomness flows from a single 64-bit seed through numpy's PCG64; run i
of a multi-run command uses seed + i.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, closedform, explorer, poset
from .engine import (CapExceededError, NonTerminationError, make_strategy,
                     run_to_completion, standard_initial)
from .variants import Variant

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

VARIANT_FLAGS = {
    "base": "base",
    "multi-edge": "multi_edge",
    "origin-loops": "origin_loops",
    "loops": "loops_everywhere",
    "loops-edges": "loops_and_edges",
    "exponential": "exponential",
}


class UsageError(Exception):
    pass


def _build_variant(args) -> tuple[Variant, int]:
    try:
        variant = Variant(VARIANT_FLAGS[args.variant], r=args.r, s=args.s, t=args.t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    n = args.n
    if n is None:
        if variant.kind == "exponential":
            n = 2 ** (variant.t + 2)
        else:
            raise UsageError("--n is required for this variant")
    return variant, n


def _check_outputs(args):
    """A ``--report``, ``--trace`` or ``--dot`` path that cannot be written is
    a usage error, found before any work.  The check leaves each path as it
    was; a command opens its outputs only once its work is done, so one that
    exits 2 or 3 leaves them untouched."""
    for flag in ("report", "trace", "dot"):
        path = getattr(args, flag, None)
        if path:
            existed = os.path.lexists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
            if not existed:
                os.remove(path)


def _write_report(args, report: dict):
    if args.report:
        with open(args.report, "w") as fp:
            fp.write(json.dumps(report, indent=2) + "\n")


def cmd_simulate(args) -> int:
    variant, n = _build_variant(args)
    initial = standard_initial(variant, n, args.preset)
    strategy = make_strategy(args.strategy)
    trace = run_to_completion(initial, variant, strategy, seed=args.seed,
                              n=n, preset=args.preset)
    if args.trace:
        with open(args.trace, "w") as fp:
            trace.write_jsonl(fp)
    final = trace.final_config()
    print(f"variant={variant} n={n} preset={args.preset} strategy={args.strategy} "
          f"seed={args.seed} moves={len(trace)}")
    print("terminal:", json.dumps({str(s): list(v) for s, v in final.values_by_site().items()}))
    print("fires:", json.dumps({str(s): c for s, c in trace.fire_counts().items()}))
    _write_report(args, {
        "terminal": {str(s): list(v) for s, v in final.values_by_site().items()},
        "fires": {str(s): c for s, c in trace.fire_counts().items()},
        "moves": len(trace),
    })
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.runs < 1:
        raise UsageError(f"--runs must be >= 1, got {args.runs}")
    variant, n = _build_variant(args)
    fires_oracle = closedform.fire_count_table(variant, n)
    terminal_oracle = closedform.terminal_unlabeled(variant, n)
    try:
        labeled_oracle = closedform.expected_sorted_terminal(variant, n)
    except closedform.NoSortingTheoremError:
        labeled_oracle = None
    checkers = analysis.applicable_checkers(variant, n)
    runs = []
    ok = True
    for i in range(args.runs):
        seed = args.seed + i
        initial = standard_initial(variant, n)
        strategy = make_strategy(args.strategy)
        trace = run_to_completion(initial, variant, strategy, seed=seed,
                                  n=n, preset="origin")
        final = trace.final_config()
        unlabeled = {s: len(v) for s, v in final.values_by_site().items()}
        detail = {
            "seed": seed,
            "moves": len(trace),
            "fires_ok": trace.fire_counts() == fires_oracle,
            "terminal_unlabeled_ok": unlabeled == terminal_oracle,
            "weakly_sorted": analysis.is_weakly_sorted(final),
            "violations": {},
        }
        if labeled_oracle is not None:
            detail["terminal_labeled_ok"] = final.values_by_site() == labeled_oracle
        for name, checker in checkers:
            detail["violations"][name] = len(checker(trace))
        run_ok = (detail["fires_ok"] and detail["terminal_unlabeled_ok"]
                  and detail.get("terminal_labeled_ok", True)
                  and all(c == 0 for c in detail["violations"].values()))
        detail["ok"] = run_ok
        ok = ok and run_ok
        runs.append(detail)
    report = {
        "variant": variant.to_json(),
        "n": n,
        "preset": "origin",
        "strategy": args.strategy,
        "runs": args.runs,
        "base_seed": args.seed,
        "sorting_oracle_applies": labeled_oracle is not None,
        "passed": ok,
        "run_details": runs,
    }
    _write_report(args, report)
    sorted_runs = sum(r["weakly_sorted"] for r in runs)
    print(f"verify {variant} n={n}: {args.runs} runs, "
          f"{'PASS' if ok else 'FAIL'} (weakly sorted in {sorted_runs}/{args.runs})")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_poset(args) -> int:
    variant, n = _build_variant(args)
    space = poset.reachable_states(variant, n, state_cap=args.state_cap)
    if args.check == "grid":
        report = poset.check_grid_structure(space)
    elif args.check == "expgrid":
        report = poset.check_exponential_grid(space)
    else:
        report = poset.CheckReport("none", [], space.n_states)
    if args.dot:
        with open(args.dot, "w") as fp:
            fp.write(poset.export_dot(poset.build_poset(space)) + "\n")
    _write_report(args, report.to_json())
    print(f"poset {variant} n={n}: {space.n_states} states, check={args.check} "
          f"{'PASS' if report.passed else 'FAIL'} ({len(report.violations)} violations)")
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_explore(args) -> int:
    variant, n = _build_variant(args)
    initial = standard_initial(variant, n, args.preset)
    report = explorer.explore(initial, variant, state_cap=args.state_cap)
    payload = report.to_json()
    if report.witness is not None:
        trace = explorer.find_unsorted_terminal(initial, variant, report=report)
        payload["witness"] = [trace.header_json()] + [rec.to_json() for rec in trace.records]
    _write_report(args, payload)
    print(f"explore {variant} n={n}: states={report.states_visited} "
          f"terminals={report.terminal_count} confluent={report.confluent} "
          f"weakly_sorted_terminals={report.sorted_terminal_count}")
    return EXIT_PASS


def cmd_counterexample(args) -> int:
    if args.case == "odd":
        if args.n is None or args.n % 2 == 0 or args.n < 3:
            raise UsageError("odd case needs odd --n >= 3: no counterexample exists otherwise")
        variant = Variant("base")
        initial = standard_initial(variant, args.n)
        trace = explorer.find_unsorted_terminal(
            initial, variant, state_cap=args.state_cap or poset.DEFAULT_STATE_CAP)
        if trace is None:
            print(f"no unsorted terminal exists for base n={args.n}")
            return EXIT_FAIL
    else:  # loops-1mod4
        if args.n is None or args.n % 4 != 1 or args.n < 5:
            raise UsageError("loops-1mod4 case needs --n = 4m+1 >= 5")
        if args.state_cap is not None:
            raise UsageError("loops-1mod4 case takes no --state-cap: its schedule runs no search")
        m = (args.n - 1) // 4
        trace = explorer.adversarial_1mod4(m)
        if analysis.is_weakly_sorted(trace.final_config()):
            print(f"adversarial schedule at m={m} unexpectedly sorted")
            return EXIT_FAIL
    if args.trace:
        with open(args.trace, "w") as fp:
            trace.write_jsonl(fp)
    final = trace.final_config()
    print(f"counterexample {args.case}: {len(trace)} moves, weakly_sorted=False")
    print("terminal:", json.dumps({str(s): list(v) for s, v in final.values_by_site().items()}))
    _write_report(args, {
        "case": args.case,
        "moves": len(trace),
        "weakly_sorted": False,
        "terminal": {str(s): list(v) for s, v in final.values_by_site().items()},
    })
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Labeled chip-firing on the integer line: simulate, verify, explore.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run=False, preset=True, search=True, variant=True, seed=True):
        """Flags shared by the subcommands: ``run`` adds the strategy of
        engine runs, ``search`` the state cap of the exhaustive searches,
        ``variant`` the graph and its parameters.  Flags are never
        abbreviated, so a flag a subcommand lacks (``counterexample --r``)
        is an error, not a prefix of another (``--report``).  A seed below 0
        or a state cap below 1 is a usage error."""
        p.allow_abbrev = False

        def at_least(low, flag):
            def integer(text):
                value = int(text)
                if value < low:
                    raise UsageError(f"{flag} must be >= {low}, got {value}")
                return value
            return integer

        if variant:
            p.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default="base")
            p.add_argument("--r", type=int, default=1, help="edge multiplicity")
            p.add_argument("--s", type=int, default=0, help="self-loops at the origin")
            p.add_argument("--t", type=int, default=0, help="exponential decay parameter")
        p.add_argument("--n", type=int, default=None, help="number of chips")
        if preset:
            p.add_argument("--preset", choices=["origin", "staircase"], default="origin")
        if seed:
            p.add_argument("--seed", type=at_least(0, "--seed"), default=0)
        if search:
            p.add_argument("--state-cap", type=at_least(1, "--state-cap"),
                           default=poset.DEFAULT_STATE_CAP)
        p.add_argument("--report", type=str, default=None, help="write JSON report here")
        if run:
            p.add_argument("--strategy", choices=["leftmost", "random"], default="random")

    p = sub.add_parser("simulate", help="run once and print the terminal configuration")
    common(p, run=True, search=False)
    p.add_argument("--trace", type=str, default=None, help="write JSON-lines trace here")
    p.set_defaults(func=cmd_simulate)

    # the oracles and checker scopes hold for the origin preset only
    p = sub.add_parser("verify", help="seeded runs against the closed-form oracles")
    common(p, run=True, preset=False, search=False)
    p.add_argument("--runs", type=int, default=100)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("poset", help="fire-count state space and structure checks")
    common(p, preset=False)
    p.add_argument("--check", choices=["grid", "expgrid", "none"], default="none")
    p.add_argument("--dot", type=str, default=None, help="write Hasse diagram DOT here")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("explore", help="exhaustive search over labeled configurations")
    common(p)
    p.set_defaults(func=cmd_explore)

    # each case fixes its own variant and the origin preset, and neither
    # draws random numbers; --state-cap defaults to None here, so the
    # loops-1mod4 case, which runs no search, refuses it
    p = sub.add_parser("counterexample", help="produce a non-sorting witness trace")
    common(p, preset=False, variant=False, seed=False)
    p.add_argument("--case", choices=["odd", "loops-1mod4"], required=True)
    p.add_argument("--trace", type=str, default=None, help="write witness JSON-lines trace here")
    p.set_defaults(func=cmd_counterexample, state_cap=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except (UsageError, closedform.UnsupportedVariantError, explorer.StateKeyLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc} (states_visited={exc.states_visited}, "
              f"level={exc.level}, frontier={exc.frontier})", file=sys.stderr)
        return EXIT_CAP
    except NonTerminationError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
