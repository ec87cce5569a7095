"""Acceptance suite: one test per criterion, every tolerance exact.

Criteria 1-11 route their engine runs through ``run_checked``, which
verifies chip-count and drift-corrected weighted-sum conservation after
every step and logs the trace; criterion 13 asserts over the full log.
Run with ``pytest -v`` (one line per criterion) or ``-s`` for the explicit
pass lines.
"""

from contextlib import contextmanager

from chipfire import analysis, closedform, explorer, poset
from chipfire.engine import (LeftmostStrategy, RandomStrategy,
                             run_to_completion, standard_initial)
from chipfire.explorer import canonicalize, explore, find_unsorted_terminal
from chipfire.variants import Variant, base, exponential, loops_everywhere, multi_edge, origin_loops
from labeled_reference import successor_outcomes
from poset_reference import chips_at
from trace_enum import all_complete_traces

BASE = base()
LOOPS = loops_everywhere()

# (variant, n) pairs exercised by criteria 1-11; criterion 12 sweeps them all
ACCEPTANCE_GRID = (
    [(BASE, n) for n in (2, 3, 4, 5, 6, 8, 10, 11, 12)]
    + [(multi_edge(2), 8), (multi_edge(2), 12)]
    + [(origin_loops(1), 7), (origin_loops(2), 8)]
    + [(LOOPS, 5), (LOOPS, 7), (LOOPS, 11)]
    + [(exponential(1), 8), (exponential(2), 16)]
)

TRACE_LOG: list = []


def run_checked(variant: Variant, n: int, strategy, seed: int = 0):
    """Run to completion, assert per-step conservation, log for criterion 13."""
    trace = run_to_completion(standard_initial(variant, n), variant, strategy,
                              seed=seed, n=n, preset="origin")
    violations = analysis.check_conservation(trace)
    assert violations == [], f"conservation broken: {violations[:3]}"
    TRACE_LOG.append(trace)
    return trace


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} {name}: FAIL")
        raise
    print(f"criterion {num:02d} {name}: PASS")


def test_criterion_01_sorting_theorem_and_fire_counts():
    with criterion(1, "even-n sorting and triangular fire counts"):
        for n in (2, 4, 6, 8, 10, 12):
            expected = closedform.expected_sorted_terminal(BASE, n)
            counts = closedform.fire_count_table(BASE, n)
            strategies = [("leftmost", LeftmostStrategy, [0]),
                          ("random", RandomStrategy, range(100))]
            for _, strategy_cls, seeds in strategies:
                for seed in seeds:
                    trace = run_checked(BASE, n, strategy_cls(), seed=seed)
                    assert trace.final_config().values_by_site() == expected
                    assert trace.fire_counts() == counts


def test_criterion_02_global_confluence_exhaustive():
    with criterion(2, "exhaustive global confluence, base n=2,4,6,8"):
        for n in (2, 4, 6, 8):
            report = explore(standard_initial(BASE, n), BASE)
            assert report.confluent
            assert dict(report.terminals[0]) == \
                closedform.expected_sorted_terminal(BASE, n)


def test_criterion_02_global_confluence_exhaustive_n10():
    with criterion(2, "exhaustive global confluence, base n=10"):
        report = explore(standard_initial(BASE, 10), BASE)
        assert report.states_visited == 712_024
        assert report.terminal_count == 1 and report.confluent
        assert dict(report.terminals[0]) == \
            closedform.expected_sorted_terminal(BASE, 10)


def test_criterion_03_odd_n_nonconfluence():
    with criterion(3, "odd-n non-confluence with unsorted terminals"):
        for n in (3, 5):
            report = explore(standard_initial(BASE, n), BASE)
            assert report.terminal_count >= 2
            assert len(report.unsorted_terminals()) >= 1
        report = explore(standard_initial(BASE, 3), BASE)
        assert report.terminal_count == 3
        assert report.sorted_terminal_count == 1
        # brute-force oracle: the three pair choices from {-1, 0, 1}
        start = canonicalize(standard_initial(BASE, 3))
        assert set(report.terminals) == successor_outcomes(start, BASE)


def test_criterion_04_grid_structure():
    with criterion(4, "diamond grid structure, even n pass / n=11 witness"):
        for n in (4, 6, 8, 10):
            report = poset.check_grid_structure(poset.reachable_states(BASE, n))
            assert report.passed, report.violations
        report = poset.check_grid_structure(poset.reachable_states(BASE, 11))
        hits = [v for v in report.violations
                if v["node"] == "s0_j1" and v["clause"] == "exact_chips"]
        assert hits and hits[0]["chips"] == 3
        witness = {int(s): c for s, c in hits[0]["witness_state"].items()}
        assert chips_at(witness, 0, BASE, {0: 11}) == 3


def test_criterion_05_poset_bottom_shape_n10():
    with criterion(5, "n=10 Hasse bottom: 25-node diamond plus 6 outward edges"):
        space = poset.reachable_states(BASE, 10)
        p = poset.build_poset(space)
        nodes = {xy: space.move(site, occ_from_start=occ)
                 for (site, occ), xy in poset.diamond(BASE, 10).items()}
        for x, y in [(2, 5), (3, 5), (4, 5), (5, 4), (5, 3), (5, 2)]:
            nodes[(x, y)] = space.move(x - y, occ_from_last=min(x, y) + 1)
        assert len(set(nodes.values())) == 31
        expected = set()
        for x in range(5):
            for y in range(5):
                for up in ((x + 1, y), (x, y + 1)):
                    if up in nodes:
                        expected.add((nodes[up], nodes[(x, y)]))
        assert len(expected) == 46
        nodeset = set(nodes.values())
        actual = {(a, b) for a, b in p.covers if a in nodeset and b in nodeset}
        assert actual == expected


def test_criterion_06_position_bounds():
    with criterion(6, "chip bounds and diamond-move bounds"):
        for trace in all_complete_traces(standard_initial(BASE, 4), BASE):
            for name in ("chip_bounds", "diamond_move_bounds"):
                assert analysis.check_bounds(trace, [name]) == {name: []}
        for n in (8, 10):
            for seed in range(200):
                trace = run_checked(BASE, n, RandomStrategy(), seed=seed)
                for name in ("chip_bounds", "diamond_move_bounds"):
                    assert analysis.check_bounds(trace, [name]) == {name: []}


def test_criterion_07_self_loop_variant():
    with criterion(7, "one-self-loop variant: terminals, counts, all checkers"):
        for n in (7, 11):
            m = (n + 1) // 4
            expected = closedform.expected_sorted_terminal(LOOPS, n)
            counts = closedform.fire_count_table(LOOPS, n)
            assert all(counts[k] == (m - abs(k)) ** 2 for k in counts)
            for seed in range(100):
                trace = run_checked(LOOPS, n, RandomStrategy(), seed=seed)
                assert trace.final_config().values_by_site() == expected
                assert trace.fire_counts() == counts
                for name in ("loop_bounds", "diamond_count_bounds", "diamond_config_bounds"):
                    assert analysis.check_bounds(trace, [name]) == {name: []}
        report = explore(standard_initial(LOOPS, 7), LOOPS)
        assert report.terminal_count == report.sorted_terminal_count


def test_criterion_08_one_mod_four_counterexample():
    with criterion(8, "n=5 self-loop counterexamples, exhaustive and adversarial"):
        initial = standard_initial(LOOPS, 5)
        trace = find_unsorted_terminal(initial, LOOPS, explore(initial, LOOPS))
        assert trace is not None
        assert not analysis.is_weakly_sorted(trace.final_config())
        adv = explorer.adversarial_1mod4(1)
        assert not analysis.is_weakly_sorted(adv.final_config())


def test_criterion_09_multi_edge():
    with criterion(9, "doubled edges: group sorting and base-process fire counts"):
        v = multi_edge(2)
        for n in (8, 12):
            expected = closedform.expected_sorted_terminal(v, n)
            counts = closedform.fire_count_table(v, n)
            base_counts = {k: closedform.total_fires(BASE, n // 2, k) for k in counts}
            assert counts == base_counts
            for seed in range(100):
                trace = run_checked(v, n, RandomStrategy(), seed=seed)
                assert trace.final_config().values_by_site() == expected
                assert trace.fire_counts() == counts
        assert explore(standard_initial(v, 8), v).confluent


def test_criterion_10_origin_loops():
    with criterion(10, "origin self-loops: s chips parked at 0, weakly sorted"):
        for s in (1, 2):
            v = origin_loops(s)
            n = s + 6
            expected = closedform.expected_sorted_terminal(v, n)
            for seed in range(100):
                trace = run_checked(v, n, RandomStrategy(), seed=seed)
                final = trace.final_config()
                assert final.values_by_site() == expected
                assert len(final.chips_at(0)) == s
                assert analysis.is_weakly_sorted(final)


def test_criterion_11_exponential_variant():
    with criterion(11, "exponential edges: counts, terminal, grid, weak sorting"):
        for t in (1, 2):
            v = exponential(t)
            n = 2 ** (t + 2)
            counts = closedform.fire_count_table(v, n)
            assert all(counts[k] == 2 * (t - abs(k)) + 3 for k in counts)
            terminal = closedform.terminal_unlabeled(v, n)
            assert 0 not in terminal
            assert terminal[t + 2] == terminal[-t - 2] == 1
            expected = closedform.expected_sorted_terminal(v, n)
            for seed in range(100):
                trace = run_checked(v, n, RandomStrategy(), seed=seed)
                final = trace.final_config()
                assert trace.fire_counts() == counts
                assert {s: len(vv) for s, vv in final.values_by_site().items()} == terminal
                assert analysis.is_weakly_sorted(final)
                assert final.values_by_site() == expected
            report = poset.check_exponential_grid(poset.reachable_states(v, n))
            assert report.passed, report.violations
        full = explore(standard_initial(exponential(1), 8), exponential(1))
        assert full.terminal_count == full.sorted_terminal_count


def test_criterion_12_flow_balance_identity():
    with criterion(12, "flow-balance identity across the supported grid"):
        for variant, n in ACCEPTANCE_GRID:
            residual = closedform.flow_balance_residual(variant, n)
            assert all(r == 0 for r in residual.values()), (variant, n, residual)


def test_criterion_13_conservation_on_all_logged_traces():
    with criterion(13, "conservation held on every trace from criteria 1-11"):
        if not TRACE_LOG:  # standalone run: generate a representative battery
            for variant, n in ACCEPTANCE_GRID:
                run_checked(variant, n, RandomStrategy(), seed=0)
        assert len(TRACE_LOG) > 0
        # run_checked asserted conservation at generation time; spot-recheck a sample
        for trace in TRACE_LOG[:: max(1, len(TRACE_LOG) // 50)]:
            assert analysis.check_conservation(trace) == []
