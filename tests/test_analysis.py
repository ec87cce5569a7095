import random

import pytest

from chipfire import analysis
from chipfire.analysis import (CheckerNotApplicableError, check_chip_bounds,
                               check_conservation, check_diamond_config_bounds,
                               check_diamond_count_bounds, check_diamond_move_bounds,
                               check_loop_bounds, diamond_configuration, is_weakly_sorted,
                               violations_to_json)
from chipfire.engine import (LabeledConfiguration, LeftmostStrategy, RandomStrategy,
                             run_to_completion, standard_initial)
from chipfire import closedform
from chipfire.variants import (base, exponential, loops_and_edges, loops_everywhere, multi_edge,
                               origin_loops)
import engine_reference
from trace_enum import all_complete_traces


def test_is_weakly_sorted():
    assert is_weakly_sorted(LabeledConfiguration.from_values(
        {-2: [-2], -1: [-1], 1: [1], 2: [2]}))
    assert not is_weakly_sorted(LabeledConfiguration.from_values(
        {-1: [1], 0: [3], 1: [2]}))
    assert is_weakly_sorted(LabeledConfiguration.from_values({}))
    assert is_weakly_sorted(LabeledConfiguration.from_values({0: [1, 1], 1: [1]}))
    assert not is_weakly_sorted(LabeledConfiguration.from_values({0: [2], 1: [1]}))


def _run(variant, n, seed):
    return run_to_completion(standard_initial(variant, n), variant,
                             RandomStrategy(), seed=seed)


def test_chip_bounds_base():
    for seed in range(30):
        assert check_chip_bounds(_run(base(), 8, seed)) == []
    # the lowest chip never leaves the nonpositive half-line
    trace = _run(base(), 10, 3)
    for _, _, after in trace.replay(verify=False):
        for site, chip in after.chips():
            if chip.value == -5:
                assert site <= 0


def test_chip_bounds_single_move():
    trace = run_to_completion(standard_initial(base(), 2), base(), LeftmostStrategy())
    assert check_chip_bounds(trace) == []


def test_chip_bounds_multi_edge():
    for seed in range(20):
        assert check_chip_bounds(_run(multi_edge(2), 8, seed)) == []


def test_chip_bounds_hold_for_odd_n_where_sorting_fails():
    # the position bounds do not depend on parity, even though odd runs
    # may terminate unsorted
    unsorted_seen = False
    for seed in range(40):
        trace = _run(base(), 5, seed)
        assert check_chip_bounds(trace) == []
        unsorted_seen = unsorted_seen or not is_weakly_sorted(trace.final_config())
    assert unsorted_seen


def test_chip_bounds_applicability():
    trace = _run(loops_everywhere(), 7, 0)
    with pytest.raises(CheckerNotApplicableError):
        check_chip_bounds(trace)


def test_chip_bounds_flag_out_of_range_values():
    # a non-canonical initial whose values exceed the +-m window violates the
    # bounds already at the initial scan; the checker must report, not pass
    v = base()
    config = LabeledConfiguration.from_values({0: [-5, 5]})  # n=2 -> m=1
    trace = run_to_completion(config, v, LeftmostStrategy())
    violations = check_chip_bounds(trace)
    assert violations and violations[0].step == -1


def _violating_traces(count):
    """Seeded random runs from base and multi_edge(2) initials, holding
    values outside +-m, whose chip-bounds checks report violations."""
    rng = random.Random(0)
    while count:
        v = rng.choice([base(), multi_edge(2)])
        n = 4 * rng.randint(1, 3) if v.kind == "multi_edge" else rng.randint(2, 12)
        m = closedform.derive_m(v, n)
        occ = {}
        for _ in range(n):
            occ.setdefault(rng.randint(-2, 2), []).append(rng.randint(-m - 3, m + 3))
        trace = run_to_completion(LabeledConfiguration.from_values(occ), v, RandomStrategy(),
                                  seed=rng.randrange(2 ** 32))
        if engine_reference.check_chip_bounds(trace):
            count -= 1
            yield trace


def test_chip_bounds_match_full_scan_reference():
    cleared = 0
    for trace in _violating_traces(150):
        want = violations_to_json(engine_reference.check_chip_bounds(trace))
        assert violations_to_json(check_chip_bounds(trace)) == want
        steps = {v["step"] for v in want}
        cleared += any(step not in steps for step in range(min(steps), len(trace)))
    assert cleared >= 30  # violations that clear before the run ends


def test_diamond_move_bounds_exhaustive_n4():
    count = 0
    for trace in all_complete_traces(standard_initial(base(), 4), base()):
        count += 1
        assert check_diamond_move_bounds(trace) == []
        assert check_chip_bounds(trace) == []
    assert count == 12  # 6 first choices, then a forced move, then 2 orders


def test_diamond_move_bounds_n2():
    trace = run_to_completion(standard_initial(base(), 2), base(), LeftmostStrategy())
    assert check_diamond_move_bounds(trace) == []


def test_diamond_move_bounds_seeds():
    for n in (8, 10):
        for seed in range(25):
            assert check_diamond_move_bounds(_run(base(), n, seed)) == []


def test_diamond_move_bounds_refuses_trace_without_a_value_it_needs():
    # a base trace whose labels are not -m..-1, 1..m: the first diamond move
    # needs the chip valued -1 or 1, and the n=4 diamond needs -2 and 2
    trace = run_to_completion(LabeledConfiguration.from_values({0: [-5, -1, 1, 5]}),
                              base(), RandomStrategy())
    with pytest.raises(CheckerNotApplicableError, match="needs a chip valued -2"):
        check_diamond_move_bounds(trace)


def test_diamond_move_bounds_applicability():
    with pytest.raises(CheckerNotApplicableError):
        check_diamond_move_bounds(_run(base(), 5, 0))
    with pytest.raises(CheckerNotApplicableError):
        check_diamond_move_bounds(_run(loops_everywhere(), 7, 0))


def test_loop_bounds_n3_single_move():
    trace = run_to_completion(standard_initial(loops_everywhere(), 3),
                              loops_everywhere(), LeftmostStrategy())
    assert len(trace) == 1
    assert check_loop_bounds(trace) == []
    # the middle chip stays put: bounds for value 0 at m=1 are [0, 0]
    assert trace.final_config().values_at(0) == (0,)


def test_loop_bounds_seeds():
    for n in (7, 11):
        for seed in range(30):
            assert check_loop_bounds(_run(loops_everywhere(), n, seed)) == []


def test_loop_bounds_applicability():
    with pytest.raises(CheckerNotApplicableError):
        check_loop_bounds(_run(base(), 4, 0))
    from chipfire.explorer import adversarial_1mod4
    with pytest.raises(CheckerNotApplicableError):
        check_loop_bounds(adversarial_1mod4(1))


def test_diamond_count_bounds():
    for n in (3, 7, 11):
        for seed in range(30):
            assert check_diamond_count_bounds(_run(loops_everywhere(), n, seed)) == []


def test_diamond_count_bounds_example_n7():
    # after the single diamond move at site -1 there is at least one chip
    # valued below -1 strictly left of -1
    trace = _run(loops_everywhere(), 7, 5)
    fires = {}
    for _, rec, after in trace.replay(verify=False):
        fires[rec.site] = fires.get(rec.site, 0) + 1
        if rec.site == -1 and fires[-1] == 1:  # f(-1) = 1, so its only (diamond) move
            low_left = sum(1 for site, chip in after.chips()
                           if chip.value < -1 and site < -1)
            assert low_left >= 1


def _induced_counts(trace):
    """Chips assigned to each site by the trace's diamond configuration."""
    counts = {}
    for _, site, _ in diamond_configuration(trace).values():
        counts[site] = counts.get(site, 0) + 1
    return dict(sorted(counts.items()))


def test_diamond_configuration_shapes():
    trace = run_to_completion(standard_initial(base(), 2), base(), LeftmostStrategy())
    assert _induced_counts(trace) == {0: 2}

    for trace in all_complete_traces(standard_initial(base(), 4), base()):
        assert set(_induced_counts(trace)) <= {-1, 0, 1}

    trace = _run(loops_everywhere(), 7, 1)
    assert _induced_counts(trace) == {-1: 2, 0: 3, 1: 2}


def test_diamond_config_bounds():
    for n in (7, 11):
        for seed in range(30):
            assert check_diamond_config_bounds(_run(loops_everywhere(), n, seed)) == []
    # n=3 has no nontrivial (k, l) pairs beyond the vacuous ones
    assert check_diamond_config_bounds(_run(loops_everywhere(), 3, 0)) == []


def test_diamond_config_bounds_applicability():
    with pytest.raises(CheckerNotApplicableError):
        check_diamond_config_bounds(_run(base(), 4, 0))


def test_conservation_all_variants():
    cases = [(base(), 8), (multi_edge(2), 8), (loops_everywhere(), 7),
             (exponential(1), 8), (exponential(2), 16)]
    for variant, n in cases:
        for seed in range(5):
            assert check_conservation(_run(variant, n, seed)) == []


def test_conservation_drift_term_exponential():
    # left/right multiplicities differ away from the origin, so the weighted
    # sum really does drift; the checker accounts for it exactly
    variant = exponential(2)
    trace = _run(variant, 16, 1)
    drifts = {s: variant.site_row(s)[2] - variant.site_row(s)[0] for s in range(-4, 5)}
    assert any(d != 0 for d in drifts.values())
    assert check_conservation(trace) == []


def test_violation_json_shape():
    from chipfire.analysis import BoundViolation, violations_to_json
    v = BoundViolation(3, 1, -2, 0, "chip_bounds", -1)
    assert violations_to_json([v]) == [{
        "step": 3, "chip_id": 1, "chip_value": -2, "site": 0,
        "lemma": "chip_bounds", "bound": -1}]


SCOPE_VARIANTS = [base(), multi_edge(2), origin_loops(1), origin_loops(2), loops_everywhere(),
                  loops_and_edges(2), exponential(0), exponential(1)]
ALL_CHECKERS = [
    ("conservation", check_conservation),
    ("chip_bounds", check_chip_bounds),
    ("diamond_move_bounds", check_diamond_move_bounds),
    ("loop_bounds", check_loop_bounds),
    ("diamond_count_bounds", check_diamond_count_bounds),
    ("diamond_config_bounds", check_diamond_config_bounds),
]


@pytest.mark.parametrize("variant", SCOPE_VARIANTS, ids=str)
def test_applicable_checkers_are_those_that_do_not_refuse(variant):
    """Every (variant, n) the closed forms cover, n = 1..12: the listed
    checkers are exactly those that run without CheckerNotApplicableError."""
    covered = 0
    for n in range(1, 13):
        try:
            closedform.fire_count_table(variant, n)
        except closedform.UnsupportedVariantError:
            continue
        covered += 1
        trace = _run(variant, n, 0)
        runs = []
        for name, checker in ALL_CHECKERS:
            try:
                checker(trace)
            except CheckerNotApplicableError:
                continue
            runs.append(name)
        assert [name for name, _ in analysis.applicable_checkers(variant, n)] == runs, n
    assert covered


def test_checker_without_closed_form_m_does_not_apply():
    # chip_bounds' scope holds for multi_edge(2), but its m needs n divisible by 4
    variant = multi_edge(2)
    assert [name for name, _ in analysis.applicable_checkers(variant, 6)] == ["conservation"]
    initial = LabeledConfiguration.from_values({0: [-2, -1, -1, 1, 1, 2]})
    trace = run_to_completion(initial, variant, RandomStrategy(), seed=0)
    with pytest.raises(CheckerNotApplicableError):
        check_chip_bounds(trace)
