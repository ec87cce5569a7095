import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import analysis, closedform, explorer, poset
from chipfire.analysis import (CheckerNotApplicableError, check_bounds, check_conservation,
                               diamond_configuration, is_weakly_sorted)
from chipfire.engine import (LabeledConfiguration, LeftmostStrategy, RandomStrategy, Trace,
                             run_to_completion, standard_initial)
from chipfire.variants import (base, exponential, loops_and_edges, loops_everywhere, multi_edge,
                               origin_loops)
import engine_reference
import labeled_reference
from test_checker_violations import _initial
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
        assert check_bounds(_run(base(), 8, seed), ["chip_bounds"]) == {"chip_bounds": []}
    # the lowest chip never leaves the nonpositive half-line
    trace = _run(base(), 10, 3)
    for _, _, after in trace.replay(verify=False):
        for site, chip in after.chips():
            if chip.value == -5:
                assert site <= 0


def test_chip_bounds_single_move():
    trace = run_to_completion(standard_initial(base(), 2), base(), LeftmostStrategy())
    assert check_bounds(trace, ["chip_bounds"]) == {"chip_bounds": []}


def test_chip_bounds_multi_edge():
    for seed in range(20):
        assert check_bounds(_run(multi_edge(2), 8, seed), ["chip_bounds"]) == {"chip_bounds": []}


def test_chip_bounds_hold_for_odd_n_where_sorting_fails():
    # the position bounds do not depend on parity, even though odd runs
    # may terminate unsorted
    unsorted_seen = False
    for seed in range(40):
        trace = _run(base(), 5, seed)
        assert check_bounds(trace, ["chip_bounds"]) == {"chip_bounds": []}
        unsorted_seen = unsorted_seen or not is_weakly_sorted(trace.final_config())
    assert unsorted_seen


def test_chip_bounds_applicability():
    trace = _run(loops_everywhere(), 7, 0)
    with pytest.raises(CheckerNotApplicableError):
        check_bounds(trace, ["chip_bounds"])


def test_chip_bounds_flag_out_of_range_values():
    # a non-canonical initial whose values exceed the +-m window violates the
    # bounds already at the initial scan; the checker must report, not pass
    v = base()
    config = LabeledConfiguration.from_values({0: [-5, 5]})  # n=2 -> m=1
    trace = run_to_completion(config, v, LeftmostStrategy())
    violations = check_bounds(trace, ["chip_bounds"])["chip_bounds"]
    assert violations and violations[0].step == -1


def _chip_bounds_case(rng):
    """Base or multi_edge(2), values within +-(m+3) on sites [-2, 2]."""
    v = rng.choice([base(), multi_edge(2)])
    n = 4 * rng.randint(1, 3) if v.kind == "multi_edge" else rng.randint(2, 12)
    return v, n, 3, 2


def _loop_bounds_case(rng):
    """Loops n = 4m-1, values within +-(m+1) on sites [-1, 1]: nearer their
    limits than a wider spread, so more runs clear their violations."""
    return loops_everywhere(), 4 * rng.randint(1, 3) - 1, 1, 1


# position lemma -> (draws (variant, n, value slack past +-m, site reach),
# its full-scan reference, least runs of 150 whose violations clear)
POSITION_LEMMAS = {
    "chip_bounds": (_chip_bounds_case, engine_reference.check_chip_bounds, 30),
    "loop_bounds": (_loop_bounds_case, engine_reference.check_loop_bounds, 60),
}


def _violating_traces(lemma, count):
    """Seeded random runs in ``lemma``'s scope from initials holding values
    outside their limits, whose full-scan checks report violations."""
    case, reference, _ = POSITION_LEMMAS[lemma]
    rng = random.Random(0)
    while count:
        v, n, slack, reach = case(rng)
        m = closedform.derive_m(v, n)
        occ = {}
        for _ in range(n):
            occ.setdefault(rng.randint(-reach, reach), []).append(
                rng.randint(-m - slack, m + slack))
        trace = run_to_completion(LabeledConfiguration.from_values(occ), v, RandomStrategy(),
                                  seed=rng.randrange(2 ** 32))
        if reference(trace):
            count -= 1
            yield trace


@pytest.mark.parametrize("lemma", list(POSITION_LEMMAS))
def test_position_bounds_match_full_scan_reference(lemma):
    """The position lemmas read on every row of the chip-site table report
    what the full scans of every replayed configuration report."""
    _, reference, least_cleared = POSITION_LEMMAS[lemma]
    cleared = 0
    for trace in _violating_traces(lemma, 150):
        want = [v.to_json() for v in reference(trace)]
        assert [v.to_json() for v in check_bounds(trace, [lemma])[lemma]] == want
        steps = {v["step"] for v in want}
        cleared += any(step not in steps for step in range(min(steps), len(trace)))
    assert cleared >= least_cleared  # violations that clear before the run ends


@pytest.mark.parametrize("lemma", list(POSITION_LEMMAS))
def test_position_bounds_match_full_scan_reference_in_small_blocks(monkeypatch, lemma):
    """The same with table blocks of 37 sites, a few rows each, so that
    violations and clauses are read across block boundaries."""
    monkeypatch.setattr(analysis, "BLOCK_CELLS", 37)
    test_position_bounds_match_full_scan_reference(lemma)


SITE_TABLE_VARIANTS = [(base(), 8), (multi_edge(2), 8), (origin_loops(1), 7),
                       (loops_everywhere(), 11), (loops_and_edges(2), 6), (exponential(1), 8)]


def _site_table_traces():
    """Runs of all six kinds from the origin preset and from the displaced,
    scattered and relabeled initials of ``test_checker_violations``, a
    staircase run, and a run just inside the chip-site table's int64 limit."""
    for variant, n in SITE_TABLE_VARIANTS:
        yield _run(variant, n, 1)
        for seed in range(3):
            initial = _initial(variant, n, f"{variant}-{n}", seed)
            yield run_to_completion(initial, variant, RandomStrategy(), seed=seed)
    yield run_to_completion(standard_initial(base(), 4, "staircase"), base(), RandomStrategy(),
                            seed=2)
    yield _far_run(2 ** 62 - 20)


def _far_run(start):
    """A seeded base n=4 run from all four chips at site ``start``."""
    return run_to_completion(LabeledConfiguration.from_values({start: [-2, -1, 1, 2]}), base(),
                             RandomStrategy(), seed=4)


def _first_attendance(trace):
    """``diamond_configuration`` by replay: each chip's first diamond move
    that finds it at the firing site."""
    final = poset.diamond(trace.variant, trace.initial.total_chips())
    out = {}
    for (before, _, _), site, fire_index in zip(trace.replay(verify=False), trace.log.sites,
                                                trace.log.fire_index_at_site):
        if (site, fire_index) in final:
            for chip in before.occupancy[site]:
                out.setdefault(chip.id, (chip.value, site, fire_index))
    return out


@pytest.mark.parametrize("block", [None, 5, 37], ids=["default", "one-row", "few-rows"])
def test_chip_sites_rows_match_replay(monkeypatch, block):
    """Row t of the chip-site table is the configuration before move t, read
    by chip id, in blocks of ``BLOCK_CELLS`` sites, of one row each or of a
    few rows; and the first diamond attendance carries across blocks."""
    if block:
        monkeypatch.setattr(analysis, "BLOCK_CELLS", block)
    attended = 0
    for trace in _site_table_traces():
        ids = [chip.id for _, chip in analysis._columns(trace)]
        blocks = list(analysis._chip_sites(trace))
        starts = [t0 for t0, _ in blocks]
        rows = np.concatenate([sites for _, sites in blocks])
        assert starts == [0] + list(np.cumsum([len(sites) for _, sites in blocks])[:-1])
        assert rows.dtype == np.int64
        configs = [trace.initial] + [after for _, _, after in trace.replay(verify=False)]
        assert len(rows) == len(configs) == len(trace) + 1
        for row, config in zip(rows.tolist(), configs):
            assert dict(zip(ids, row)) == {chip.id: site for site, chip in config.chips()}
        if block:
            assert len(blocks) == -(-len(rows) // max(1, block // len(ids)))
        if analysis.SCOPES["diamond_config_bounds"](trace.variant, len(ids)):
            want = _first_attendance(trace)
            if len(want) == len(ids):
                assert list(diamond_configuration(trace).items()) == list(want.items())
                attended += 1
            else:
                with pytest.raises(CheckerNotApplicableError,
                                   match=f"only {len(want)} of {len(ids)} chips attended"):
                    diamond_configuration(trace)
    assert attended


def test_chip_bounds_just_inside_the_int64_limit():
    """A run whose sites come within 20 of 2**62 is read in int64 and
    reports what the full scan reports: the 12 violations pinned before the
    chip-site table became int64 only."""
    trace = _far_run(2 ** 62 - 20)
    assert all(sites.dtype == np.int64 for _, sites in analysis._chip_sites(trace))
    found = [v.to_json() for v in check_bounds(trace, ["chip_bounds"])["chip_bounds"]]
    assert found == [v.to_json() for v in engine_reference.check_chip_bounds(trace)]
    assert (len(found), hashlib.sha1(json.dumps(found).encode()).hexdigest()) == (
        12, "848e711dec269c62579362096b4974a33a351d65")


def test_bound_checkers_refuse_a_trace_that_could_leave_int64():
    """A run from 2**62 - 2 makes 5 moves, so its sites could pass 2**62:
    both readers of the chip-site table refuse it before reading a row."""
    trace = _far_run(2 ** 62 - 2)
    with pytest.raises(poset.RepresentationLimitError, match="int64 chip-site table"):
        check_bounds(trace, analysis.applicable_checkers(base(), 4))
    with pytest.raises(poset.RepresentationLimitError, match="int64 chip-site table"):
        diamond_configuration(trace)


def test_bound_checkers_do_not_replay(monkeypatch):
    """``check_bounds`` and ``diamond_configuration`` read the move log only."""
    traces = [_run(base(), 8, 0), _run(loops_everywhere(), 11, 0), _run(multi_edge(2), 8, 0)]

    def refuse(*args, **kwargs):
        raise AssertionError("a bound checker replayed the trace")
    monkeypatch.setattr(Trace, "replay", refuse)
    monkeypatch.setattr(LabeledConfiguration, "apply", refuse)
    for trace in traces:
        names = analysis.applicable_checkers(trace.variant, trace.initial.total_chips())
        assert check_bounds(trace, names) == {name: [] for name in names}
    assert diamond_configuration(traces[1])


def test_diamond_move_bounds_exhaustive_n4():
    count = 0
    for trace in all_complete_traces(standard_initial(base(), 4), base()):
        count += 1
        assert check_bounds(trace, ["diamond_move_bounds"]) == {"diamond_move_bounds": []}
        assert check_bounds(trace, ["chip_bounds"]) == {"chip_bounds": []}
    assert count == 12  # 6 first choices, then a forced move, then 2 orders


def test_diamond_move_bounds_n2():
    trace = run_to_completion(standard_initial(base(), 2), base(), LeftmostStrategy())
    assert check_bounds(trace, ["diamond_move_bounds"]) == {"diamond_move_bounds": []}


def test_diamond_move_bounds_seeds():
    for n in (8, 10):
        for seed in range(25):
            trace = _run(base(), n, seed)
            assert check_bounds(trace, ["diamond_move_bounds"]) == {"diamond_move_bounds": []}


def test_diamond_move_bounds_refuses_trace_without_a_value_it_needs():
    # a base trace whose labels are not -m..-1, 1..m: the first diamond move
    # needs the chip valued -1 or 1, and the n=4 diamond needs -2 and 2
    trace = run_to_completion(LabeledConfiguration.from_values({0: [-5, -1, 1, 5]}),
                              base(), RandomStrategy())
    with pytest.raises(CheckerNotApplicableError, match="needs a chip valued -2"):
        check_bounds(trace, ["diamond_move_bounds"])


@pytest.mark.parametrize("occ,seed,want", [
    ({-1: [2, 1], 0: [-2, -2]}, 81, [{"step": 0, "chip_id": 3, "chip_value": -2, "site": 0,
                                      "lemma": "diamond_move_bounds", "bound": -1}]),
    # reading the first chip valued 2 (id 0) instead would report one violation
    ({0: [2, 2], 1: [2, -1]}, 43, []),
], ids=["two-minus-2", "three-2"])
def test_diamond_move_bounds_reads_last_chip_of_a_shared_value(occ, seed, want):
    """Of several chips sharing a value, the last in ``chips()`` order is read."""
    trace = run_to_completion(LabeledConfiguration.from_values(occ), base(), RandomStrategy(),
                              seed=seed)
    found = check_bounds(trace, ["diamond_move_bounds"])["diamond_move_bounds"]
    assert [v.to_json() for v in found] == want


def test_diamond_move_bounds_applicability():
    with pytest.raises(CheckerNotApplicableError):
        check_bounds(_run(base(), 5, 0), ["diamond_move_bounds"])
    with pytest.raises(CheckerNotApplicableError):
        check_bounds(_run(loops_everywhere(), 7, 0), ["diamond_move_bounds"])


def test_loop_bounds_n3_single_move():
    trace = run_to_completion(standard_initial(loops_everywhere(), 3),
                              loops_everywhere(), LeftmostStrategy())
    assert len(trace) == 1
    assert check_bounds(trace, ["loop_bounds"]) == {"loop_bounds": []}
    # the middle chip stays put: bounds for value 0 at m=1 are [0, 0]
    assert trace.final_config().values_at(0) == (0,)


def test_loop_bounds_seeds():
    for n in (7, 11):
        for seed in range(30):
            trace = _run(loops_everywhere(), n, seed)
            assert check_bounds(trace, ["loop_bounds"]) == {"loop_bounds": []}


def test_loop_bounds_applicability():
    with pytest.raises(CheckerNotApplicableError):
        check_bounds(_run(base(), 4, 0), ["loop_bounds"])
    from chipfire.explorer import adversarial_1mod4
    with pytest.raises(CheckerNotApplicableError):
        check_bounds(adversarial_1mod4(1), ["loop_bounds"])


@pytest.mark.parametrize("lemma,variant,n,states", [
    ("chip_bounds", base(), 8, 11_281),
    ("chip_bounds", base(), 9, 84_793),
    ("loop_bounds", loops_everywhere(), 7, 46),
    ("loop_bounds", loops_everywhere(), 11, 6_271),
], ids=str)
def test_position_limits_hold_on_every_reachable_state(lemma, variant, n, states):
    """Every labeled state the search reaches from the origin preset, each
    mirror class taken with its mirror, keeps every chip within its
    ``_position_limits`` and every ``_extreme_clauses`` clause to one chip."""
    m = analysis._scope_m(lemma, variant, n)
    _, levels, _, mirrored = labeled_reference.search(standard_initial(variant, n), variant)
    rows, visited = np.concatenate([rows for rows, _ in levels]), levels[-1][1]
    if mirrored:
        rows = np.unique(np.concatenate([rows, explorer._mirror(rows)]), axis=0)
    assert len(rows) == visited == states
    sites = (rows >> 8).astype(int) - explorer.KEY_OFFSET
    values = (rows & 0xFF).astype(int) - explorer.KEY_OFFSET
    low = values.min()
    lo, hi = np.array([analysis._position_limits(lemma, m, k)
                       for k in range(low, values.max() + 1)]).T
    assert ((lo[values - low] <= sites) & (sites <= hi[values - low])).all()
    for value, site, sign in analysis._extreme_clauses(lemma, m):
        held = (sign * values >= sign * value) & (sign * sites <= sign * site)
        assert held.sum(axis=1).max() <= 1
    assert bool(analysis._extreme_clauses(lemma, m)) == (lemma == "loop_bounds")


def test_diamond_count_bounds():
    for n in (3, 7, 11):
        for seed in range(30):
            trace = _run(loops_everywhere(), n, seed)
            assert check_bounds(trace, ["diamond_count_bounds"]) == {"diamond_count_bounds": []}


def test_diamond_count_bounds_example_n7():
    # after the single diamond move at site -1 there is at least one chip
    # valued below -1 strictly left of -1
    trace = _run(loops_everywhere(), 7, 5)
    fires = {}
    for (_, _, after), site in zip(trace.replay(verify=False), trace.log.sites):
        fires[site] = fires.get(site, 0) + 1
        if site == -1 and fires[-1] == 1:  # f(-1) = 1, so its only (diamond) move
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
            trace = _run(loops_everywhere(), n, seed)
            assert check_bounds(trace, ["diamond_config_bounds"]) == {"diamond_config_bounds": []}
    # n=3 has no nontrivial (k, l) pairs beyond the vacuous ones
    trace = _run(loops_everywhere(), 3, 0)
    assert check_bounds(trace, ["diamond_config_bounds"]) == {"diamond_config_bounds": []}


def test_diamond_config_bounds_applicability():
    with pytest.raises(CheckerNotApplicableError):
        check_bounds(_run(base(), 4, 0), ["diamond_config_bounds"])


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
    from chipfire.analysis import BoundViolation
    v = BoundViolation(3, 1, -2, 0, "chip_bounds", -1)
    assert v.to_json() == {
        "step": 3, "chip_id": 1, "chip_value": -2, "site": 0,
        "lemma": "chip_bounds", "bound": -1}


SCOPE_VARIANTS = [base(), multi_edge(2), origin_loops(1), origin_loops(2), loops_everywhere(),
                  loops_and_edges(2), exponential(0), exponential(1)]
BOUND_CHECKERS = ["chip_bounds", "diamond_move_bounds", "loop_bounds", "diamond_count_bounds",
                  "diamond_config_bounds"]


@pytest.mark.parametrize("variant", SCOPE_VARIANTS, ids=str)
def test_applicable_checkers_are_those_that_do_not_refuse(variant):
    """Every (variant, n) the closed forms cover, n = 1..12: the listed
    bound checkers are exactly those that run without
    CheckerNotApplicableError.  Conservation has no scope: it applies to
    every trace."""
    covered = 0
    for n in range(1, 13):
        try:
            closedform.fire_count_table(variant, n)
        except closedform.UnsupportedVariantError:
            continue
        covered += 1
        trace = _run(variant, n, 0)
        runs = []
        for name in BOUND_CHECKERS:
            try:
                check_bounds(trace, [name])
            except CheckerNotApplicableError:
                continue
            runs.append(name)
        assert analysis.applicable_checkers(variant, n) == runs, n
    assert covered


def _covered(variant, n) -> bool:
    try:
        closedform.fire_count_table(variant, n)
    except closedform.UnsupportedVariantError:
        return False
    return True


# every (variant, n) the closed forms cover, n = 1..12, for all six kinds
COVERED = [(variant, n) for variant in SCOPE_VARIANTS for n in range(1, 13)
           if _covered(variant, n)]


@given(st.sampled_from(COVERED), st.integers(0, 10_000), st.sampled_from(["random", "leftmost"]))
@settings(max_examples=80, deadline=None)
def test_shared_pass_matches_each_checker_on_origin_runs(case, seed, strategy):
    """One ``check_bounds`` pass over the checkers that apply gives each
    one's own result; adding one that refuses makes the pass refuse."""
    variant, n = case
    trace = run_to_completion(standard_initial(variant, n), variant,
                              RandomStrategy() if strategy == "random" else LeftmostStrategy(),
                              seed=seed)
    single = {}
    for name in BOUND_CHECKERS:
        try:
            single[name] = check_bounds(trace, [name])[name]
        except CheckerNotApplicableError:
            single[name] = None
    names = [name for name, found in single.items() if found is not None]
    assert names == analysis.applicable_checkers(variant, n)
    assert check_bounds(trace, names) == {name: single[name] for name in names}
    if len(names) < len(single):
        with pytest.raises(CheckerNotApplicableError):
            check_bounds(trace, list(single))


def test_check_bounds_takes_bound_checkers_only():
    trace = _run(base(), 4, 0)
    assert check_bounds(trace, []) == {}
    with pytest.raises(ValueError, match="'conservation' is not a bound checker"):
        check_bounds(trace, ["conservation"])


def test_checker_without_closed_form_m_does_not_apply():
    # chip_bounds' scope holds for multi_edge(2), but its m needs n divisible by 4
    variant = multi_edge(2)
    assert analysis.applicable_checkers(variant, 6) == []
    initial = LabeledConfiguration.from_values({0: [-2, -1, -1, 1, 1, 2]})
    trace = run_to_completion(initial, variant, RandomStrategy(), seed=0)
    with pytest.raises(CheckerNotApplicableError):
        check_bounds(trace, ["chip_bounds"])
