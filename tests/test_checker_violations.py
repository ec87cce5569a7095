"""Every checker's outcome on traces and spaces that break its bounds, pinned.

The seeded runs elsewhere start from the origin preset and so never reach a
violation branch.  Here runs start from displaced, out-of-window and
relabeled initials, every checker is applied to every trace (in scope or
not), and each checker's violation lists and refusals are pinned by SHA-1.
The conservation lemmas and the clauses of both grid checks cannot be
broken by real dynamics, so they are reached through a tampered ``apply``
and tampered fire-count spaces.
"""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from chipfire import analysis, closedform, poset
from chipfire.engine import ChipFiringError, LabeledConfiguration, RandomStrategy, run_to_completion
from chipfire.variants import (base, exponential, loops_and_edges, loops_everywhere, multi_edge,
                               origin_loops)

CASES = {
    "base-8": (base(), 8),
    "multi-edge-r2-8": (multi_edge(2), 8),
    "loops-3": (loops_everywhere(), 3),
    "loops-5": (loops_everywhere(), 5),
    "loops-7": (loops_everywhere(), 7),
    "loops-11": (loops_everywhere(), 11),
    "origin-loops-s1-7": (origin_loops(1), 7),
    "loops-edges-r2-6": (loops_and_edges(2), 6),
    "exponential-t1-8": (exponential(1), 8),
}
SEEDS = range(72)


def _bound(name):
    """Bound checker ``name`` alone: ``check_bounds`` with that one name."""
    return lambda trace: analysis.check_bounds(trace, [name])[name]


CHECKERS = {
    "conservation": analysis.check_conservation,
    "chip_bounds": _bound("chip_bounds"),
    "diamond_move_bounds": _bound("diamond_move_bounds"),
    "loop_bounds": _bound("loop_bounds"),
    "diamond_count_bounds": _bound("diamond_count_bounds"),
    "diamond_config_bounds": _bound("diamond_config_bounds"),
}

# checker -> (traces with violations, SHA-1 of every violation list, SHA-1
# of every refusal): both hashes run over (case, seed, outcome) in order
PINNED = {
    "conservation": (0, "a0c9b3ea59405fa75800ebfdc1bff6bd089dd259",
                    "97d170e1550eee4afc0af065b78cda302a97674c"),
    "chip_bounds": (138, "2720071456921dcc40311a0b6c6cddebe828f708",
                   "63d736aa2de59786f7b1cc349a8c4f856b7dab71"),
    # refusals were a bare KeyError on 48 base-8 traces before the checker
    # named the missing value (SHA-1 4b82cf1f746ece7cbb0dabc6a5bd2b77567ab28f)
    "diamond_move_bounds": (8, "d295cb0613ba4fd97c948393795f3acff2325c75",
                           "c45c22f2c7a6f01d60386108cd699ad512aa710c"),
    "loop_bounds": (200, "17eba63c80d6133c784fd5b0152658f333239322",
                   "13f8b29ce14a97b21f14689e9ef81f4d8325015c"),
    "diamond_count_bounds": (56, "bc761b31ab3df5da860c29c7cfbc7ce2bfb76c90",
                            "208c9e0f8b09281c2d65e2f4c9d382263d8af2bb"),
    # 133 refusals ("only k of n chips attended a diamond move") were a bare
    # ChipFiringError before diamond_configuration raised
    # CheckerNotApplicableError (SHA-1 8cd1eaae17249bd1a6ebc18688c7711a7dd81349)
    "diamond_config_bounds": (3, "c66247c922c57b8187574686179118250be7f921",
                             "35d2e7f0d5c8f355905842c91d3daef4b989ce8a"),
}


def _initial(variant, n, name, seed) -> LabeledConfiguration:
    """Three kinds by ``seed % 3``: the canonical labels scattered over
    [-m-1, m+1]; n values drawn from [-2m-2, 2m+2] (repeats allowed) on
    [-1, 1]; all chips at the origin, as in the origin preset, with a third
    of the canonical labels redrawn from [-2m-2, 2m+2]."""
    rng = random.Random(f"{name}-{seed}")
    m = closedform.derive_m(variant, n)
    values = list(closedform.canonical_labels(variant, n))
    kind = seed % 3
    if kind == 1:
        values = [rng.randint(-2 * m - 2, 2 * m + 2) for _ in range(n)]
    elif kind == 2:
        for i in rng.sample(range(n), max(1, n // 3)):
            values[i] = rng.randint(-2 * m - 2, 2 * m + 2)
    reach = (m + 1, 1, 0)[kind]
    by_site: dict[int, list[int]] = {}
    for value in values:
        by_site.setdefault(rng.randint(-reach, reach), []).append(value)
    return LabeledConfiguration.from_values(by_site)


def _traces():
    """(case, seed) -> the run from ``_initial``, in CASES and SEEDS order."""
    return {(case, seed): run_to_completion(_initial(variant, n, case, seed), variant,
                                            RandomStrategy(), seed=seed, move_cap=10 ** 5)
            for case, (variant, n) in CASES.items() for seed in SEEDS}


def _outcomes(traces):
    """checker -> [(case, seed, violation list or refusal text)]."""
    out = {name: [] for name in CHECKERS}
    for (case, seed), trace in traces.items():
        for name, checker in CHECKERS.items():
            try:
                result = [v.to_json() for v in checker(trace)]
            except ChipFiringError as exc:
                result = f"{type(exc).__name__}: {exc}"
            out[name].append((case, seed, result))
    return out


def _sha1(items) -> str:
    return hashlib.sha1(json.dumps(items, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def traces():
    return _traces()


@pytest.fixture(scope="module")
def outcomes(traces):
    return _outcomes(traces)


@pytest.mark.parametrize("name", list(CHECKERS))
def test_checker_outcomes_pinned(outcomes, name):
    lists = [o for o in outcomes[name] if isinstance(o[2], list)]
    refusals = [o for o in outcomes[name] if isinstance(o[2], str)]
    assert (sum(1 for o in lists if o[2]), _sha1(lists), _sha1(refusals)) == PINNED[name]


def test_every_violation_branch_is_reached(outcomes):
    lemmas = {v["lemma"] for name in CHECKERS for _, _, result in outcomes[name]
              if isinstance(result, list) for v in result}
    assert lemmas >= {"chip_bounds", "diamond_move_bounds", "loop_bounds",
                      "loop_bounds_extremes", "diamond_count_bounds"}


def test_out_of_scope_checkers_refuse(outcomes):
    """A bound checker applied outside its scope refuses with
    CheckerNotApplicableError; conservation has no scope."""
    for name in analysis.SCOPES:
        for case, _, result in outcomes[name]:
            variant, n = CASES[case]
            if not analysis.SCOPES[name](variant, n):
                assert isinstance(result, str) and result.startswith(
                    "CheckerNotApplicableError: "), (name, case, result)


def test_shared_pass_matches_each_checker(traces, outcomes):
    """``check_bounds`` over the bound checkers in a trace's scope gives each
    checker's own violation list when none of them refuses, and refuses when
    one does."""
    bounds = [name for name in CHECKERS if name != "conservation"]
    single = {(case, seed, name): result
              for name in bounds for case, seed, result in outcomes[name]}
    compared = refused = 0
    for (case, seed), trace in traces.items():
        variant, n = CASES[case]
        names = [name for name in bounds if analysis.SCOPES[name](variant, n)]
        if any(isinstance(single[case, seed, name], str) for name in names):
            with pytest.raises(analysis.CheckerNotApplicableError):
                analysis.check_bounds(trace, names)
            refused += 1
        else:
            shared = analysis.check_bounds(trace, names)
            assert {name: [v.to_json() for v in found] for name, found in shared.items()} == {
                name: single[case, seed, name] for name in names}, (case, seed)
            compared += 1
    assert compared and refused


_REAL_APPLY = LabeledConfiguration.apply


def _tampered_apply(monkeypatch, at_call, tamper):
    """``apply`` returns ``tamper(child)`` on call ``at_call`` only; the call
    after it continues from the real child, so exactly one step is off."""
    calls = itertools.count()
    swapped = []

    def apply(self, variant, site, chosen_ids):
        if swapped and self is swapped[0][0]:
            self = swapped.pop()[1]
        child = _REAL_APPLY(self, variant, site, chosen_ids)
        if next(calls) == at_call:
            fake = tamper(child)
            swapped.append((fake, child))
            return fake
        return child
    monkeypatch.setattr(LabeledConfiguration, "apply", apply)


def _drop_last_chip(config):
    occ = dict(config.occupancy)
    site = max(occ)
    occ[site] = occ[site][:-1]
    return LabeledConfiguration(occ)


def _shift_last_chip(config):
    occ = {site: list(chips) for site, chips in config.occupancy.items()}
    site = max(occ)
    occ.setdefault(site + 1, []).append(occ[site].pop())
    return LabeledConfiguration(occ)


@pytest.mark.parametrize("variant,n", [(base(), 8), (loops_everywhere(), 7), (exponential(1), 8)],
                         ids=str)
def test_conservation_flags_the_tampered_step(monkeypatch, variant, n):
    trace = run_to_completion(_initial(variant, n, "tamper", 0), variant, RandomStrategy(), seed=3)
    k = len(trace) // 2
    sites = trace.log.sites
    total0, weighted0 = trace.initial.total_chips(), trace.initial.weighted_sum()
    drift = sum(variant.site_row(site)[2] - variant.site_row(site)[0] for site in sites[:k + 1])
    after = [a for _, _, a in trace.replay(verify=False)][k]
    high = max(after.occupancy)

    _tampered_apply(monkeypatch, k, _drop_last_chip)
    want = [{"step": k, "chip_id": None, "chip_value": None, "site": sites[k],
             "lemma": "chip_conservation", "bound": total0}]
    if high != 0:
        want.append({"step": k, "chip_id": None, "chip_value": None, "site": sites[k],
                     "lemma": "weighted_sum", "bound": weighted0 + drift})
    assert [v.to_json() for v in analysis.check_conservation(trace)] == want

    _tampered_apply(monkeypatch, k, _shift_last_chip)
    assert [v.to_json() for v in analysis.check_conservation(trace)] == [
        {"step": k, "chip_id": None, "chip_value": None, "site": sites[k],
         "lemma": "weighted_sum", "bound": weighted0 + drift}]


def _extra_chip(space, site):
    initial = space.initial.copy()
    initial[space.sites.index(site)] += 1
    return dataclasses.replace(space, initial=initial)


def _precedes_except(occ_from_start):
    """The real test, except that no move precedes a move with this start index."""
    real = poset.FireCountSpace.precedes
    return lambda self, a, b: b.occ_from_start != occ_from_start and real(self, a, b)


# grid check -> tamper -> SHA-1 of the report
TAMPERED_PINS = {
    ("expgrid", "extra-chip"): "1de131ba86f587ae7ec11a0e9094757715bd1cbe",
    ("expgrid", "precedes"): "4504a9a8bb321b04efe807c860d0792ed1d2628d",
    ("grid", "extra-chip"): "c2f115538679431e7f09aa153bd3ca13199a13ee",
    ("grid", "precedes"): "fd0a518daf4172b807d6760f2e1c7f47b71c8d30",
}


@pytest.mark.parametrize("check,tamper", list(TAMPERED_PINS))
def test_tampered_space_reports_pinned(monkeypatch, check, tamper):
    if check == "expgrid":
        space, run = poset.reachable_states(exponential(1), 8), poset.check_exponential_grid
    else:
        space, run = poset.reachable_states(base(), 8), poset.check_grid_structure
    if tamper == "extra-chip":
        space = _extra_chip(space, 1)
        clauses = {"exact_chips"}
    else:
        monkeypatch.setattr(poset.FireCountSpace, "precedes", _precedes_except(3))
        clauses = {"sandwich_lower", "sandwich_upper"} if check == "expgrid" else {"precedence"}
    report = run(space)
    assert {v["clause"] for v in report.violations} == clauses
    assert _sha1(report.to_json()) == TAMPERED_PINS[check, tamper]


def test_expgrid_reports_the_reading_that_holds(monkeypatch):
    """A precedence test that fails only pairs two start indices apart breaks
    the from-start reading's upper clause and none of the from-last reading's
    pairs, so the from-last reading is reported as canonical."""
    monkeypatch.setattr(poset.FireCountSpace, "precedes",
                        lambda self, a, b: b.occ_from_start != a.occ_from_start + 2)
    report = poset.check_exponential_grid(poset.reachable_states(exponential(1), 8))
    assert report.passed
    assert [report.details[k] for k in ("sandwich_ok_from_start", "sandwich_ok_from_last",
                                        "canonical_indexing")] == [False, True, "occ_from_last"]
