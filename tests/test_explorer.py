from itertools import combinations

import numpy as np
import pytest

import engine_reference
import labeled_reference
from labeled_reference import successor_outcomes
from chipfire import analysis, closedform, explorer
from chipfire.engine import (CapExceededError, ChipFiringError, LabeledConfiguration,
                             RandomStrategy, run_to_completion, standard_initial)
from chipfire.explorer import adversarial_1mod4, canonicalize, explore, find_unsorted_terminal
from chipfire.variants import (Variant, base, exponential, loops_and_edges, loops_everywhere,
                               multi_edge, origin_loops)

# every variant at an n its standard initial configuration supports
SIX_VARIANTS = [(base(), 8), (multi_edge(2), 8), (origin_loops(2), 6), (loops_everywhere(), 7),
                (loops_and_edges(2), 6), (exponential(0), 4), (exponential(1), 8)]
REPEATED_VALUES = {0: [1, 1, 2, 3, 3, 3, 4, 5, 5, 6]}


def test_successor_outcomes_three_chips():
    state = canonicalize(LabeledConfiguration.from_values({0: [1, 2, 3]}))
    got = successor_outcomes(state, base())
    want = {
        ((-1, (1,)), (0, (3,)), (1, (2,))),
        ((-1, (1,)), (0, (2,)), (1, (3,))),
        ((-1, (2,)), (0, (1,)), (1, (3,))),
    }
    assert got == want


def test_successor_outcomes_equal_values_merge():
    state = canonicalize(LabeledConfiguration.from_values({0: [5, 5]}))
    assert len(successor_outcomes(state, base())) == 1
    state = canonicalize(LabeledConfiguration.from_values({0: [1, 2]}))
    assert successor_outcomes(state, base()) == {((-1, (1,)), (1, (2,)))}


def test_explore_base_even_confluent():
    for n in (2, 4, 6):
        rep = explore(standard_initial(base(), n), base())
        assert rep.confluent
        assert dict(rep.terminals[0]) == closedform.expected_sorted_terminal(base(), n)
        assert rep.sorted_terminal_count == 1


def test_explore_base_n3():
    rep = explore(standard_initial(base(), 3), base())
    assert rep.terminal_count == 3
    assert rep.sorted_terminal_count == 1


def test_explore_base_n5_nonconfluent():
    rep = explore(standard_initial(base(), 5), base())
    assert rep.terminal_count >= 2
    assert rep.sorted_terminal_count >= 1
    assert len(rep.unsorted_terminals()) >= 1
    # every terminal projects to the unique unlabeled terminal
    unlabeled = closedform.terminal_unlabeled(base(), 5)
    for t in rep.terminals:
        assert {s: len(v) for s, v in t} == unlabeled


def test_explore_loops_n7_all_sorted():
    rep = explore(standard_initial(loops_everywhere(), 7), loops_everywhere())
    assert rep.terminal_count == rep.sorted_terminal_count


def test_explore_cap():
    with pytest.raises(CapExceededError) as err:
        explore(standard_initial(base(), 6), base(), state_cap=5)
    assert err.value.states_visited > 5
    assert (err.value.level, err.value.frontier) == (1, 1)
    # levels of base n=6 hold 1, 15, 30, ... states: level 2 crosses 40
    with pytest.raises(CapExceededError) as err:
        explore(standard_initial(base(), 6), base(), state_cap=40)
    assert (err.value.states_visited, err.value.level, err.value.frontier) == (46, 2, 15)


def test_explore_refuses_rows_with_too_many_combinations():
    variant = exponential(3)  # 32 chips, threshold 16 at the origin: C(32, 16) > 6e8
    with pytest.raises(CapExceededError, match="column combinations") as err:
        explore(standard_initial(variant, 32), variant)
    assert (err.value.level, err.value.frontier) == (0, 1)


def test_find_unsorted_terminal_witness_replays():
    initial = standard_initial(base(), 3)
    trace = find_unsorted_terminal(initial, base(), explore(initial, base()))
    assert trace is not None and len(trace) == 1
    assert not analysis.is_weakly_sorted(trace.final_config())
    list(trace.replay(verify=True))

    initial = standard_initial(loops_everywhere(), 5)
    trace = find_unsorted_terminal(initial, loops_everywhere(),
                                   explore(initial, loops_everywhere()))
    assert trace is not None
    assert not analysis.is_weakly_sorted(trace.final_config())


def test_find_unsorted_terminal_replays_a_given_report(monkeypatch):
    initial = standard_initial(base(), 5)
    report = explore(initial, base())
    monkeypatch.setattr(explorer, "_levels", None)  # no second search
    given = find_unsorted_terminal(initial, base(), report)
    assert [(site, values) for site, _, values, _, _ in engine_reference.moves(given)] == \
        report.witness


def test_find_unsorted_terminal_refuses_a_witness_longer_than_its_run():
    initial = standard_initial(base(), 5)
    report = explore(initial, base())
    moves = len(report.witness)
    report.witness.append(report.witness[-1])  # the run ends before this move
    with pytest.raises(ChipFiringError,
                       match=f"witness of {moves + 1} moves replayed to a terminal after {moves} "):
        find_unsorted_terminal(initial, base(), report)


def test_find_unsorted_terminal_none_for_even():
    initial = standard_initial(base(), 4)
    assert find_unsorted_terminal(initial, base(), explore(initial, base())) is None


def _id_level_terminals(initial, variant):
    """Reference exploration keeping chip ids, then erasing them at the end."""
    seen = set()
    terminals = set()
    stack = [initial]
    while stack:
        config = stack.pop()
        key = tuple(sorted((s, c) for s, c in config.chips()))
        if key in seen:
            continue
        seen.add(key)
        enabled = config.enabled_sites(variant)
        if not enabled:
            terminals.add(canonicalize(config))
            continue
        for site in enabled:
            ids = sorted(c.id for c in config.chips_at(site))
            for chosen in combinations(ids, variant.threshold(site)):
                stack.append(config.apply(variant, site, chosen))
    return terminals


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonicalization_soundness_vs_id_level(n):
    initial = standard_initial(base(), n)
    rep = explore(initial, base())
    assert set(rep.terminals) == _id_level_terminals(initial, base())


def _random_reachable(initial, variant, seeds):
    """Configurations along seeded random runs from ``initial``."""
    out = [initial]
    for seed in seeds:
        trace = run_to_completion(initial, variant, RandomStrategy(), seed=seed)
        out += [after for _, _, after in trace.replay(verify=False)]
    return out


def test_explorer_agrees_with_engine_choices():
    """The level expansion against the per-state reference and the engine, all six variants.

    On random reachable states the children equal the reference's and those
    of applying every legal id-subset, and each child's ``parents`` include
    the state and are, every one of them, parents of the child by the
    reference's first move.
    """
    for variant, n in SIX_VARIANTS:
        for initial in (standard_initial(variant, n),
                        LabeledConfiguration.from_values(REPEATED_VALUES)):
            for config in _random_reachable(initial, variant, seeds=(0, 1, 2)):
                state = canonicalize(config)
                first = labeled_reference.first_moves(state, variant)
                applied = set()
                for site in config.enabled_sites(variant):
                    ids = sorted(c.id for c in config.chips_at(site))
                    for chosen in combinations(ids, variant.threshold(site)):
                        applied.add(canonicalize(config.apply(variant, site, chosen)))
                assert successor_outcomes(state, variant) == set(first) == applied
                table = explorer._MoveTable(variant, explorer._row(state).size)
                for child, move in first.items():
                    before, moves = table.parents(explorer._row(child))
                    got = {explorer._state(p): m for p, m in zip(before, moves, strict=True)}
                    assert len(got) == len(before) and got[state] == move
                    # every row returned is a parent, with the reference's first move
                    for parent, parent_move in got.items():
                        assert labeled_reference.first_moves(parent, variant)[child] == parent_move


class _Lopsided(Variant):
    """Two edges to the right of every positive site: not mirror symmetric."""

    def site_row(self, site):
        return (1, 0, 2, 3) if site > 0 else (1, 0, 1, 2)


def _assert_levels_match_reference(variant, initial, mirrored):
    """Every level's rows, with their mirrors when the search keeps one row
    per mirror class, are as big-endian bytes the reference's sorted byte
    keys (``labeled_reference.key``).  For every row of every level,
    ``parents`` lists, among the previous level's rows, exactly those whose
    reference successors reach it, ascending and each with the reference's
    first move, and the walk's step back (``_step_back``) goes to the
    reference's first-occurrence parent by that parent's first move."""
    _, searched, moves, quotiented = labeled_reference.search(initial, variant)
    assert quotiented == mirrored
    levels, visited = [rows for rows, _ in searched], searched[-1][1]
    want_keys, want_parents = labeled_reference.levels(canonicalize(initial), variant)
    if mirrored:
        full = [np.unique(np.concatenate([level, explorer._mirror(level)]), axis=0)
                for level in levels]
    else:
        full = levels
    assert [[row.astype(">u2").tobytes() for row in level] for level in full] == want_keys
    for li in range(1, len(levels)):
        keys = explorer._level_keys(levels[li - 1])
        index = {key: i for i, key in enumerate(want_keys[li - 1])}
        reaching = {}  # child key -> {parent key: the parent's first move to the child}
        for parent in full[li - 1]:
            pkey = parent.astype(">u2").tobytes()
            for child, move in labeled_reference.first_moves(
                    explorer._state(parent), variant).items():
                reaching.setdefault(labeled_reference.key(child), {})[pkey] = move
        for r, (ckey, row) in enumerate(zip(want_keys[li], full[li])):
            before, first = moves.parents(row)
            held = [(key, move) for key, move in zip(
                (p.astype(">u2").tobytes() for p in before), first) if key in index]
            assert [key for key, _ in held] == sorted(reaching[ckey])
            assert dict(held) == reaching[ckey]
            parent, move = explorer._step_back(keys, moves, mirrored, row)
            pkey = parent.astype(">u2").tobytes()
            assert index[pkey] == want_parents[li][r]
            assert move == reaching[ckey][pkey]
    assert visited == sum(map(len, want_keys))


@pytest.mark.parametrize("variant,n", [(base(), 7), (loops_everywhere(), 9),
                                       (origin_loops(2), 6), (exponential(1), 8)])
def test_levels_match_reference_bfs(variant, n):
    """Origin presets are searched one mirror class at a time; origin_loops
    and exponential mix thresholds."""
    _assert_levels_match_reference(variant, standard_initial(variant, n), mirrored=True)


@pytest.mark.parametrize("case", ["staircase-1", "staircase-2", "staircase-3", "hand-made",
                                  "lopsided-5"])
def test_unquotiented_levels_match_reference_bfs(case):
    """Starts that are not their own mirror, and a variant that is not
    mirror symmetric, are searched whole."""
    variant, initial = base(), standard_initial(base(), 5)
    if case.startswith("staircase"):
        initial = standard_initial(base(), int(case[-1]), "staircase")
    elif case == "hand-made":
        initial = LabeledConfiguration.from_values({0: [1, 2, 3], 1: [5]})
    else:
        variant = _Lopsided()
    _assert_levels_match_reference(variant, initial, mirrored=False)


@pytest.mark.parametrize("variant,n,classes,self_mirror,states", [
    (base(), 9, 42_567, 341, 84_793), (loops_everywhere(), 13, 32_361, 363, 64_359),
    (base(), 10, 357_135, 2_246, 712_024)])
def test_mirror_class_counts(variant, n, classes, self_mirror, states):
    """The search keeps one row per mirror class and counts the full space."""
    _, searched, _, mirrored = labeled_reference.search(standard_initial(variant, n), variant)
    levels, visited = [rows for rows, _ in searched], searched[-1][1]
    assert mirrored and sum(map(len, levels)) == classes
    assert sum(int((level == explorer._mirror(level)).all(axis=1).sum())
               for level in levels) == self_mirror
    assert visited == 2 * classes - self_mirror == states


@pytest.mark.parametrize("variant,n", [(base(), 10), (loops_everywhere(), 11),
                                       (exponential(1), 8)], ids=str)
def test_levels_give_the_reports_count_and_terminals(variant, n):
    """Each level's ``visited`` adds its full-space size, 2q - s under the
    quotient, the last one is the report's ``states_visited``, and the last
    level's rows, with their mirrors under the quotient, decode to its
    terminals."""
    report, levels, _, mirrored = labeled_reference.search(standard_initial(variant, n), variant)
    sizes = [2 * len(rows) - int((rows == explorer._mirror(rows)).all(axis=1).sum()) if mirrored
             else len(rows) for rows, _ in levels]
    assert [visited for _, visited in levels] == np.cumsum(sizes).tolist()
    assert levels[-1][1] == report.states_visited
    ends = levels[-1][0]
    if mirrored:
        ends = np.concatenate([ends, explorer._mirror(ends)])
    assert sorted({explorer._state(row) for row in ends}) == list(report.terminals)


def test_symmetric_unsorted_start_has_empty_witness():
    initial = LabeledConfiguration.from_values({-1: [1], 1: [-1]})
    report, _, _, mirrored = labeled_reference.search(initial, base())
    assert mirrored
    assert (report.states_visited, report.terminal_count, report.witness) == (1, 1, [])
    assert len(find_unsorted_terminal(initial, base(), report)) == 0


def test_empty_configuration_is_its_own_terminal():
    report = explore(LabeledConfiguration.from_values({}), base())
    assert (report.states_visited, report.terminals, report.witness) == (1, ((),), None)


def _levels_and_report(variant, n, preset="origin"):
    report, levels, _, _ = labeled_reference.search(standard_initial(variant, n, preset), variant)
    levels = [(rows.tolist(), visited) for rows, visited in levels]
    return levels, report.to_json()


@pytest.mark.parametrize("cells", [1, 64])
def test_sliced_expansion_matches_whole_levels(monkeypatch, cells):
    """Slices of one or a few rows give the same levels, counts and report."""
    cases = [(base(), 7), (exponential(1), 8), (loops_everywhere(), 9), (base(), 3, "staircase")]
    whole = [_levels_and_report(*case) for case in cases]
    monkeypatch.setattr(explorer, "SLICE_CELLS", cells)
    assert [_levels_and_report(*case) for case in cases] == whole


def test_adversarial_1mod4():
    trace = adversarial_1mod4(1)
    assert not analysis.is_weakly_sorted(trace.final_config())
    # cross-check against the exhaustive search at n=5
    rep = explore(standard_initial(loops_everywhere(), 5), loops_everywhere())
    assert canonicalize(trace.final_config()) in rep.unsorted_terminals()

    trace = adversarial_1mod4(2)
    oracle = closedform.fire_count_table(loops_everywhere(), 9)
    assert trace.fire_counts() == oracle
    assert not analysis.is_weakly_sorted(trace.final_config())

    with pytest.raises(ValueError, match="m must be >= 1"):
        adversarial_1mod4(0)


def test_hold_empty_control_matches_unlabeled_terminal():
    variant = loops_everywhere()
    initial = standard_initial(variant, 5)
    from chipfire.engine import HoldStrategy
    trace = run_to_completion(initial, variant, HoldStrategy(()))
    unlabeled = {s: len(v) for s, v in trace.final_config().values_by_site().items()}
    assert unlabeled == closedform.terminal_unlabeled(variant, 5)


def test_report_json_shape():
    rep = explore(standard_initial(base(), 3), base())
    data = rep.to_json()
    assert data["terminal_count"] == 3
    assert data["confluent"] is False
    assert data["sorted_terminal_count"] == 1
    assert isinstance(data["terminals"], list) and len(data["terminals"]) == 3
    assert data["witness"] is not None


def test_multi_edge_exploration():
    rep = explore(standard_initial(multi_edge(2), 8), multi_edge(2))
    assert rep.confluent
    assert dict(rep.terminals[0]) == closedform.expected_sorted_terminal(multi_edge(2), 8)
