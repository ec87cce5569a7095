from itertools import combinations

import pytest

import labeled_reference
from labeled_reference import successor_outcomes
from chipfire import analysis, closedform, explorer
from chipfire.engine import (CapExceededError, LabeledConfiguration, RandomStrategy,
                             run_to_completion, standard_initial)
from chipfire.explorer import adversarial_1mod4, canonicalize, explore, find_unsorted_terminal
from chipfire.poset import DEFAULT_STATE_CAP
from chipfire.variants import (base, exponential, loops_and_edges, loops_everywhere,
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
    trace = find_unsorted_terminal(standard_initial(base(), 3), base())
    assert trace is not None and len(trace) == 1
    assert not analysis.is_weakly_sorted(trace.final_config())
    list(trace.replay(verify=True))

    trace = find_unsorted_terminal(standard_initial(loops_everywhere(), 5),
                                   loops_everywhere())
    assert trace is not None
    assert not analysis.is_weakly_sorted(trace.final_config())


def test_find_unsorted_terminal_replays_a_given_report(monkeypatch):
    initial = standard_initial(base(), 5)
    searched = find_unsorted_terminal(initial, base())
    report = explore(initial, base())
    monkeypatch.setattr(explorer, "_explore_levels", None)  # no second search
    given = find_unsorted_terminal(initial, base(), report=report)
    assert [r.to_json() for r in given.records] == [r.to_json() for r in searched.records]


def test_find_unsorted_terminal_none_for_even():
    assert find_unsorted_terminal(standard_initial(base(), 4), base()) is None


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
    of applying every legal id-subset, and the first move reaching each
    child is the reference's.
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
                row = explorer._row(state)
                table = explorer._MoveTable(variant, row.size)
                for child, move in first.items():
                    assert table.move_to(row, explorer._row(child)) == move


@pytest.mark.parametrize("variant,n", [(base(), 7), (loops_everywhere(), 9),
                                       (origin_loops(2), 6), (exponential(1), 8)])
def test_levels_match_reference_bfs(variant, n):
    """Every level's rows are, as big-endian bytes, the reference's sorted
    byte keys (``labeled_reference.key``), with the same first-occurrence
    parents; origin_loops and exponential mix thresholds."""
    initial = standard_initial(variant, n)
    levels, parents, _, visited, _ = explorer._explore_levels(
        initial, variant, DEFAULT_STATE_CAP)
    want_keys, want_parents = labeled_reference.levels(canonicalize(initial), variant)
    assert [[row.astype(">u2").tobytes() for row in level] for level in levels] == want_keys
    assert [p.tolist() for p in parents] == want_parents
    assert visited == sum(map(len, want_keys))


def _levels_and_report(variant, n):
    initial = standard_initial(variant, n)
    levels, parents, terminals, visited, _ = explorer._explore_levels(
        initial, variant, DEFAULT_STATE_CAP)
    report = explore(initial, variant).to_json()
    return ([level.tolist() for level in levels], [p.tolist() for p in parents],
            terminals, visited, report)


@pytest.mark.parametrize("cells", [1, 64])
def test_sliced_expansion_matches_whole_levels(monkeypatch, cells):
    """Slices of one or a few rows give the same levels, parents, terminals and report."""
    cases = [(base(), 7), (exponential(1), 8), (loops_everywhere(), 9)]
    whole = [_levels_and_report(v, n) for v, n in cases]
    monkeypatch.setattr(explorer, "SLICE_CELLS", cells)
    assert [_levels_and_report(v, n) for v, n in cases] == whole


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
