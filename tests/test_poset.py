from dataclasses import replace

import numpy as np
import pytest

from chipfire import closedform, poset
from chipfire.engine import CapExceededError, RandomStrategy, run_to_completion, standard_initial
from chipfire.poset import (build_poset, check_exponential_grid, check_grid_structure,
                            diamond, export_dot, reachable_states)
from chipfire.variants import (base, exponential, loops_and_edges, loops_everywhere, multi_edge,
                               origin_loops)
from poset_reference import chips_at, containment_relation, enumerated_tables, must_precede


def test_chips_at_examples():
    v, n = base(), 10
    init = {0: n}
    zeros = {}
    assert chips_at(zeros, 0, v, init) == 10
    assert chips_at(zeros, 1, v, init) == 0
    one = {0: 1}
    assert chips_at(one, 0, v, init) == 8
    assert chips_at(one, -1, v, init) == 1
    assert chips_at(one, 1, v, init) == 1
    full = closedform.fire_count_table(v, n)
    terminal = closedform.terminal_unlabeled(v, n)
    for site in range(-7, 8):
        assert chips_at(full, site, v, init) == terminal.get(site, 0)


def test_reachable_states_n2():
    space = reachable_states(base(), 2)
    assert space.n_states == 2
    assert sorted(map(tuple, space.states.tolist())) == [(0,), (1,)]


def test_reachable_states_n4_exact_set():
    # hand-derived BFS over fire-count vectors (c[-1], c[0], c[1])
    space = reachable_states(base(), 4)
    got = {tuple(map(int, row)) for row in space.states}
    want = {(0, 0, 0), (0, 1, 0), (0, 2, 0), (1, 2, 0), (0, 2, 1), (1, 2, 1), (1, 3, 1)}
    assert got == want


def test_reachable_terminal_matches_totals():
    for variant, n in [(base(), 10), (loops_everywhere(), 11), (exponential(1), 8)]:
        space = reachable_states(variant, n)
        table = closedform.fire_count_table(variant, n)
        terminal = space.states[-1]
        assert {s: int(c) for s, c in zip(space.sites, terminal)} == table


@pytest.mark.parametrize("variant,n", [(base(), 10), (loops_everywhere(), 11),
                                       (exponential(1), 8)], ids=str)
def test_levels_stack_to_the_space(variant, n):
    """The levels ``_levels`` yields, stacked, are the space's states, and
    each level's ``visited`` sums the level sizes through it."""
    space = reachable_states(variant, n)
    levels = list(poset._levels(variant, space.sites, space.totals, space.initial, space.flow,
                                poset.DEFAULT_STATE_CAP))
    assert np.array_equal(np.concatenate([rows for rows, _ in levels]), space.states)
    sizes = [len(rows) for rows, _ in levels]
    assert [visited for _, visited in levels] == np.cumsum(sizes).tolist()
    assert levels[-1][1] == space.n_states


def test_reachable_states_cap():
    with pytest.raises(CapExceededError) as err:
        reachable_states(base(), 10, state_cap=10)
    # levels of base n=10 hold 1, 1, 1, 3, 4, 4, ... states: level 5 crosses 10
    assert (err.value.states_visited, err.value.level, err.value.frontier) == (14, 5, 4)


@pytest.mark.parametrize("variant,n", [(base(), 14), (loops_everywhere(), 15), (exponential(2), 16),
                                       (multi_edge(2), 16), (origin_loops(3), 13)], ids=str)
def test_reachable_states_run_level_by_level_in_sorted_order(variant, n):
    """The row order reports and witnesses rest on: levels by total fire
    count, each in ascending row order, every state once."""
    states = reachable_states(variant, n).states
    rows = [tuple(row) for row in states.tolist()]
    assert rows == sorted(set(rows), key=lambda row: (sum(row), row))
    assert states.dtype == np.int16 and states.flags["C_CONTIGUOUS"]


def _greedy_sequence(variant, n, preference):
    """A complete legal firing sequence choosing sites by ``preference``."""
    table = closedform.fire_count_table(variant, n)
    state = {s: 0 for s in table}
    init = {0: n}
    seq = []
    while True:
        enabled = [s for s in table
                   if chips_at(state, s, variant, init) >= variant.threshold(s)]
        if not enabled:
            return seq
        site = min(enabled, key=preference)
        state[site] += 1
        seq.append(site)


def test_must_precede_examples():
    v, n = base(), 10
    space = reachable_states(v, n)
    last0 = space.move(0, occ_from_last=1)
    last1 = space.move(1, occ_from_last=1)
    assert must_precede(last1, last0, space)
    assert not must_precede(last0, last1, space)
    # same-site moves are sequential
    assert must_precede(space.move(1, occ_from_start=1), space.move(1, occ_from_start=2), space)
    # first fires far left/right are unordered: exhibit both orders by greedy runs
    first4 = space.move(4, occ_from_start=1)
    firstm4 = space.move(-4, occ_from_start=1)
    assert not must_precede(first4, firstm4, space)
    assert not must_precede(firstm4, first4, space)
    seq_right = _greedy_sequence(v, n, preference=lambda s: -s)
    seq_left = _greedy_sequence(v, n, preference=lambda s: s)
    assert seq_right.index(4) < seq_right.index(-4)
    assert seq_left.index(-4) < seq_left.index(4)


def test_build_poset_counts():
    space = reachable_states(base(), 2)
    p = build_poset(space)
    assert len(p.nodes) == 1 and not p.relation

    space = reachable_states(base(), 10)
    p = build_poset(space)
    assert len(p.nodes) == 55

    space = reachable_states(base(), 4)
    p = build_poset(space)
    assert len(p.nodes) == 5
    final = [x for x in p.nodes if (x.site, x.occ_from_start) in diamond(base(), 4)]
    assert len(final) == 4
    inner = {(a, b) for a, b in p.covers if a in final and b in final}
    assert len(inner) == 4


def test_relation_is_strict_partial_order_and_reduction_round_trip():
    space = reachable_states(base(), 8)
    p = build_poset(space)
    rel = p.relation
    assert all(a != b for a, b in rel)
    for a, b in rel:
        assert (b, a) not in rel
    for a, b in rel:
        for c, d in rel:
            if b == c:
                assert (a, d) in rel
    # transitive closure of covers regenerates the relation
    succ = {}
    for a, b in p.covers:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for start in p.nodes:
        stack = list(succ.get(start, ()))
        while stack:
            x = stack.pop()
            if (start, x) not in closure:
                closure.add((start, x))
                stack.extend(succ.get(x, ()))
    assert closure == set(rel)


def test_trace_paths_stay_in_space_and_extend_poset():
    v, n = base(), 8
    space = reachable_states(v, n)
    p = build_poset(space)
    states = {tuple(map(int, row)) for row in space.states}
    for seed in range(10):
        trace = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=seed)
        counts = {s: 0 for s in space.sites}
        seen = [tuple(counts[s] for s in space.sites)]
        order = []
        for site in trace.log.sites:
            counts[site] += 1
            seen.append(tuple(counts[s] for s in space.sites))
            order.append(space.move(site, occ_from_start=counts[site]))
        assert all(s in states for s in seen)
        index = {move: i for i, move in enumerate(order)}
        for a, b in p.relation:
            assert index[a] < index[b]


def test_label_independence_of_fire_count_paths():
    """Two labeled runs with identical site sequences induce identical fire-count paths."""
    v, n = loops_everywhere(), 7
    t1 = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=1)
    t2 = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=14)
    if t1.log.sites == t2.log.sites:
        assert t1.log.fire_index_at_site == t2.log.fire_index_at_site
    # same-site-sequence replays always agree regardless of chip choices
    assert list(t1.log.fire_index_at_site) == list(_fire_indices(t1.log.sites))


def _fire_indices(sites):
    counts = {}
    for s in sites:
        counts[s] = counts.get(s, 0) + 1
        yield counts[s]


@pytest.mark.parametrize("variant,n", [(base(), n) for n in range(4, 11)] + [
    (multi_edge(2), 8), (origin_loops(2), 6), (loops_everywhere(), 7),
    (loops_everywhere(), 11), (loops_and_edges(2), 6)], ids=str)
def test_diamond_table_matches_definition(variant, n):
    m = closedform.derive_m(variant, n)
    table = diamond(variant, n)
    space = reachable_states(variant, n)
    final = [node for node in space.nodes() if node.occ_from_last <= m - abs(node.site)]
    assert set(table) == {(node.site, node.occ_from_start) for node in final}
    assert list(table.values()) == [(x, y) for x in range(m) for y in range(m)]
    for (site, occ_from_start), (x, y) in table.items():
        node = space.move(site, occ_from_start=occ_from_start)
        assert site == x - y and node.occ_from_last == min(x, y) + 1


def test_diamond_table_refuses_exponential():
    with pytest.raises(closedform.UnsupportedVariantError):
        diamond(exponential(1), 8)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_grid_structure_even(n):
    space = reachable_states(base(), n)
    report = check_grid_structure(space)
    assert report.passed, report.violations


def test_grid_structure_n11_fails_at_origin_last_move():
    space = reachable_states(base(), 11)
    report = check_grid_structure(space)
    assert not report.passed
    origin_last = [v for v in report.violations
                   if v["node"] == "s0_j1" and v["clause"] == "exact_chips"]
    assert origin_last and origin_last[0]["chips"] == 3
    witness = {int(s): c for s, c in origin_last[0]["witness_state"].items()}
    # the witness state is one fire short at the origin and enabled with 3 chips
    assert witness[0] == closedform.total_fires(base(), 11, 0) - 1
    assert chips_at(witness, 0, base(), {0: 11}) == 3


@pytest.mark.parametrize("t", [0, 1, 2])
def test_exponential_grid(t):
    space = reachable_states(exponential(t), 2 ** (t + 2))
    report = check_exponential_grid(space)
    assert report.passed, report.violations
    assert report.details["canonical_indexing"] == "occ_from_start"
    assert report.details["sandwich_ok_from_start"]
    assert not report.details["sandwich_ok_from_last"]


def test_export_dot():
    space = reachable_states(base(), 2)
    dot = export_dot(build_poset(space))
    assert dot.startswith("digraph")
    assert '"s0_j1"' in dot and "->" not in dot

    space = reachable_states(base(), 4)
    dot = export_dot(build_poset(space))
    assert dot.count("->") == 5
    assert dot.count('group="diamond"') == 4

    space = reachable_states(base(), 10)
    dot = export_dot(build_poset(space))
    assert dot.count('group="diamond"') == 25


def test_grid_check_json_report():
    space = reachable_states(base(), 6)
    data = check_grid_structure(space).to_json()
    assert data["check"] == "grid"
    assert data["violations"] == []
    assert data["states_explored"] == space.n_states
    assert data["passed"] is True


REFERENCE_SPACES = [(base(), n) for n in range(2, 11)] + [
    (exponential(0), 4), (exponential(1), 8), (loops_everywhere(), 7), (loops_everywhere(), 11),
    (multi_edge(2), 8), (origin_loops(2), 6), (exponential(3), 32)]


@pytest.mark.parametrize("variant,n", REFERENCE_SPACES, ids=str)
def test_build_poset_matches_pairwise_reference(variant, n):
    space = reachable_states(variant, n)
    assert "closure_rows" not in vars(space)  # built on first use only
    p = build_poset(space)
    nodes = space.nodes()
    assert p.nodes == tuple(nodes)
    assert space.closure_rows.shape == (len(nodes), len(space.sites))
    assert space.closure_rows.dtype == np.int16
    relation = set()
    for a in nodes:
        for b in nodes:
            before = must_precede(a, b, space)
            assert space.precedes(a, b) is before, (a, b)
            if before and a != b:
                relation.add((a, b))
    assert p.relation == relation
    between = {(a, b) for a, c in relation for d, b in relation if c == d}
    assert p.covers == relation - between


# base n=2..18, loops_everywhere n=3..17 odd, multi_edge r=2 and r=3,
# origin_loops s=1 at odd n and s=2 at even n, loops_and_edges r=2 and r=3,
# and exponential t=0..3: 55 spaces
ORACLE_SPACES = ([(base(), n) for n in range(2, 19)]
                 + [(loops_everywhere(), n) for n in range(3, 18, 2)]
                 + [(multi_edge(2), n) for n in (4, 8, 12, 16)]
                 + [(multi_edge(3), n) for n in (6, 12, 18)]
                 + [(origin_loops(1), n) for n in range(3, 18, 2)]
                 + [(origin_loops(2), n) for n in range(4, 19, 2)]
                 + [(loops_and_edges(2), 6), (loops_and_edges(2), 14), (loops_and_edges(3), 9)]
                 + [(exponential(t), 2 ** (t + 2)) for t in range(4)])


@pytest.mark.parametrize("variant,n", ORACLE_SPACES, ids=str)
def test_closure_rows_match_enumerated_tables(variant, n):
    """``precedes`` for every pair of moves, ``build_poset``'s matrix and
    ``excess_chips`` for every move, all read from the closure rows, equal
    the tables enumerated over every state."""
    space = reachable_states(variant, n)
    least, exact = enumerated_tables(space)
    nodes = space.nodes()
    site_of = [space.sites.index(node.site) for node in nodes]
    occ = np.array([node.occ_from_start for node in nodes])
    want = occ[:, None] <= least[:, site_of].T  # want[a, b]: a precedes b
    assert [[space.precedes(a, b) for b in nodes] for a in nodes] == want.tolist()
    np.fill_diagonal(want, False)
    assert np.array_equal(build_poset(space).before, want)
    assert [space.excess_chips(node) for node in nodes] == [
        (chips, state) if chips else None for chips, state in exact.tolist()]


# every oracle space the bit-packed containment test runs in about a second
# or less (base n=17 and 18 take 2 s and more), and origin_loops s=3
@pytest.mark.parametrize("variant,n", [(base(), n) for n in range(17)] + [
    (variant, n) for variant, n in ORACLE_SPACES if variant.kind != "base"] + [
    (origin_loops(3), 13)], ids=str)
def test_build_poset_matches_containment_relation(variant, n):
    space = reachable_states(variant, n)
    assert build_poset(space).relation == containment_relation(space)


def _grid_from_window(variant, n) -> tuple[list[str], list[tuple[str, int]]]:
    """The grid check's precedence and exact-chips clauses read from the
    closure rows of the diamond's moves alone, made from ``(variant, sites,
    totals, initial, flow)`` with no search: the nodes whose precedence
    fails, once per predecessor, and ``(node, chips)`` per excess."""
    table = diamond(variant, n)
    sites, totals, initial, flow = poset._window(variant, n)
    rows = dict(zip(table, poset.max_closures(variant, sites, totals, initial, flow,
                                              list(table)).tolist()))
    at = {xy: move for move, xy in table.items()}
    precedence, excess = [], []
    for (site, occ), (x, y) in table.items():
        node = f"s{site}_j{min(x, y) + 1}"
        for pred in (at.get((x + 1, y)), at.get((x, y + 1))):
            if pred is not None and rows[pred][sites.index(site)] >= occ:
                precedence.append(node)
        chips = chips_at(dict(zip(sites, rows[site, occ])), site, variant, {0: n})
        if chips > variant.threshold(site):
            excess.append((node, chips))
    return precedence, excess


@pytest.mark.parametrize("variant,n", [(base(), n) for n in range(10, 16)] + [
    (loops_everywhere(), 15), (multi_edge(2), 16), (origin_loops(1), 15)], ids=str)
def test_grid_from_window_matches_the_grid_check(variant, n):
    report = check_grid_structure(reachable_states(variant, n))
    precedence, excess = _grid_from_window(variant, n)
    assert precedence == [v["node"] for v in report.violations if v["clause"] == "precedence"]
    assert excess == [(v["node"], v["chips"]) for v in report.violations
                      if v["clause"] == "exact_chips"]


@pytest.mark.parametrize("variant,n", [(base(), n) for n in range(22, 41, 2)]
                         + [(loops_everywhere(), n) for n in range(19, 40, 4)], ids=str)
def test_grid_theorem_past_the_search(variant, n):
    """Even base n and loops n = 4m-1 keep the grid far past what the
    search reaches (base n=21 has 12.7M states)."""
    assert _grid_from_window(variant, n) == ([], [])


def test_grid_at_base_21_fails_only_where_odd_n_does():
    """Odd n breaks the exact-chips clause, 3 chips at each of 100 moves,
    and the precedence clause at 90 pairs, as base n=13 does at 36 and 30."""
    precedence, excess = _grid_from_window(base(), 21)
    assert [chips for _, chips in excess] == [3] * 100
    assert len(precedence) == 90


# flow coefficients above 2: bundles of 16 at exponential t=4, 6 chips a
# fire at loops_and_edges r=3; several exact-chip violations at base n=11
CHIP_SPACES = REFERENCE_SPACES + [(exponential(4), 64), (loops_and_edges(3), 45), (base(), 11)]


@pytest.mark.parametrize("variant,n", CHIP_SPACES, ids=str)
def test_chips_vector_matches_chips_at(variant, n):
    """Each site's vector of chip counts over every state, read from the
    space's ``initial`` and ``flow`` as its fire tables and its search read
    them."""
    space = reachable_states(variant, n)
    chips = space.initial + space.states @ space.flow[:, 1:-1]
    for i, site in enumerate(space.sites):
        want = [chips_at(dict(zip(space.sites, map(int, row))), site, variant, {0: n})
                for row in space.states]
        assert chips[:, i].tolist() == want


@pytest.mark.parametrize("variant,n", CHIP_SPACES, ids=str)
def test_excess_chips_matches_chips_at(variant, n):
    """Odd base n reaches moves fired with more than threshold chips.  The
    rows are also taken in reverse, where a move's most chips are no longer
    in its last state with more than threshold chips."""
    found = reachable_states(variant, n)
    for space in (found, replace(found, states=found.states[::-1].copy())):
        counts = [dict(zip(space.sites, map(int, row))) for row in space.states]
        for move in space.nodes():
            over = [(chips, r) for r, fired in enumerate(counts)
                    if fired[move.site] == move.occ_from_start - 1
                    and (chips := chips_at(fired, move.site, variant, {0: n}))
                    > variant.threshold(move.site)]
            want = (max(chips for chips, _ in over), over[0][1]) if over else None
            got = space.excess_chips(move)
            assert got == want, move
            assert got is None or list(map(type, got)) == [int, int]


def test_move_takes_either_index_or_both_in_agreement():
    space = reachable_states(base(), 6)
    assert space.total_fires(0) == 6
    assert space.move(0, occ_from_start=2) == space.move(0, occ_from_last=5) \
        == space.move(0, occ_from_start=2, occ_from_last=5) == (0, 2, 5)


def test_move_without_an_index_is_refused():
    space = reachable_states(base(), 6)
    with pytest.raises(ValueError, match="needs occ_from_start or occ_from_last"):
        space.move(0)


def test_move_past_the_last_occurrence_is_refused():
    space = reachable_states(base(), 6)
    with pytest.raises(ValueError, match="site 0 fires 6 times, no occurrence 7"):
        space.move(0, occ_from_start=space.total_fires(0) + 1)


@pytest.mark.parametrize("occ_from_start,occ_from_last", [(1, 1), (6, 6), (2, 4)])
def test_move_with_disagreeing_indices_is_refused(occ_from_start, occ_from_last):
    space = reachable_states(base(), 6)
    with pytest.raises(ValueError, match="fires 6 times"):
        space.move(0, occ_from_start=occ_from_start, occ_from_last=occ_from_last)


@pytest.mark.parametrize("variant,n", [(base(), 10), (base(), 11), (exponential(2), 16)], ids=str)
def test_dot_export_never_lists_the_relation(variant, n):
    """``poset --dot`` reads covers only; the pairs are listed on demand."""
    space = reachable_states(variant, n)
    p = build_poset(space)
    export_dot(p)
    assert "relation" not in vars(p)
    assert p.relation == containment_relation(space)
    assert "relation" in vars(p)
