import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import closedform as cf
from chipfire import engine
from chipfire.engine import (Chip, HoldStrategy, IllegalMoveError, LabeledConfiguration,
                             LeftmostStrategy, NonTerminationError, RandomStrategy,
                             ScriptedValuesStrategy, run_to_completion, standard_initial)
from chipfire.variants import (base, exponential, loops_and_edges, loops_everywhere, multi_edge,
                               origin_loops)
import engine_reference


def test_enabled_sites():
    v = base()
    config = LabeledConfiguration.from_values({0: [1, 2, 3, 4]})
    assert config.enabled_sites(v) == [0]
    assert LabeledConfiguration.from_values({}).enabled_sites(v) == []
    config = LabeledConfiguration.from_values({-1: [3], 0: [1, 2], 1: [4]})
    assert config.enabled_sites(v) == [0]


def test_configuration_repr_lists_values_by_site():
    config = LabeledConfiguration.from_values({0: [2, 1], -1: [3]})
    assert repr(config) == "LabeledConfiguration({-1: [3], 0: [1, 2]})"


def test_strategy_base_and_unknown_name_are_refused():
    v = base()
    config = standard_initial(v, 2)
    with pytest.raises(NotImplementedError):
        engine.Strategy().choose(config, config.enabled_sites(v), v, None)
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        engine.make_strategy("bogus")


def test_apply_move_split_rule():
    v = base()
    config = LabeledConfiguration.from_values({0: [1, 2, 3, 4]})  # ids 0..3
    after = config.apply(v, 0, (2, 3))  # chips valued 3 and 4
    assert after.values_by_site() == {-1: (3,), 0: (1, 2), 1: (4,)}

    loops = loops_everywhere()
    config = LabeledConfiguration.from_values({2: [5, 7, 9]})
    after = config.apply(loops, 2, tuple(c.id for c in config.chips_at(2)))
    assert after.values_by_site() == {1: (5,), 2: (7,), 3: (9,)}


def test_apply_move_errors():
    v = base()
    config = LabeledConfiguration.from_values({0: [1], 1: [2, 3]})
    with pytest.raises(IllegalMoveError):
        config.apply(v, 0, (0,))  # not enabled
    with pytest.raises(IllegalMoveError):
        config.apply(v, 1, (1,))  # wrong cardinality
    with pytest.raises(IllegalMoveError):
        config.apply(v, 1, (0, 1))  # chip 0 absent from site 1


def test_full_run_walkthrough_n4():
    # the complete labeled firing sequence with chips 1..4 at the origin
    v = base()
    config = LabeledConfiguration.from_values({0: [1, 2, 3, 4]})
    script = ScriptedValuesStrategy([(0, (3, 4)), (0, (1, 2)), (1, (2, 4)),
                                     (-1, (1, 3)), (0, (2, 3))])
    trace = run_to_completion(config, v, script)
    states = [after.values_by_site() for _, _, after in trace.replay()]
    assert states[0] == {-1: (3,), 0: (1, 2), 1: (4,)}
    assert states[1] == {-1: (1, 3), 1: (2, 4)}
    assert states[2] == {-1: (1, 3), 0: (2,), 2: (4,)}
    assert states[3] == {-2: (1,), 0: (2, 3), 2: (4,)}
    assert states[4] == {-2: (1,), -1: (2,), 1: (3,), 2: (4,)}


def test_standard_initial_presets():
    assert standard_initial(base(), 4).values_by_site() == {0: (-2, -1, 1, 2)}
    assert standard_initial(loops_everywhere(), 7).values_by_site() == {
        0: (-2, -1, -1, 0, 1, 1, 2)}
    stair = standard_initial(base(), 3, preset="staircase")
    assert stair.values_by_site() == {-1: (-3, -2, -1), 0: (1, 2, 3, 4)}
    with pytest.raises(cf.UnsupportedVariantError):
        standard_initial(multi_edge(2), 4, preset="staircase")
    with pytest.raises(cf.UnsupportedVariantError):
        standard_initial(base(), 4, preset="bogus")


def test_run_terminates_sorted_base():
    v = base()
    for n in (2, 4, 10):
        for strategy in (LeftmostStrategy(), RandomStrategy()):
            trace = run_to_completion(standard_initial(v, n), v, strategy, seed=7)
            assert trace.final_config().values_by_site() == cf.expected_sorted_terminal(v, n)
            assert trace.fire_counts() == cf.fire_count_table(v, n)


def test_run_n2_single_move():
    v = base()
    trace = run_to_completion(standard_initial(v, 2), v, LeftmostStrategy())
    assert len(trace) == 1
    assert trace.final_config().values_by_site() == {-1: (-1,), 1: (1,)}


def test_leftmost_vs_random_confluence():
    v = base()
    a = run_to_completion(standard_initial(v, 10), v, LeftmostStrategy())
    b = run_to_completion(standard_initial(v, 10), v, RandomStrategy(), seed=7)
    assert a.final_config() == b.final_config()


def test_seeded_runs_reproducible():
    v = loops_everywhere()
    a = run_to_completion(standard_initial(v, 11), v, RandomStrategy(), seed=42)
    b = run_to_completion(standard_initial(v, 11), v, RandomStrategy(), seed=42)
    assert a.records == b.records


@pytest.mark.parametrize("seed,error", [(-1, ValueError), (2.5, TypeError)])
def test_bad_seed_is_refused_at_the_first_draw(seed, error):
    """The generator is made on the first draw: making the draws, and a
    draw that takes no word, accept any seed; the first word refuses it."""
    draws = engine.RandomDraws(seed)
    assert draws.integers(1) == 0
    with pytest.raises(error):
        draws.integers(2)
    v = base()
    with pytest.raises(error):
        run_to_completion(standard_initial(v, 4), v, RandomStrategy(), seed=seed)


def test_runs_that_never_draw_ignore_the_seed():
    v = loops_everywhere()
    initial = standard_initial(v, 9)
    leftmost = run_to_completion(initial, v, LeftmostStrategy())
    script = [(rec.site, rec.chosen_values) for rec in leftmost.records]
    for strategy in (LeftmostStrategy, lambda: ScriptedValuesStrategy(script),
                     lambda: HoldStrategy({0, 1})):
        expected = run_to_completion(initial, v, strategy())
        for seed in (-1, 2.5):
            trace = run_to_completion(initial, v, strategy(), seed=seed)
            assert trace.records == expected.records
            assert trace.final_config() == expected.final_config()


def test_staircase_run_sorts():
    v = base()
    for q in (1, 2, 3):
        trace = run_to_completion(standard_initial(v, q, preset="staircase"), v,
                                  RandomStrategy(), seed=1)
        assert trace.final_config().values_by_site() == \
            cf.expected_sorted_terminal(v, q, preset="staircase")


def test_origin_loops_run():
    v = origin_loops(2)
    trace = run_to_completion(standard_initial(v, 8), v, RandomStrategy(), seed=5)
    assert trace.final_config().values_by_site() == cf.expected_sorted_terminal(v, 8)


def test_replay_verifies_metadata():
    v = base()
    trace = run_to_completion(standard_initial(v, 8), v, RandomStrategy(), seed=3)
    list(trace.replay(verify=True))  # must not raise
    # corrupt one move's present_before in its column and watch the replay catch it
    trace.log.present_before[2] += 1
    with pytest.raises(engine.ChipFiringError, match="^replay mismatch at step 2: "):
        list(trace.replay(verify=True))


def test_replay_refuses_a_trace_that_stops_before_terminal():
    """A read trace whose last move line is gone replays every record it
    has, and verified replay then refuses its non-terminal end."""
    v = base()
    buf = io.StringIO()
    run_to_completion(standard_initial(v, 6), v, RandomStrategy(), seed=2).write_jsonl(buf)
    lines = buf.getvalue().splitlines(keepends=True)
    trace = engine.Trace.read_jsonl(io.StringIO("".join(lines[:-1])))
    assert len(trace) == len(lines) - 2
    with pytest.raises(engine.ChipFiringError,
                       match="^trace does not end in a terminal configuration$"):
        list(trace.replay(verify=True))
    assert len(list(trace.replay(verify=False))) == len(trace)


def test_exhausted_script_is_an_illegal_move():
    config = LabeledConfiguration.from_values({0: [1, 2, 3, 4]})
    script = ScriptedValuesStrategy([(0, (3, 4))])  # the walkthrough's first of five moves
    with pytest.raises(IllegalMoveError, match="^script exhausted while sites are still enabled$"):
        run_to_completion(config, base(), script)


def test_trace_jsonl_round_trip():
    v = exponential(1)
    trace = run_to_completion(standard_initial(v, 8), v, RandomStrategy(), seed=9,
                              n=8, preset="origin")
    buf = io.StringIO()
    trace.write_jsonl(buf)
    buf.seek(0)
    back = engine.Trace.read_jsonl(buf)
    assert back.variant == v
    assert back.initial == trace.initial
    assert len(back) == len(trace)
    assert [r.site for r in back.records] == [r.site for r in trace.records]
    assert [r.chosen_values for r in back.records] == [r.chosen_values for r in trace.records]
    assert back.final_config().values_by_site() == trace.final_config().values_by_site()
    header = trace.header_json()
    assert header["n"] == 8 and header["seed"] == 9 and header["strategy"] == "random"


def test_move_cap():
    v = base()
    with pytest.raises(engine.NonTerminationError):
        run_to_completion(standard_initial(v, 10), v, LeftmostStrategy(), move_cap=3)


def test_site_sequence_legal_for_any_chip_choice():
    """Move legality depends only on counts: a site sequence legal for one
    chip-selection policy is legal for any other and fires the same sites."""
    v = loops_everywhere()
    trace = run_to_completion(standard_initial(v, 11), v, RandomStrategy(), seed=3)
    config = standard_initial(v, 11)
    for rec in trace.records:
        chips = sorted(config.chips_at(rec.site), key=lambda c: (-c.value, -c.id))
        config = config.apply(v, rec.site, tuple(c.id for c in chips[:v.threshold(rec.site)]))
    assert not config.enabled_sites(v)
    counts = {s: len(vals) for s, vals in config.values_by_site().items()}
    final = trace.final_config()
    assert counts == {s: len(vals) for s, vals in final.values_by_site().items()}


def test_chip_count_and_positions_stay_bounded():
    v = base()
    n = 8
    trace = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=11)
    for _, _, after in trace.replay(verify=False):
        assert after.total_chips() == n
        assert all(-n <= site <= n for site, _ in after.chips())


@st.composite
def config_and_move(draw):
    v = base()
    sites = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=6))
    values = draw(st.lists(st.integers(-3, 3), min_size=len(sites), max_size=len(sites)))
    occ = {}
    for s, val in zip(sites, values):
        occ.setdefault(s, []).append(val)
    config = LabeledConfiguration.from_values(occ)
    enabled = config.enabled_sites(v)
    if not enabled:
        return None
    site = enabled[draw(st.integers(0, len(enabled) - 1))]
    chips = sorted(config.chips_at(site), key=lambda c: (c.value, c.id))
    return config, site, tuple(c.id for c in chips[:2])


@given(config_and_move())
@settings(max_examples=200, deadline=None)
def test_permutation_equivariance(data):
    """Relabeling ids while keeping values leaves the value-level outcome fixed."""
    if data is None:
        return
    config, site, chosen = data
    v = base()
    after = config.apply(v, site, chosen)
    # rebuild with reversed id assignment, fire the same value multiset
    chosen_values = sorted(config.chips_at(site)[i].value
                           for i, c in enumerate(config.chips_at(site)) if c.id in chosen)
    perm = {}
    chips = [(s, c) for s, c in config.chips()]
    new_ids = sorted((c.id for _, c in chips), reverse=True)
    for (s, c), nid in zip(chips, new_ids):
        perm[c.id] = nid
    relabeled = LabeledConfiguration(
        {s: [Chip(id=perm[c.id], value=c.value) for c in cs] for s, cs in config.occupancy.items()})
    ids2 = engine._ids_for_values(relabeled, site, chosen_values)
    after2 = relabeled.apply(v, site, ids2)
    assert after.values_by_site() == after2.values_by_site()


# --- incremental apply / carried enabled sites against a full rebuild / scan ---

ALL_VARIANTS = [base(), multi_edge(2), origin_loops(2), loops_everywhere(),
                loops_and_edges(2), exponential(1)]


def rebuild_apply(config, v, site, chosen):
    """The move applied the slow way: every site re-sorted by the constructor."""
    present = config.chips_at(site)
    fired = sorted((c for c in present if c.id in chosen), key=lambda c: (c.value, c.id))
    left, loop, _ = v.site_row(site)[:3]
    occ = dict(config.occupancy)
    occ[site] = tuple(c for c in present if c.id not in chosen) + tuple(fired[left:left + loop])
    occ[site - 1] = config.chips_at(site - 1) + tuple(fired[:left])
    occ[site + 1] = config.chips_at(site + 1) + tuple(fired[left + loop:])
    return LabeledConfiguration(occ)


@st.composite
def variant_and_config(draw):
    v = draw(st.sampled_from(ALL_VARIANTS))
    occ = {site: draw(st.lists(st.integers(-4, 4), max_size=9)) for site in range(-2, 3)}
    return v, LabeledConfiguration.from_values(occ)


def draw_move(draw, config, v):
    enabled = config.enabled_sites(v)
    site = draw(st.sampled_from(enabled))
    ids = [c.id for c in config.chips_at(site)]
    chosen = draw(st.permutations(ids))[:v.threshold(site)]
    return site, tuple(chosen)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_apply_matches_full_rebuild(data):
    v, config = data.draw(variant_and_config())
    if not config.enabled_sites(v):
        return
    site, chosen = draw_move(data.draw, config, v)
    after = config.apply(v, site, chosen)
    assert after == rebuild_apply(config, v, site, set(chosen))
    assert after == LabeledConfiguration(after.occupancy)
    for chips in after.occupancy.values():
        assert chips and list(chips) == sorted(chips, key=lambda c: (c.value, c.id))


REFERENCE_CASES = [(base(), 12), (multi_edge(2), 8), (origin_loops(2), 8),
                   (loops_everywhere(), 11), (loops_and_edges(2), 6), (loops_and_edges(2), 14),
                   (exponential(1), 8), (exponential(2), 16)]


@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_apply_matches_sort_based_reference(v, n):
    """Every enabled site of every state of seeded random walks, fired with a
    random legal choice, gives the sort-based reference's child.  Half the
    walks start from the canonical labels scattered over five sites, so chip
    ids no longer follow chip values."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        config = standard_initial(v, n)
        if seed % 2:
            occ = {}
            for value in cf.canonical_labels(v, n):
                occ.setdefault(int(rng.integers(-2, 3)), []).append(value)
            config = LabeledConfiguration.from_values(occ)
        for _ in range(300):
            enabled = config.enabled_sites(v)
            if not enabled:
                break
            children = []
            for site in enabled:
                ids = [c.id for c in config.chips_at(site)]
                chosen = tuple(rng.permutation(ids)[:v.threshold(site)].tolist())
                child = config.apply(v, site, chosen)
                assert child.occupancy == engine_reference.apply(config, v, site, chosen).occupancy
                children.append(child)
            config = children[int(rng.integers(len(children)))]


def _bad_moves(config, v):
    """One illegal move of each kind, against ``config``'s first enabled site."""
    site = config.enabled_sites(v)[0]
    ids = tuple(c.id for c in config.chips_at(site))
    th = v.threshold(site)
    idle = max(config.occupancy) + 2
    return [(idle, ()),                          # not enabled
            (site, ids[:th - 1]),                # too few chips
            (site, (ids[0],) * th),              # repeated chip
            (site, ids[:th - 1] + (10 ** 6,))]   # chip absent


@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_apply_rejects_bad_moves_like_reference(v, n):
    config = standard_initial(v, n)
    for move_site, chosen in _bad_moves(config, v):
        with pytest.raises(IllegalMoveError) as got:
            config.apply(v, move_site, chosen)
        with pytest.raises(IllegalMoveError) as want:
            engine_reference.apply(config, v, move_site, chosen)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_apply_leaves_its_parent_unchanged(v, n):
    """``apply`` fires on a copy, and the move rule checks a move before it
    writes anything, so neither a legal nor an illegal move changes the
    configuration or dict it was given."""
    config = standard_initial(v, n)
    snapshot = dict(config.occupancy)  # site tuples are never mutated
    site = config.enabled_sites(v)[0]
    config.apply(v, site, tuple(c.id for c in config.chips_at(site))[:v.threshold(site)])
    assert config.occupancy == snapshot
    for move_site, chosen in _bad_moves(config, v):
        with pytest.raises(IllegalMoveError):
            config.apply(v, move_site, chosen)
        assert config.occupancy == snapshot
        occupancy = dict(snapshot)
        with pytest.raises(IllegalMoveError):
            engine._move(occupancy, v, move_site, chosen)
        assert occupancy == snapshot


MOVE_FORMS = {"list": list, "tuple": tuple, "generator": lambda ids: (i for i in ids)}


@pytest.mark.parametrize("form", list(MOVE_FORMS))
@pytest.mark.parametrize("v", ALL_VARIANTS, ids=str)
def test_move_rule_paths_match_reference(v, form):
    """The move rule on a site holding exactly its threshold, where every
    chip present fires, and on one holding a chip more, each with
    tied values and a neighbour on one side only.  A legal choice, a repeated
    id and an absent id with the right count give the sort-based reference's
    occupancy or its IllegalMoveError text, and an illegal move leaves the
    dict it was given untouched."""
    site = 1
    th = v.threshold(site)
    for extra in (0, 1):
        config = LabeledConfiguration.from_values(
            {site - 1: [0, 2], site: [k // 2 for k in range(th + extra)]})
        ids = [c.id for c in config.chips_at(site)]
        fired = ids[::-1][:th] if extra else ids[::-1]  # given out of order
        absent = config.chips_at(site - 1)[0].id
        for chosen in (fired, fired[:th - 1] + fired[:1], fired[:th - 1] + [absent]):
            occupancy = dict(config.occupancy)
            try:
                want = engine_reference.apply(config, v, site, tuple(chosen)).occupancy
            except IllegalMoveError as exc:
                assert chosen is not fired
                with pytest.raises(IllegalMoveError) as got:
                    engine._move(occupancy, v, site, MOVE_FORMS[form](chosen))
                assert str(got.value) == str(exc)
                assert occupancy == config.occupancy
            else:
                engine._move(occupancy, v, site, MOVE_FORMS[form](chosen))
                assert occupancy == want


RUN_STRATEGIES = {"leftmost": LeftmostStrategy, "random": RandomStrategy,
                  "hold": lambda: HoldStrategy(range(0, 64, 3))}  # every third chip id held


def _replayed_final(trace):
    config = trace.initial
    for _, _, config in trace.replay(verify=False):
        pass
    return config


@pytest.mark.parametrize("strategy", RUN_STRATEGIES)
@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_runs_match_reference_run(v, n, strategy):
    """The in-place run gives the records and final configuration of a run
    that rebuilds every configuration, rescans the enabled sites and reads
    each record's values off the site."""
    for seed in range(3):
        trace = run_to_completion(standard_initial(v, n), v, RUN_STRATEGIES[strategy](), seed=seed)
        records, final = engine_reference.run(standard_initial(v, n), v,
                                              RUN_STRATEGIES[strategy](), seed)
        assert trace.records == records
        assert trace.final_config() == final


@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_records_view_reads_as_the_reference_records(v, n):
    """``Trace.records`` is a read-only sequence over the move log that
    indexes, slices, iterates and compares like the reference run's list."""
    trace = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=5)
    records, _ = engine_reference.run(standard_initial(v, n), v, RandomStrategy(), 5)
    view, k = trace.records, len(records)
    assert len(view) == len(trace) == k
    assert [view[i] for i in range(-k, k)] == records + records
    for i in (k, -k - 1):
        with pytest.raises(IndexError):
            view[i]
    for part in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2), slice(k, None)):
        assert view[part] == records[part]
    assert list(view) == records and list(reversed(view)) == records[::-1]
    assert view == records and records == view and view == trace.log
    assert view != records[:-1] and view != [*records[:-1], records[-1]._replace(site=k)]
    with pytest.raises(TypeError):
        view[0] = records[0]


def test_move_log_holds_under_100_bytes_per_move():
    """A base n=80 random run keeps its moves in flat columns: under 100
    bytes per move under tracemalloc, where one ``MoveRecord`` per move
    held about 270."""
    v = base()
    run_to_completion(standard_initial(v, 4), v, RandomStrategy())  # lazy set-up, not counted
    initial = standard_initial(v, 80)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_to_completion(initial, v, RandomStrategy(), seed=3101)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100 * len(trace), held / len(trace)


def test_move_log_holds_ints_past_int64():
    """Sites, ids and values are Python ints in the log: a run whose sites
    and chip values pass 2**63 writes, reads and replays like any other."""
    far = 2 ** 70
    initial = LabeledConfiguration({far: [Chip(-far, 3 * far), Chip(-1, 0), Chip(1, far),
                                          Chip(far, 1)]})
    trace = run_to_completion(initial, base(), RandomStrategy(), seed=4)
    assert {rec.site for rec in trace.records} == {far - 1, far, far + 1}
    assert {i for rec in trace.records for i in rec.chosen_ids} >= {3 * far}
    buf = io.StringIO()
    trace.write_jsonl(buf)
    back = engine.Trace.read_jsonl(io.StringIO(buf.getvalue()))
    assert [rec._replace(chosen_ids=()) for rec in back.records] == [
        rec._replace(chosen_ids=()) for rec in trace.records]
    assert [rec for _, rec, _ in back.replay(verify=True)] == back.records
    assert back.fire_counts() == trace.fire_counts()


@pytest.mark.parametrize("strategy", RUN_STRATEGIES)
@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_run_shares_no_dict_with_its_initial(v, n, strategy):
    """A run fires on its own copy of the initial occupancy: the initial it
    was given is left as it was, and the final configuration is the replayed
    one, over a dict of its own."""
    initial = standard_initial(v, n)
    trace = run_to_completion(initial, v, RUN_STRATEGIES[strategy](), seed=1)
    assert len(trace) > 0
    assert initial == trace.initial == standard_initial(v, n)
    assert trace.final_config() == _replayed_final(trace)
    assert trace.final_config().occupancy is not trace.initial.occupancy


@pytest.mark.parametrize("strategy", RUN_STRATEGIES)
@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_read_trace_shares_no_dict_with_its_initial(v, n, strategy):
    """``read_jsonl`` fires on its own copy too: its initial is the header's,
    and its final configuration is the replayed one, over a dict of its own."""
    buf = io.StringIO()
    original = run_to_completion(standard_initial(v, n), v, RUN_STRATEGIES[strategy](), seed=1)
    original.write_jsonl(buf)
    text = buf.getvalue()
    trace = engine.Trace.read_jsonl(io.StringIO(text))
    header = json.loads(text.splitlines()[0])
    assert len(trace) > 0
    assert trace.initial == LabeledConfiguration.from_values(
        {int(site): values for site, values in header["initial"].items()})
    assert trace.final_config() == _replayed_final(trace)
    assert trace.final_config().occupancy is not trace.initial.occupancy


class ScanCheckingStrategy(RandomStrategy):
    """Random moves; asserts that the enabled sites the run hands over equal a
    fresh scan, and counts the moves it was asked for."""

    def __init__(self):
        self.calls = 0

    def choose(self, config, enabled, variant, rng):
        assert enabled == config.enabled_sites(variant)
        self.calls += 1
        return super().choose(config, enabled, variant, rng)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_carried_enabled_sites_match_fresh_scan(data):
    # a random chain of up to 40 moves, cut by the move cap when it runs longer
    v, config = data.draw(variant_and_config())
    try:
        trace = run_to_completion(config, v, ScanCheckingStrategy(),
                                  seed=data.draw(st.integers(0, 2 ** 32)),
                                  move_cap=data.draw(st.integers(1, 40)))
    except NonTerminationError:
        return
    assert trace.final_config().enabled_sites(v) == []


@pytest.mark.parametrize("v,n", [(base(), 12), (multi_edge(2), 8), (origin_loops(2), 8),
                                 (loops_everywhere(), 11), (loops_and_edges(2), 6),
                                 (exponential(1), 8)])
def test_strategies_receive_fresh_enabled_sites_on_seeded_runs(v, n):
    for seed in range(3):
        strategy = ScanCheckingStrategy()
        trace = run_to_completion(standard_initial(v, n), v, strategy, seed=seed)
        assert strategy.calls == len(trace) > 0
        assert trace.final_config().enabled_sites(v) == []


# --- trace ingestion errors ---------------------------------------------------

def _trace_lines():
    v = base()
    trace = run_to_completion(standard_initial(v, 4), v, LeftmostStrategy())
    buf = io.StringIO()
    trace.write_jsonl(buf)
    return buf.getvalue().splitlines()


def _read(lines):
    return engine.Trace.read_jsonl(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("key", ["chosen_values", "site", "step"])
def test_read_jsonl_record_missing_key(key):
    lines = _trace_lines()
    record = json.loads(lines[2])
    del record[key]
    lines[2] = json.dumps(record)
    with pytest.raises(engine.ChipFiringError, match=rf"line 3, step 1: .*'{key}'"):
        _read(lines)


@pytest.mark.parametrize("key", ["variant", "initial"])
def test_read_jsonl_header_missing_key(key):
    lines = _trace_lines()
    header = json.loads(lines[0])
    del header[key]
    lines[0] = json.dumps(header)
    with pytest.raises(engine.ChipFiringError, match=rf"line 1: .*'{key}'"):
        _read(lines)


def test_read_jsonl_line_not_json():
    lines = _trace_lines()
    lines[3] = lines[3][:-5]
    with pytest.raises(engine.ChipFiringError, match="line 4: not JSON"):
        _read(lines)
    with pytest.raises(engine.ChipFiringError, match="line 1: not JSON"):
        _read(["{"])


def test_read_jsonl_illegal_move_names_line_and_step():
    lines = _trace_lines()
    record = json.loads(lines[1])
    record["chosen_values"] = [99, 100]
    lines[1] = json.dumps(record)
    with pytest.raises(IllegalMoveError, match="line 2, step 0: no chip valued 99"):
        _read(lines)


@pytest.mark.parametrize("line,field,bad", [
    (2, "chosen_values", 5), (2, "chosen_values", [1, "x"]), (2, "chosen_values", [1.0, 2]),
    (2, "site", 0.0), (2, "site", "0"), (2, "step", True), (3, "step", 1.5)])
def test_read_jsonl_rejects_non_integer_fields(line, field, bad):
    lines = _trace_lines()
    record = json.loads(lines[line - 1])
    record[field] = bad
    lines[line - 1] = json.dumps(record)
    with pytest.raises(engine.ChipFiringError, match=rf"^line {line}, step .*JSON integers"):
        _read(lines)


@pytest.mark.parametrize("steps,message", [
    ([7, 7, 7, 7, 7], "line 2, step 7: expected step 0"),  # all equal
    ([0, 1, 1, 2, 3], "line 5, step 1: expected step 2"),  # one duplicated
    ([0, 1, 3, 4, 5], "line 5, step 3: expected step 2"),  # one missing
])
def test_read_jsonl_rejects_misnumbered_steps(steps, message):
    lines = _trace_lines()
    assert len(lines) == 1 + len(steps)
    for i, step in enumerate(steps, 1):
        record = json.loads(lines[i])
        record["step"] = step
        lines[i] = json.dumps(record)
    lines.insert(2, "")  # line 3 is blank: skipped, and not counted as a move record
    with pytest.raises(engine.ChipFiringError, match=f"^{message}$"):
        _read(lines)


@pytest.mark.parametrize("initial", [{"0": "ab"}, {"0": [1, 2.0]}, {"0": [True, 2]}, {"0": 4}])
def test_read_jsonl_rejects_non_integer_initial_values(initial):
    lines = _trace_lines()
    header = json.loads(lines[0])
    header["initial"] = initial
    lines[0] = json.dumps(header)
    with pytest.raises(engine.ChipFiringError, match="^line 1: "):
        _read(lines)


@pytest.mark.parametrize("variant", [
    {"kind": "multi_edge", "r": 2.5}, {"kind": "multi_edge", "r": True}, {"kind": "multi_edge", "r": "2"},
    {"kind": "origin_loops", "s": 1.0}, {"kind": "exponential", "t": False},
    {"kind": "exponential", "t": None}])
def test_read_jsonl_rejects_non_integer_variant_parameters(variant):
    lines = _trace_lines()
    header = json.loads(lines[0])
    header["variant"] = variant
    lines[0] = json.dumps(header)
    with pytest.raises(engine.ChipFiringError, match="^line 1: .*must be a JSON integer"):
        _read(lines)


# --- trace round trip and mutated traces ----------------------------------------

ROUND_TRIP_CASES = [(base(), 7), (base(), 8), (multi_edge(2), 8), (origin_loops(2), 6),
                    (loops_everywhere(), 7), (loops_everywhere(), 9), (loops_and_edges(2), 6),
                    (exponential(1), 8)]
OTHER_TYPES = [None, True, 1.5, "x", "ab", [], [1, "x"], {}, {"kind": "base"}]


def _jsonl(case, seed) -> tuple[engine.Trace, str]:
    v, n = case
    trace = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=seed,
                              n=n, preset="origin")
    buf = io.StringIO()
    trace.write_jsonl(buf)
    return trace, buf.getvalue()


def _read_and_replay(text: str):
    trace = engine.Trace.read_jsonl(io.StringIO(text))
    final = trace.initial
    for _, _, final in trace.replay(verify=True):
        pass
    return trace, final


@given(st.sampled_from(ROUND_TRIP_CASES), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_seeded_traces_survive_round_trip(case, seed):
    original, text = _jsonl(case, seed)
    trace, final = _read_and_replay(text)
    assert trace.variant == case[0] and len(trace) == len(original)
    assert [(r.site, r.chosen_values) for r in trace.records] == \
        [(r.site, r.chosen_values) for r in original.records]
    assert final.values_by_site() == original.final_config().values_by_site()


@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
def test_read_trace_keeps_its_final_configuration(case, monkeypatch):
    original, text = _jsonl(case, 7)
    trace = engine.Trace.read_jsonl(io.StringIO(text))
    *_, (_, _, last) = trace.replay(verify=True)
    calls = []
    apply = LabeledConfiguration.apply
    monkeypatch.setattr(LabeledConfiguration, "apply",
                        lambda *args: calls.append(args) or apply(*args))
    final = trace.final_config()
    assert calls == []
    assert final == last
    assert final.values_by_site() == original.final_config().values_by_site()


@given(st.sampled_from(ROUND_TRIP_CASES), st.integers(0, 10_000),
       st.sampled_from([RandomStrategy, LeftmostStrategy]))
@settings(max_examples=60, deadline=None)
def test_trace_lines_are_the_records_json(case, seed, strategy):
    """Every line ``write_jsonl`` formats is ``json.dumps`` of the header or
    record, and reading them back gives the same run: the same records
    (chip ids too, where no two chips share a value) and final configuration."""
    v, n = case
    original = run_to_completion(standard_initial(v, n), v, strategy(), seed=seed,
                                 n=n, preset="origin")
    buf = io.StringIO()
    original.write_jsonl(buf)
    text = buf.getvalue()
    assert text.splitlines() == [json.dumps(original.header_json())] + [
        json.dumps(rec.to_json()) for rec in original.records]
    assert text.endswith("\n")
    trace = engine.Trace.read_jsonl(io.StringIO(text))
    values = [chip.value for _, chip in original.initial.chips()]
    if len(set(values)) == len(values):
        assert trace.records == original.records
        assert trace.final_config() == original.final_config()
    assert [rec._replace(chosen_ids=()) for rec in trace.records] == [
        rec._replace(chosen_ids=()) for rec in original.records]
    assert trace.final_config().values_by_site() == original.final_config().values_by_site()


class CountedDraws(engine.RandomDraws):
    """RandomDraws that counts the 32-bit halves it takes."""

    __slots__ = ("halves",)

    def __init__(self, seed):
        super().__init__(seed)
        self.halves = 0
        half = self._half

        def counted():
            self.halves += 1
            return half()
        self._half = counted


def assert_same_words(draws, rng, seed):
    """``rng`` has taken as many raw words as ``draws`` has halves and holds
    the same unused high half, so the two streams continue alike."""
    fresh = np.random.default_rng(seed).bit_generator
    fresh.random_raw((draws.halves + 1) // 2)
    assert rng.bit_generator.state["state"] == fresh.state["state"]
    assert rng.bit_generator.state["has_uint32"] == draws.halves % 2


def numpy_draw(rng, call):
    """What the Generator gives for a logged ``(method, args)``."""
    name, args = call
    if name == "integers":
        return int(rng.integers(*args))
    p, size = args
    return sorted(rng.choice(p, size=size, replace=False).tolist())


class LoggedDraws:
    """Passes draws through to the run's RandomDraws and logs each with its result."""

    def __init__(self, draws, log):
        self.draws, self.log = draws, log

    def integers(self, k):
        self.log.append((("integers", (k,)), self.draws.integers(k)))
        return self.log[-1][1]

    def sample(self, p, size):
        self.log.append((("sample", (p, size)), self.draws.sample(p, size)))
        return self.log[-1][1]


class LoggingStrategy(RandomStrategy):
    """Random moves that log the draws they make."""

    def __init__(self):
        self.log = []
        self.draws = None

    def choose(self, config, enabled, variant, rng):
        self.draws = rng
        return super().choose(config, enabled, variant, LoggedDraws(rng, self.log))


DRAW_CASES = [(base(), 30), (multi_edge(2), 16), (origin_loops(2), 12), (loops_everywhere(), 11),
              (loops_and_edges(2), 14), (exponential(2), 16)]


@pytest.mark.parametrize("v,n", DRAW_CASES)
def test_random_runs_draw_what_numpy_draws(v, n, monkeypatch):
    """Every draw of a random run equals the installed numpy's
    ``Generator.integers``/``choice`` on the same seed, and afterwards both
    have consumed the same raw words.  Each variant gives its own shapes:
    enabled-site counts, site sizes and thresholds, among them a single
    enabled site and a site holding exactly its threshold."""
    monkeypatch.setattr(engine, "RandomDraws", CountedDraws)
    shapes = set()
    for seed in range(12):
        strategy = LoggingStrategy()
        trace = run_to_completion(standard_initial(v, n), v, strategy, seed=seed)
        assert len(strategy.log) == 2 * len(trace)
        rng = np.random.default_rng(seed)
        for call, result in strategy.log:
            assert numpy_draw(rng, call) == result, (seed, call)
            shapes.add(call)
        assert_same_words(strategy.draws, rng, seed)
    assert ("integers", (1,)) in shapes
    assert any(name == "sample" and args[0] == args[1] for name, args in shapes)


@pytest.mark.parametrize("bounds", [
    [1, 2, 3, 7, 100],
    [2 ** 31 + 1, 3 * 2 ** 30 + 1],  # a try is rejected with odds ~1/2 and ~1/4
    [2 ** 32 - 5, 2 ** 32 - 1, 2 ** 32, 1, 2 ** 31 + 1, 5],
])
def test_bounded_draw_matches_numpy_integers(bounds):
    halves = tries = 0
    for seed in range(40):
        draws, rng = CountedDraws(seed), np.random.default_rng(seed)
        for i in range(300):
            k = bounds[i % len(bounds)]
            assert draws.integers(k) == int(rng.integers(k)), (seed, i, k)
            tries += k != 1
        assert_same_words(draws, rng, seed)
        halves += draws.halves
    assert halves > tries if max(bounds) > 2 ** 31 else halves == tries


def test_bounded_draw_rejects_exactly_the_tries_below_the_floor():
    """Lemire's rule at its edge, on chosen halves: for k = 2**31 + 1 a try
    is rejected iff the low word of ``half * k`` is below 2**32 % k."""
    k, floor = 2 ** 31 + 1, 2 ** 31 - 1
    assert 2 ** 32 % k == floor
    halves = [floor - 1, 2 ** 32 - 1, 7]
    assert [h * k & 0xFFFFFFFF for h in halves] == [floor - 1, floor, 2 ** 31 + 7]
    draws = engine.RandomDraws(0)
    draws._half = iter(halves).__next__
    assert draws.integers(k) == (2 ** 32 - 1) * k >> 32  # the second half, the first rejected
    assert draws.integers(k) == 7 * k >> 32 == 3


def test_sample_matches_numpy_choice():
    """Every (p, size) up to p = 24, then sites far larger than any
    threshold, on both sides of numpy's switch from Floyd's algorithm to a
    shuffle of the tail of range(p) (p > 10000 and size > p // 50);
    p == size == 1 takes no word."""
    shapes = [(p, size) for p in range(1, 25) for size in range(1, p + 1)]
    shapes += [(200, 2), (1000, 8), (10000, 201), (10001, 200),
               (10001, 201), (12000, 256), (20000, 20000)]
    for seed in range(8):
        draws, rng = CountedDraws(seed), np.random.default_rng(seed)
        for p, size in shapes:
            assert draws.sample(p, size) == numpy_draw(rng, ("sample", (p, size))), (seed, p, size)
        assert_same_words(draws, rng, seed)
    draws = CountedDraws(0)
    assert draws.sample(1, 1) == [0] and draws.integers(1) == 0 and draws.halves == 0


@st.composite
def mutated(draw, value):
    """``value`` with one field somewhere inside it changed or retyped."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        key = draw(st.sampled_from(keys))
        out = dict(value) if isinstance(value, dict) else list(value)
        out[key] = draw(mutated(value[key]))
        return out
    if type(value) is int and draw(st.booleans()):
        return value + draw(st.integers(-3, 3).filter(bool))
    if isinstance(value, str) and draw(st.booleans()):
        return draw(st.sampled_from(["base", "multi_edge", "exponential", "nope"]))
    return draw(st.sampled_from([x for x in OTHER_TYPES if x != value]))


@given(st.sampled_from(ROUND_TRIP_CASES), st.integers(0, 100), st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_traces_raise_only_chip_firing_errors(case, seed, data):
    _, text = _jsonl(case, seed)
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        lines[i] = json.dumps(data.draw(mutated(json.loads(lines[i]))))
        text = "\n".join(lines) + "\n"
    try:
        _read_and_replay(text)
    except engine.ChipFiringError:
        pass
