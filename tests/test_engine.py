import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import closedform as cf
from chipfire import engine
from chipfire.engine import (Chip, IllegalMoveError, LabeledConfiguration,
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
    # corrupt one record and watch the replay catch it
    rec = trace.records[2]
    trace.records[2] = rec._replace(present_before=rec.present_before + 1)
    with pytest.raises(engine.ChipFiringError):
        list(trace.replay(verify=True))


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
        {s: [Chip(perm[c.id], c.value) for c in cs] for s, cs in config.occupancy.items()})
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


@pytest.mark.parametrize("v,n", REFERENCE_CASES)
def test_apply_rejects_bad_moves_like_reference(v, n):
    config = standard_initial(v, n)
    site = config.enabled_sites(v)[0]
    ids = tuple(c.id for c in config.chips_at(site))
    th = v.threshold(site)
    idle = max(config.occupancy) + 2
    for move_site, chosen in [(idle, ()),                          # not enabled
                              (site, ids[:th - 1]),                # too few chips
                              (site, (ids[0],) * th),              # repeated chip
                              (site, ids[:th - 1] + (10 ** 6,))]:  # chip absent
        with pytest.raises(IllegalMoveError) as got:
            config.apply(v, move_site, chosen)
        with pytest.raises(IllegalMoveError) as want:
            engine_reference.apply(config, v, move_site, chosen)
        assert str(got.value) == str(want.value)


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


class CountingGenerator:
    """A numpy Generator that counts the calls made to each of its methods."""

    def __init__(self, rng):
        self._rng = rng
        self.calls: dict[str, int] = {}

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("v,n", [(base(), 30), (loops_everywhere(), 11)])
def test_random_strategy_draws_integers_and_choice_once_per_move(v, n, monkeypatch):
    """The RNG stream seeded traces rest on: one ``integers`` and one
    ``choice`` call per move, nothing else."""
    for seed in range(3):
        plain = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=seed)
        generators = []

        def counting_rng(seed, default_rng=np.random.default_rng):
            generators.append(CountingGenerator(default_rng(seed)))
            return generators[-1]
        monkeypatch.setattr(engine.np.random, "default_rng", counting_rng)
        trace = run_to_completion(standard_initial(v, n), v, RandomStrategy(), seed=seed)
        monkeypatch.undo()
        assert trace.records == plain.records
        assert [g.calls for g in generators] == [{"integers": len(trace), "choice": len(trace)}]


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
