"""Both breadth-first searches against simple references, pinned outputs
and each other.

The labeled search in ``explorer`` and the fire-count search in ``poset``
must keep their visiting order exactly, because witnesses, reports and DOT
files are derived from it.  The pinned values below were recorded before
the searches were rewritten and must not change.  Each search states the
move rule its own way (``explorer._MoveTable`` and the fire-count ``flow``),
so their levels are compared depth by depth.
"""

import hashlib
import json
import time
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest

from chipfire import closedform, explorer, poset
from chipfire.engine import ChipFiringError, standard_initial
from chipfire.explorer import canonicalize, explore
from chipfire.poset import check_grid_structure, reachable_states
from chipfire.variants import (Variant, base, exponential, loops_and_edges, loops_everywhere,
                               multi_edge, origin_loops)
import labeled_reference
from labeled_reference import successor_outcomes
from poset_reference import chips_at

DATA = Path(__file__).parent / "data"


# --- fire-count search ------------------------------------------------------

def dict_bfs(variant, n):
    """Every reachable fire-count vector as sorted ``(site, fires)`` pairs."""
    initial = {0: n}
    seen = {()}
    frontier = [{}]
    while frontier:
        nxt = []
        for state in frontier:
            lo, hi = min(state, default=0) - 1, max(state, default=0) + 1
            for site in range(lo, hi + 1):
                if chips_at(state, site, variant, initial) >= variant.threshold(site):
                    child = {**state, site: state.get(site, 0) + 1}
                    key = tuple(sorted(child.items()))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(child)
        frontier = nxt
    return seen


@pytest.mark.parametrize("variant,n", [(base(), n) for n in range(2, 11)] + [
    (multi_edge(2), 8), (multi_edge(2), 12), (loops_everywhere(), 7),
    (loops_everywhere(), 11), (origin_loops(1), 9), (exponential(1), 8)])
def test_reachable_states_match_dict_bfs(variant, n):
    space = reachable_states(variant, n)
    got = [tuple((s, int(c)) for s, c in zip(space.sites, row) if c) for row in space.states]
    assert len(got) == len(set(got))
    assert set(got) == dict_bfs(variant, n)


# SHA-1 of ``states.tobytes()``, recorded before the search keyed rows by words
ROW_PINS = {
    "base-14": (base(), 14, (23_744, 13), "e68973d98b9e1388c21321c1a0fa477ea836bdc7"),
    "base-16": (base(), 16, (140_223, 15), "34dd01f3ca963c28a1d980d4a3acaaafdc84e5a3"),
    "loops-15": (loops_everywhere(), 15, (321, 7), "a161eb15978b2f07ffd0d5dd7bb5f92777145a55"),
    "multi_edge2-12": (multi_edge(2), 12, (29, 5), "2a3e4f6313d37b74adc490fa6324e4b3f375c090"),
    "origin_loops1-9": (origin_loops(1), 9, (144, 7), "a774bd04672bfb032208ff5466224384717c46d2"),
    "loops_and_edges2-14": (loops_and_edges(2), 14, (8, 3),
                            "786bacd52800148fc84d0989f3d036e9331b7877"),
    "exponential2-16": (exponential(2), 16, (93, 7), "f7bd00545c35903e56248126d479cc8f6fd6f3af"),
    "exponential3-32": (exponential(3), 32, (351, 9), "7e668e8cad8e85e47dd27c4970ba8e4752c0eda6"),
    "base-10": (base(), 10, (747, 9), "cc230fa4b7e5c5dc01c9b8a961c83c003a94e022"),
    # the largest flow entries pinned (128 at the origin), recorded before
    # chip counts were computed as float64 products
    "exponential6-256": (exponential(6), 256, (19_737, 15),
                         "be42c731b439882c6f3ddaf230cb48a132fbb026"),
}


def _assert_pinned(case):
    variant, n, shape, digest = ROW_PINS[case]
    space = reachable_states(variant, n)
    assert space.states.shape == shape and space.states.dtype == np.int16
    assert hashlib.sha1(space.states.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("case", ROW_PINS)
def test_reachable_states_rows_pinned(case):
    _assert_pinned(case)


@pytest.mark.parametrize("bits", [4, 10])
@pytest.mark.parametrize("case", ["base-10", "loops-15", "exponential3-32"])
def test_multi_word_keys_keep_rows(monkeypatch, case, bits):
    # a small word limit cuts each key into several words; at 4 bits some
    # words hold a single column whose radix alone passes the limit
    monkeypatch.setattr(poset, "_WORD_LIMIT", 2 ** bits)
    variant, n, _, _ = ROW_PINS[case]
    table = closedform.fire_count_table(variant, n)
    _, word = poset._key_layout(np.array([table[s] for s in sorted(table)]))
    assert word[-1] >= 2
    _assert_pinned(case)


def _patch_table(monkeypatch, edit):
    table = closedform.fire_count_table

    def patched(variant, n):
        out = dict(table(variant, n))
        edit(out)
        return out
    monkeypatch.setattr(poset.closedform, "fire_count_table", patched)


def test_narrowed_window_is_detected(monkeypatch):
    _patch_table(monkeypatch, lambda t: t.pop(max(t)))
    with pytest.raises(ChipFiringError, match="outside the closed-form window"):
        reachable_states(base(), 6)


def test_lowered_total_is_detected(monkeypatch):
    _patch_table(monkeypatch, lambda t: t.update({0: t[0] - 1}))
    with pytest.raises(ChipFiringError, match="exceeded its closed-form total"):
        reachable_states(base(), 6)


def test_raised_total_is_detected(monkeypatch):
    _patch_table(monkeypatch, lambda t: t.update({0: t[0] + 1}))
    with pytest.raises(ChipFiringError, match="differs from closed-form totals"):
        reachable_states(base(), 6)


class _Leaky(Variant):
    """Fires with a single chip but still sends one chip to each side."""

    def threshold(self, site):
        return 1


def test_negative_chips_are_detected(monkeypatch):
    monkeypatch.setattr(poset.closedform, "fire_count_table",
                        lambda variant, n: {s: 20 for s in range(-3, 4)})
    with pytest.raises(ChipFiringError, match="negative chip count"):
        reachable_states(_Leaky(), 2)


def test_total_above_int16_is_refused(monkeypatch):
    _patch_table(monkeypatch, lambda t: t.update({0: 40_000}))
    with pytest.raises(ChipFiringError, match="above the int16 bound 32767"):
        reachable_states(base(), 6)


class _Heavy(Variant):
    """Bundles so heavy that chip counts could pass float64's exact integers."""

    def site_row(self, site):
        return 2 ** 40, 0, 2 ** 40, 2 ** 41


def test_chips_past_float64_exactness_are_refused():
    with pytest.raises(ChipFiringError, match="exactness bound 2\\*\\*53"):
        reachable_states(_Heavy(), 4)


def test_premature_deadlock_is_detected(monkeypatch):
    expand = poset._expand
    table = closedform.fire_count_table(base(), 4)
    final = np.array([table[s] for s in sorted(table)], np.int16)

    def broken(*args):
        # a broken expansion step that turns one of several states into the final one
        succ, keys = expand(*args)
        if len(succ) > 1:
            succ[-1] = final
        return succ, keys
    monkeypatch.setattr(poset, "_expand", broken)
    with pytest.raises(ChipFiringError, match="premature deadlock"):
        reachable_states(base(), 4)


def test_labeled_premature_deadlock_is_detected(monkeypatch):
    expand = explorer._MoveTable.expand

    def broken(self, rows):
        # a broken move table that takes every move from the last of several rows
        moves = expand(self, rows)
        if len(rows) > 1:
            keep = moves[0] != len(rows) - 1
            moves = tuple(a[keep] for a in moves)
        return moves
    monkeypatch.setattr(explorer._MoveTable, "expand", broken)
    with pytest.raises(ChipFiringError, match="premature deadlock"):
        explore(standard_initial(base(), 6), base())


def test_duplicate_terminal_rows_are_detected(monkeypatch):
    # a broken expansion step that does not deduplicate
    monkeypatch.setattr(poset, "_first_unique", lambda rows: np.arange(len(rows)))
    with pytest.raises(ChipFiringError, match="distinct terminal fire-count states"):
        reachable_states(base(), 4)


# --- labeled search ---------------------------------------------------------

def test_explore_base_n7_report_pinned():
    report = explore(standard_initial(base(), 7), base())
    assert report.to_json() == json.loads((DATA / "explore_base_n7.json").read_text())


def test_byte_keys_sort_like_signed_rows():
    states = [canonicalize(standard_initial(base(), 7))]
    for _ in range(4):
        states = sorted({c for s in states for c in successor_outcomes(s, base())})
    rows = np.array([[x for site, values in s for v in values for x in (site, v)]
                     for s in states], np.int8)
    order = sorted(range(len(states)), key=lambda i: labeled_reference.key(states[i]))
    assert np.array_equal(rows[order], np.unique(rows, axis=0))
    assert all(explorer._row(s).astype(">u2").tobytes() == labeled_reference.key(s)
               for s in states)
    assert all(explorer._state(explorer._row(s)) == s for s in states)


def test_key_limit_rejects_before_searching():
    start = time.perf_counter()
    with pytest.raises(poset.RepresentationLimitError, match="<= 120"):
        explore(standard_initial(base(), 130), base())
    assert time.perf_counter() - start < 5


# --- the two searches against each other ------------------------------------

def _chip_patterns(counts: np.ndarray) -> np.ndarray:
    """The distinct rows of chip counts per site, as sorted byte strings."""
    assert 0 <= counts.min() and counts.max() < 256
    return np.unique(counts.astype(np.uint8).view(f"S{counts.shape[1]}").ravel())


@pytest.mark.parametrize("variant,n", [
    (base(), 8), (base(), 9), (base(), 10), (loops_everywhere(), 9), (loops_everywhere(), 11),
    (multi_edge(2), 8), (origin_loops(1), 7), (exponential(1), 8), (loops_and_edges(2), 6)],
    ids=str)
def test_labeled_levels_hold_the_fire_count_levels_chips(variant, n):
    """At every depth the chip counts per site of the labeled level, each
    mirror class taken with its mirror, are exactly the chip vectors
    ``initial + flow.T @ fires`` of the fire-count level, over the window and
    one site on each side, and no two fire-count states of a level share
    one: a labeled state's site pattern fixes its fire counts."""
    space = reachable_states(variant, n)
    width = space.flow.shape[1]
    initial = np.concatenate(([0], space.initial, [0]))
    start = explorer._row(canonicalize(standard_initial(variant, n)))
    moves = explorer._MoveTable(variant, start.size)
    mirrored = moves.symmetric and np.array_equal(start, explorer._mirror(start))
    labeled = explorer._levels(start, moves, mirrored, poset.DEFAULT_STATE_CAP)
    counted = poset._levels(variant, space.sites, space.totals, space.initial, space.flow,
                            poset.DEFAULT_STATE_CAP)
    depth = states = 0
    for level in zip_longest(labeled, counted):
        assert None not in level, depth  # one search went deeper than the other
        (rows, _), (fires, _) = level
        if mirrored:
            rows = np.concatenate([rows, explorer._mirror(rows)])
        cells = (rows >> 8).astype(np.intp) - (explorer.KEY_OFFSET + space.sites[0] - 1)
        assert 0 <= cells.min() and cells.max() < width
        counts = np.bincount((cells + width * np.arange(len(rows))[:, None]).ravel(),
                             minlength=width * len(rows)).reshape(-1, width)
        want = _chip_patterns(initial + fires.astype(np.int64) @ space.flow)
        assert len(want) == len(fires)
        assert np.array_equal(_chip_patterns(counts), want), depth
        depth += 1
        states += len(fires)
    assert (depth, states) == (space.totals.sum() + 1, space.n_states)


# (variant, n, (grid check passes, terminals, sorted terminals)); base n=11
# is left out because its labeled search takes about 12 s
GRID_VS_EXPLORE = [
    (base(), 2, (True, 1, 1)), (base(), 3, (False, 3, 1)), (base(), 4, (True, 1, 1)),
    (base(), 5, (False, 12, 1)), (base(), 6, (True, 1, 1)), (base(), 7, (False, 54, 1)),
    (base(), 8, (True, 1, 1)), (base(), 9, (False, 232, 1)), (base(), 10, (True, 1, 1)),
    (loops_everywhere(), 5, (True, 3, 1)), (loops_everywhere(), 9, (True, 4, 1)),
    (loops_everywhere(), 13, (True, 6, 1)),
]


@pytest.mark.parametrize("variant,n,row", GRID_VS_EXPLORE,
                         ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_what_a_grid_pass_certifies(variant, n, row):
    """On the base line the grid check passes exactly when ``explore`` finds
    a single terminal, the sorted one.  On loops n = 4m+1 it passes although
    ``explore`` finds several terminals, only one of them sorted, so a loops
    grid PASS is no sorting proof."""
    report = explore(standard_initial(variant, n), variant)
    passed = check_grid_structure(reachable_states(variant, n)).passed
    assert (passed, report.terminal_count, report.sorted_terminal_count) == row
