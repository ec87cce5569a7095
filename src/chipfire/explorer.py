"""Exhaustive search over labeled configurations.

States are canonicalized by erasing chip ids: two configurations equal up
to id permutation among equal values have identical futures, because the
firing rule depends only on values.  The reachable canonical-state graph
is expanded breadth first; since every move raises the total fire count by
one, levels are graded and deduplication stays within a level.  One
generator, ``_levels``, makes the levels; ``explore`` reads them, keeping
each for the witness walk and taking the last level's rows as terminals:
every maximal firing sequence from a start has the same length (Björner,
Lovász and Shor 1991), so a row with no move on an earlier level is a fault.

Inside the search a state is one row of ``uint16`` chips, each
``(site + 128) << 8 | (value + 128)``, in ascending order (``_row`` and
``_state`` convert), so rows sort like the signed ``(site, value)``
sequences they encode.  A level is one sorted ``(S, n)`` array and is
expanded as a whole: the chips at a site are contiguous in a row, so a T-column combination
(in lexicographic order) is a move exactly when its first and last columns
share a site whose threshold is T.

Every variant, and the origin preset, is symmetric under site -> -site,
value -> -value, and on a row that mirror is ``0x0100 - row[::-1]`` in
``uint16`` arithmetic.  A start equal to its mirror is searched one mirror
class at a time: each level keeps the smaller of every child and its mirror
(Ip and Dill, "Better verification through symmetry", 1996) and counts
2q - s states for q classes of which s are their own mirror.  No parents
are kept; a witness walks back from its terminal, one level at a time, to
the smallest parent the previous level holds up to mirror, which is the
parent the search without the quotient would have recorded.  Only the move
table states the move rule: ``expand`` confirms every parent of the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, count

import numpy as np

from .engine import (CapExceededError, ChipFiringError, HoldStrategy, LabeledConfiguration,
                     ScriptedValuesStrategy, Trace, run_to_completion, standard_initial)
from .poset import DEFAULT_STATE_CAP, RepresentationLimitError, _first_unique
from .variants import Variant

KEY_OFFSET = 128  # a uint16 chip stores site + 128 and value + 128, one byte each
KEY_LIMIT = 120   # largest |site| reach and |value| a uint16 chip is allowed to hold
SITE_STEP = 1 << 8  # one site to the right, in a uint16 chip
SLICE_CELLS = 1 << 21  # rows x combinations tested at once while expanding a level
COMBINATION_LIMIT = 1 << 21  # most column combinations a search may test per state

# canonical state: ((site, (values...)), ...) sorted by site
CanonicalState = tuple[tuple[int, tuple[int, ...]], ...]


def canonicalize(config: LabeledConfiguration) -> CanonicalState:
    return tuple(config.values_by_site().items())


def is_weakly_sorted_state(state: CanonicalState) -> bool:
    flat = [v for _, values in state for v in values]
    return all(a <= b for a, b in zip(flat, flat[1:]))


def _row(state: CanonicalState) -> np.ndarray:
    return np.array([(site + KEY_OFFSET) << 8 | (v + KEY_OFFSET)
                     for site, values in state for v in values], np.uint16)


def _state(row: np.ndarray) -> CanonicalState:
    occ: dict[int, list[int]] = {}
    for chip in row.tolist():
        occ.setdefault((chip >> 8) - KEY_OFFSET, []).append((chip & 0xFF) - KEY_OFFSET)
    return tuple((s, tuple(v)) for s, v in occ.items())


def _check_key_limit(state: CanonicalState):
    nchips = sum(len(values) for _, values in state)
    if nchips:
        radius = max(abs(site) for site, _ in state) + nchips + 2
        maxval = max(abs(v) for _, vals in state for v in vals)
        if radius > KEY_LIMIT or maxval > KEY_LIMIT:
            raise RepresentationLimitError(
                f"labeled states are uint16 chips: need |site|, |value| <= {KEY_LIMIT}, "
                f"got reach {radius} and max |value| {maxval}")


class _MoveTable:
    """The moves of ``variant`` on rows of ``nchips`` chips, one block per threshold.

    A block holds, for one threshold T, the T-column combinations in
    lexicographic order, per site byte the ``uint16`` deltas that send the
    ``left`` smallest chosen chips one site left and the ``right`` largest
    one site right, and per site byte whether T is that site's threshold.
    Rows are expanded in slices whose size keeps rows x combinations near
    ``SLICE_CELLS``.  Rows with more than ``COMBINATION_LIMIT`` combinations
    are refused, because their tables would not fit in memory.  ``bundles``
    holds each site byte's (left, right), the chips a move there sends
    away, and ``symmetric`` whether the moves commute with ``_mirror``.
    """

    def __init__(self, variant: Variant, nchips: int):
        table = np.array([variant.site_row(b - KEY_OFFSET) for b in range(256)])
        left, loop, _, thresholds = table.T
        used = [t for t in sorted(set(thresholds.tolist())) if t <= nchips]
        cells = sum(math.comb(nchips, t) for t in used)
        if cells > COMBINATION_LIMIT:
            raise CapExceededError(
                f"labeled moves of {nchips} chips need {cells} column combinations "
                f"per state, more than {COMBINATION_LIMIT}", states_visited=1, frontier=1)
        self.slice_rows = max(1, SLICE_CELLS // max(1, cells))
        # site byte b mirrors to 256 - b: the moves commute with ``_mirror``
        # when thresholds match and left and right bundles swap
        self.symmetric = np.array_equal(table[1:], table[:0:-1, [2, 1, 0, 3]])
        # (left, right) per site byte, zero where nchips chips cannot fire
        self.bundles = np.where((thresholds <= nchips)[:, None], table[:, [0, 2]], 0).tolist()
        self.blocks = []
        for t in used:
            fires = thresholds == t
            col = np.arange(t)
            delta = np.where(col < left[:, None], -SITE_STEP % (1 << 16),
                             np.where(col < (left + loop)[:, None], 0, SITE_STEP))
            delta[~fires] = 0
            combos = np.array(list(combinations(range(nchips), t)), np.intp)
            self.blocks.append((combos, delta.astype(np.uint16), fires))

    def expand(self, rows: np.ndarray):
        """Every move of every row, in (block, row, combination) order.

        Returns ``(parent, children, block, comb)``: per move the row it
        starts from, the sorted child row, and the block and combination
        that chose its chips.
        """
        sites = rows >> 8
        parts = []
        for k, (combos, delta, fires) in enumerate(self.blocks):
            first = sites[:, combos[:, 0]]
            parent, comb = np.nonzero(first == sites[:, combos[:, -1]])
            site = first[parent, comb]
            legal = fires[site]
            parent, comb, site = parent[legal], comb[legal], site[legal]
            children = rows[parent]
            children[np.arange(parent.size)[:, None], combos[comb]] += delta[site]
            children.sort(axis=1)
            parts.append((parent, children, np.full(parent.size, k), comb))
        if len(parts) == 1:
            return parts[0]
        if not parts:
            empty = np.zeros(0, np.intp)
            return empty, rows[:0], empty, empty
        return tuple(np.concatenate(a) for a in zip(*parts))

    def parents(self, row: np.ndarray):
        """Every row with a move to ``row``, ascending, and each one's first move there.

        A move at site byte b sends ``left`` chosen chips to b - 1 and
        ``right`` to b + 1.  Every way of putting that many back at b is
        proposed, and ``expand`` keeps the proposals that reach ``row``;
        a kept row's first move, in (block, combination) order, is given
        as ``(site, chosen values)``.
        """
        chips = row.tolist()
        columns: dict[int, list[int]] = {}
        for i, chip in enumerate(chips):
            columns.setdefault(chip >> 8, []).append(i)
        proposed = set()
        for b in {site + step for site in columns for step in (-1, 1)}:
            left, right = self.bundles[b]
            for back in combinations(columns.get(b - 1, ()), left):
                for down in combinations(columns.get(b + 1, ()), right):
                    proposed.add(tuple(sorted(c + SITE_STEP * ((i in back) - (i in down))
                                              for i, c in enumerate(chips))))
        rows = np.array(sorted(proposed), np.uint16).reshape(-1, row.size)
        parent, children, block, comb = self.expand(rows)
        hit = np.flatnonzero((children == row).all(axis=1))
        kept, first = np.unique(parent[hit], return_index=True)
        return rows[kept], [_state(rows[parent[i]][self.blocks[block[i]][0][comb[i]]])[0]
                            for i in hit[first]]


@dataclass
class ExplorationReport:
    """Outcome of an exhaustive exploration."""

    states_visited: int
    terminals: tuple[CanonicalState, ...]
    confluent: bool
    sorted_terminal_count: int
    witness: list[tuple[int, tuple[int, ...]]] | None = None

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

    def unsorted_terminals(self) -> tuple[CanonicalState, ...]:
        return tuple(t for t in self.terminals if not is_weakly_sorted_state(t))

    def to_json(self) -> dict:
        return {
            "states_visited": self.states_visited,
            "terminal_count": self.terminal_count,
            "confluent": self.confluent,
            "sorted_terminal_count": self.sorted_terminal_count,
            "terminals": [{str(s): list(v) for s, v in t} for t in self.terminals],
            "witness": ([{"site": s, "chosen_values": list(v)} for s, v in self.witness]
                        if self.witness is not None else None),
        }


def _mirror(rows: np.ndarray) -> np.ndarray:
    """Rows of the mirror states, site -> -site and value -> -value, still ascending.

    A chip's bytes b become 256 - b, so the chip becomes 0x10100 - chip,
    which the ``uint16`` wraparound computes as 0x0100 - chip.
    """
    return np.uint16(0x0100) - rows[..., ::-1]


def _canonicalize(rows: np.ndarray) -> np.ndarray:
    """Replace each row by the smaller of itself and its mirror, in place.

    Returns which rows are their own mirror.
    """
    mirror = _mirror(rows)
    differ = rows != mirror
    at = np.arange(len(rows))
    col = differ.argmax(axis=1)
    swap = mirror[at, col] < rows[at, col]
    rows[swap] = mirror[swap]
    return ~differ[at, col]


def _levels(start: np.ndarray, moves: _MoveTable, mirrored: bool, state_cap: int):
    """Graded BFS from the row ``start``, yielding ``(rows, visited)`` per level:
    its sorted rows and the states counted through it, 2q - s for q rows of
    which s are their own mirror when ``mirrored``.  Every maximal firing
    sequence has the same length, so only the last level may hold a row
    with no move; one earlier raises ChipFiringError.  A level past
    ``state_cap`` raises CapExceededError unyielded."""
    rows = start[None]
    visited = width = 1
    for depth in count(1):
        yield rows, visited
        stuck = np.ones(len(rows), np.bool_)
        kids, kid_same = [], []
        for lo in range(0, len(rows), moves.slice_rows):
            parent, children, _, _ = moves.expand(rows[lo:lo + moves.slice_rows])
            stuck[lo:lo + moves.slice_rows][parent] = False
            # unquotiented, every row is counted as its own mirror: 2q - q
            same = (_canonicalize(children) if mirrored
                    else np.ones(len(children), np.bool_))
            first = _first_unique(children)
            kids.append(children[first])
            kid_same.append(same[first])
        children = np.concatenate(kids)
        if not len(children):
            return
        if stuck.any():
            raise ChipFiringError(
                "a non-final labeled state had no successors (premature deadlock)")
        same = np.concatenate(kid_same)
        if len(kids) > 1:
            first = _first_unique(children)
            children, same = children[first], same[first]
        frontier_width, width = width, 2 * len(children) - int(np.count_nonzero(same))
        visited += width
        if visited > state_cap:
            raise CapExceededError(
                f"labeled exploration exceeded {state_cap} states",
                states_visited=visited, level=depth, frontier=frontier_width)
        rows = children


def _level_keys(level: np.ndarray) -> np.ndarray:
    """A level's rows as big-endian byte strings, which sort like the rows."""
    return level.astype(">u2").view(f"S{2 * level.shape[1]}").ravel()


def _step_back(keys: np.ndarray, moves: _MoveTable, mirrored: bool, child: np.ndarray):
    """Smallest parent of ``child`` that the previous level holds, and its first move there.

    ``keys`` are that level's ``_level_keys``; under the quotient a parent
    is looked up by its ``_canonicalize``d form.  Moves are taken in row
    order, so this is the parent of ``child``'s first occurrence in the
    search without the quotient.
    """
    rows, first = moves.parents(child)
    stored = rows.copy()
    if mirrored:
        _canonicalize(stored)
    stored = _level_keys(stored)
    at = np.minimum(np.searchsorted(keys, stored), len(keys) - 1)
    i = int(np.argmax(keys[at] == stored))
    return rows[i], first[i]


def _witness(levels: list[np.ndarray], moves: _MoveTable, mirrored: bool,
             row: np.ndarray) -> list[tuple[int, tuple[int, ...]]]:
    """Moves from the start to ``row`` of the last level, walking back one parent at a time."""
    back = []
    for level in levels[-2::-1]:
        row, move = _step_back(_level_keys(level), moves, mirrored, row)
        back.append(move)
    return back[::-1]


def explore(initial: LabeledConfiguration, variant: Variant,
            state_cap: int = DEFAULT_STATE_CAP) -> ExplorationReport:
    """Visit the full reachable canonical-state graph and collect terminals.

    Keeps every level ``_levels`` yields for the witness walk and reads the
    last level's rows, with their mirrors under the quotient, as terminals.
    Raises RepresentationLimitError for a start a ``uint16`` chip cannot hold, and
    CapExceededError (carrying states_visited, level and frontier) when the
    cap is hit.  A start equal to its mirror (site -> -site, value -> -value),
    such as every origin preset, is searched one mirror class at a time;
    counts, terminals and witness are those of the full space.  The witness
    is a move sequence to the smallest non-weakly-sorted terminal row, if
    there is one, found by walking back from it.
    """
    canonical = canonicalize(initial)
    _check_key_limit(canonical)
    start = _row(canonical)
    moves = _MoveTable(variant, start.size)
    mirrored = start.size > 0 and moves.symmetric and np.array_equal(start, _mirror(start))
    levels = []
    for rows, visited in _levels(start, moves, mirrored, state_cap):
        levels.append(rows)
    ends = levels[-1]
    if mirrored:
        ends = np.concatenate([ends, _mirror(ends)])
        ends = ends[_first_unique(ends)]
    states = [_state(row) for row in ends]
    weakly_sorted = [is_weakly_sorted_state(state) for state in states]
    witness = None
    if not all(weakly_sorted):
        witness = _witness(levels, moves, mirrored, ends[weakly_sorted.index(False)])
    return ExplorationReport(states_visited=visited, terminals=tuple(sorted(states)),
                             confluent=len(states) == 1,
                             sorted_terminal_count=sum(weakly_sorted), witness=witness)


def find_unsorted_terminal(initial: LabeledConfiguration, variant: Variant,
                           report: ExplorationReport) -> Trace | None:
    """Replay the witness of ``report``, from ``explore(initial, variant)``.

    Returns the trace reaching a non-weakly-sorted terminal, or None if the
    search found none.  ChipFiringError if the witness does not end where
    the run does.
    """
    if report.witness is None:
        return None
    strategy = ScriptedValuesStrategy(report.witness)
    trace = run_to_completion(initial, variant, strategy)
    if len(trace) != len(report.witness):
        raise ChipFiringError(f"the witness of {len(report.witness)} moves replayed to a "
                              f"terminal after {len(trace)} moves")
    return trace


def adversarial_1mod4(m: int) -> Trace:
    """Hold-both-lowest-chips schedule for one-self-loop runs with 4m+1 chips.

    Runs with the two lowest-valued chips held back for as long as legal
    moves allow, then to completion.  The terminal is expected to be
    non-weakly-sorted for every m >= 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    variant = Variant("loops_everywhere")
    n = 4 * m + 1
    initial = standard_initial(variant, n)
    low = min(chip.value for _, chip in initial.chips())
    held = [chip.id for _, chip in initial.chips() if chip.value == low]
    return run_to_completion(initial, variant, HoldStrategy(held), n=n, preset="origin")
