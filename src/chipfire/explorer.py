"""Exhaustive search over labeled configurations.

States are canonicalized by erasing chip ids: two configurations equal up
to id permutation among equal values have identical futures, because the
firing rule depends only on values.  The reachable canonical-state graph
is expanded breadth first; since every move raises the total fire count by
one, levels are graded and deduplication stays within a level.

Inside the search a state is one row of ``uint16`` chips, each
``(site + 128) << 8 | (value + 128)``, in ascending order (``_row`` and
``_state`` convert), so rows sort like the signed ``(site, value)``
sequences they encode.  A level is one sorted ``(S, n)`` array and is
expanded as a whole: the chips at a site are contiguous in a row, so a T-column combination
(in lexicographic order) is a move exactly when its first and last columns
share a site whose threshold is T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .engine import (CapExceededError, LabeledConfiguration, ScriptedValuesStrategy,
                     HoldStrategy, Trace, run_to_completion, standard_initial)
from .poset import DEFAULT_STATE_CAP, _first_unique
from .variants import Variant

KEY_OFFSET = 128  # a uint16 chip stores site + 128 and value + 128, one byte each
KEY_LIMIT = 120   # largest |site| reach and |value| a uint16 chip is allowed to hold
SITE_STEP = 1 << 8  # one site to the right, in a uint16 chip
SLICE_CELLS = 1 << 21  # rows x combinations tested at once while expanding a level
COMBINATION_LIMIT = 1 << 21  # most column combinations a search may test per state

# canonical state: ((site, (values...)), ...) sorted by site
CanonicalState = tuple[tuple[int, tuple[int, ...]], ...]


class StateKeyLimitError(ValueError):
    """The initial configuration could reach sites or holds values a uint16 chip cannot hold."""


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
            raise StateKeyLimitError(
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
    are refused, because their tables would not fit in memory.
    """

    def __init__(self, variant: Variant, nchips: int):
        thresholds = np.array([variant.threshold(b - KEY_OFFSET) for b in range(256)])
        used = [int(t) for t in np.unique(thresholds) if t <= nchips]
        cells = sum(math.comb(nchips, t) for t in used)
        if cells > COMBINATION_LIMIT:
            raise CapExceededError(
                f"labeled moves of {nchips} chips need {cells} column combinations "
                f"per state, more than {COMBINATION_LIMIT}", states_visited=1, frontier=1)
        self.slice_rows = max(1, SLICE_CELLS // max(1, cells))
        self.blocks = []
        for t in used:
            delta = np.zeros((256, t), np.uint16)
            fires = thresholds == t
            for b in np.flatnonzero(fires):
                left, loop, _, _ = variant.site_row(int(b) - KEY_OFFSET)
                delta[b, :left] = -SITE_STEP % (1 << 16)
                delta[b, left + loop:] = SITE_STEP
            combos = np.array(list(combinations(range(nchips), t)), np.intp)
            self.blocks.append((combos, delta, fires))

    def expand(self, rows: np.ndarray):
        """Every move of every row, in (row, first column, combination) order.

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
        parent, children, block, comb = (np.concatenate(a) for a in zip(*parts))
        firstcol = np.concatenate([combos[c, 0] for (combos, _, _), (_, _, _, c)
                                   in zip(self.blocks, parts)])
        order = np.argsort(parent * rows.shape[1] + firstcol, kind="stable")
        return parent[order], children[order], block[order], comb[order]

    def move_to(self, row: np.ndarray, child: np.ndarray) -> tuple[int, tuple[int, ...]]:
        """``(site, chosen values)`` of the first move from ``row`` to ``child``."""
        _, children, block, comb = self.expand(row[None])
        i = int(np.flatnonzero((children == child).all(axis=1))[0])
        (move,) = _state(row[self.blocks[block[i]][0][comb[i]]])
        return move


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


def _explore_levels(initial: LabeledConfiguration, variant: Variant, state_cap: int):
    """Graded BFS over sorted ``uint16`` rows, one level at a time.

    Each level is its sorted array of rows.  A child's parent index is that
    of its first occurrence when the previous level's moves are taken in
    (row, first column, combination) order, and is kept per level.  Returns
    (levels, parents, terminals, visited, moves), terminals as (level,
    index, state) in visiting order.
    """
    start = canonicalize(initial)
    _check_key_limit(start)
    frontier = _row(start)[None]
    moves = _MoveTable(variant, frontier.shape[1])
    levels = [frontier]
    parents = [np.zeros(0, np.int32)]
    terminals: list[tuple[int, int, CanonicalState]] = []
    visited = depth = 1
    while True:
        kids, kid_parents = [], []
        for lo in range(0, len(frontier), moves.slice_rows):
            part = frontier[lo:lo + moves.slice_rows]
            parent, children, _, _ = moves.expand(part)
            stuck = np.ones(len(part), np.bool_)
            stuck[parent] = False
            terminals.extend((depth - 1, lo + r, _state(part[r])) for r in np.flatnonzero(stuck))
            first = _first_unique(children)
            kids.append(children[first])
            kid_parents.append(parent[first] + lo)
        children = np.concatenate(kids)
        if not len(children):
            break
        parent = np.concatenate(kid_parents)
        if len(kids) > 1:
            first = _first_unique(children)
            children, parent = children[first], parent[first]
        visited += len(children)
        if visited > state_cap:
            raise CapExceededError(
                f"labeled exploration exceeded {state_cap} states",
                states_visited=visited, level=depth, frontier=len(frontier))
        frontier = children
        depth += 1
        levels.append(children)
        parents.append(parent.astype(np.int32))
    return levels, parents, terminals, visited, moves


def _witness_moves(levels: list[np.ndarray], parents: list[np.ndarray], moves: _MoveTable,
                   level_idx: int, idx: int):
    """Moves from the start to ``levels[level_idx][idx]``, re-expanding each parent."""
    out = []
    for li in range(level_idx, 0, -1):
        child = levels[li][idx]
        idx = parents[li][idx]
        out.append(moves.move_to(levels[li - 1][idx], child))
    out.reverse()
    return out


def explore(initial: LabeledConfiguration, variant: Variant,
            state_cap: int = DEFAULT_STATE_CAP) -> ExplorationReport:
    """Visit the full reachable canonical-state graph and collect terminals.

    Raises CapExceededError (carrying states_visited, level and frontier)
    when the cap is hit.  The whole level history is kept, and the report's
    witness is a move sequence to the first non-weakly-sorted terminal
    visited, if there is one.
    """
    levels, parents, term_locs, visited, moves = _explore_levels(initial, variant, state_cap)
    terminals = []
    witness = None
    for li, ri, state in term_locs:
        terminals.append(state)
        if witness is None and not is_weakly_sorted_state(state):
            witness = _witness_moves(levels, parents, moves, li, ri)
    terminals = tuple(sorted(set(terminals)))
    sorted_count = sum(is_weakly_sorted_state(t) for t in terminals)
    return ExplorationReport(
        states_visited=visited,
        terminals=terminals,
        confluent=len(terminals) == 1,
        sorted_terminal_count=sorted_count,
        witness=witness,
    )


def find_unsorted_terminal(initial: LabeledConfiguration, variant: Variant,
                           state_cap: int = DEFAULT_STATE_CAP,
                           report: ExplorationReport | None = None) -> Trace | None:
    """Trace reaching a non-weakly-sorted terminal, or None if none exists.

    A cap overflow raises CapExceededError (inconclusive), which is distinct
    from an exhaustive None.  ``report``, from ``explore(initial, variant)``,
    saves the search: its witness is replayed.
    """
    if report is None:
        report = explore(initial, variant, state_cap)
    if report.witness is None:
        return None
    strategy = ScriptedValuesStrategy(report.witness)
    trace = run_to_completion(initial, variant, strategy)
    assert len(trace) == len(report.witness)
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
