"""Firing-order poset of the unlabeled process.

Move enabling depends only on chip counts, so the reachable state space of
fire-count vectors (one counter per site) captures every legal schedule at
once.  A move instance ``a`` must precede ``b`` exactly when no reachable
state has ``b`` done but not ``a``.  Reachable vectors are closed under
componentwise max (Björner, Lovász and Shor 1991, "Chip-firing games on
graphs"), so those with ``a`` not done have a largest, M(a), which a greedy
run finds (``max_closures``).  One such row per move decides the relation,
its Hasse diagram and the grid checks on the diamond of final moves; the
states give only their count and the checks' witness states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import closedform
from .engine import CapExceededError, ChipFiringError
from .variants import Variant

DEFAULT_STATE_CAP = 5_000_000


class MoveInstance(NamedTuple):
    """The j-th firing move at a site, indexed from both ends of the run."""
    site: int
    occ_from_start: int
    occ_from_last: int

    def node_id(self) -> str:
        return f"s{self.site}_j{self.occ_from_last}"


@dataclass
class FireCountSpace:
    """All reachable fire-count vectors for an origin-preset run, and the
    closure rows that decide precedence and exact chips (``closure_rows``)."""

    variant: Variant
    n: int
    sites: tuple[int, ...]            # window of sites that ever fire
    totals: np.ndarray                # (W,) int64, fires per window site
    initial: np.ndarray               # (W,) int64, chips initially per window site
    states: np.ndarray                # (N, W) int16
    flow: np.ndarray                  # (W, W+2) int64, chip change per fire, see _window

    def __post_init__(self):
        self._idx = {s: i for i, s in enumerate(self.sites)}
        # row of a site's first move in nodes() and closure_rows
        self._first_row = dict(zip(self.sites, (np.cumsum(self.totals) - self.totals).tolist()))
        self._first_excess: dict[int, np.ndarray] = {}  # per window site, see excess_chips

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def total_fires(self, site: int) -> int:
        i = self._idx.get(site)
        return int(self.totals[i]) if i is not None else 0

    def move(self, site: int, occ_from_start: int | None = None,
             occ_from_last: int | None = None) -> MoveInstance:
        """The move instance given by either index, or by both if they agree."""
        f = self.total_fires(site)
        if occ_from_start is None and occ_from_last is None:
            raise ValueError("a move needs occ_from_start or occ_from_last")
        if occ_from_start is None:
            occ_from_start = f - occ_from_last + 1
        elif occ_from_last is None:
            occ_from_last = f - occ_from_start + 1
        elif occ_from_start + occ_from_last != f + 1:
            raise ValueError(f"site {site} fires {f} times: occurrence {occ_from_start} from "
                             f"the start is not {occ_from_last} from the last")
        if not (1 <= occ_from_start <= f):
            raise ValueError(f"site {site} fires {f} times, no occurrence {occ_from_start}")
        return MoveInstance(site, occ_from_start, occ_from_last)

    def nodes(self) -> list[MoveInstance]:
        return [self.move(site, occ_from_start=j)
                for site in self.sites for j in range(1, self.total_fires(site) + 1)]

    @cached_property
    def closure_rows(self) -> np.ndarray:
        """(k, W) int16, row r the closure row M(a) of ``a = nodes()[r]``
        (``max_closures``), built on first use from the window of
        ``(variant, n)``, never from the states or the other stored fields."""
        return max_closures(self.variant, *_window(self.variant, self.n),
                            [(node.site, node.occ_from_start) for node in self.nodes()])

    def _row(self, move: MoveInstance) -> np.ndarray:
        return self.closure_rows[self._first_row[move.site] + move.occ_from_start - 1]

    def precedes(self, a: MoveInstance, b: MoveInstance) -> bool:
        """True iff no reachable state has ``b`` done while ``a`` is not:
        the largest state with ``a`` not done, M(a), has ``b`` not done."""
        return int(self._row(a)[self._idx[b.site]]) < b.occ_from_start

    def excess_chips(self, move: MoveInstance) -> tuple[int, int] | None:
        """``(most chips, first state)`` over the states where ``move`` is next
        at its site with more than threshold chips there, or None.  M(move),
        whose neighbours fired most, has the most; only then is the first
        state looked up, in one pass per site."""
        i = self._idx[move.site]
        chips = int(self.initial[i] + self._row(move) @ self.flow[:, i + 1])
        if chips <= self.variant.threshold(move.site):
            return None
        if i not in self._first_excess:  # per fire count there, n_states for none
            lo, hi = max(i - 1, 0), i + 2
            hot = np.flatnonzero(self.states[:, lo:hi] @ self.flow[lo:hi, i + 1]
                                 > self.variant.threshold(move.site) - self.initial[i])
            first = self._first_excess[i] = np.full(int(self.totals[i]) + 1, self.n_states)
            np.minimum.at(first, self.states[hot, i], hot)
        return chips, int(self._first_excess[i][move.occ_from_start - 1])


def max_closures(variant: Variant, sites: tuple[int, ...], totals: np.ndarray,
                 initial: np.ndarray, flow: np.ndarray, moves: list[tuple[int, int]]) -> np.ndarray:
    """The closure row M(a) of each move ``a = (s, j)`` (site, occurrence
    from the start): the largest reachable fire-count vector with site s
    fired at most j-1 times, a (len(moves), W) int16 row per move.

    A greedy run reaches it: fire enabled sites, s at most j-1 times and the
    others at most their closed-form totals, until none can.  Were some
    reachable f with f_s <= j-1 not below where it stops, g, the first move
    of f's firing sequence to pass g would fire a site u from a prefix
    p <= g with p_u = g_u.  At g, u's neighbours have fired at least as
    often as at p, so u holds at least as many chips and is enabled, and u
    is below its cap (g_u = p_u < f_u, which is at most j-1 for u = s and
    the total otherwise): the greedy was not stuck.

    Each round fires every enabled site below its cap in every row at once,
    as moves at distinct sites commute.  A row's chips, less ``initial``, are
    the float64 product ``F @ flow``, as in ``_levels``, exact below 2**53.
    """
    caps = np.tile(totals.astype(np.float64), (len(moves), 1))
    caps[np.arange(len(moves)), [sites.index(s) for s, _ in moves]] = [j - 1 for _, j in moves]
    flow_w = flow[:, 1:-1].astype(np.float64)
    need = np.array([variant.threshold(s) for s in sites], np.float64) - initial
    fires = np.zeros_like(caps)
    while True:
        enabled = fires @ flow_w >= need
        enabled &= fires < caps
        if not enabled.any():
            return fires.astype(np.int16)
        fires += enabled


def _first_unique(rows: np.ndarray) -> np.ndarray:
    """Index of each distinct row's first occurrence, in sorted row order.

    Both searches deduplicate with it: the labeled search its rows, the
    fire-count search its key words.  A stable ``lexsort``, column by column,
    beats ``np.unique(axis=0)`` and packing labeled columns into wider words;
    one-word keys take a stable ``argsort`` of their one column instead.
    """
    if not len(rows):
        return np.zeros(0, np.intp)
    keep = np.ones(len(rows), np.bool_)
    if rows.shape[1] == 1:
        order = np.argsort(rows[:, 0], kind="stable")
        ordered = rows[order, 0]
        keep[1:] = ordered[1:] != ordered[:-1]
    else:
        order = np.lexsort(rows.T[::-1])
        ordered = rows[order]
        keep[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return order[keep]


# a key word holds values below this bound, or a single column whose radix
# alone passes it, so adding one place value to a key never overflows int64
_WORD_LIMIT = 2 ** 62


def _key_layout(totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Place value and key word of each column of a fire-count row.

    A row's key is the row read as a mixed-radix number, column i having
    radix ``totals[i] + 1``, cut into int64 words from the last column
    before a word's range would pass ``_WORD_LIMIT``.  Words and columns
    both run most significant first, so keys sort exactly like rows.
    """
    place = np.empty(len(totals), np.int64)
    word = np.empty(len(totals), np.intp)
    value, k = 1, 0
    for i in range(len(totals) - 1, -1, -1):
        radix = int(totals[i]) + 1
        if value * radix > _WORD_LIMIT:
            value, k = 1, k + 1
        place[i], word[i] = value, k
        value *= radix
    return place, k - word


def _expand(frontier: np.ndarray, keys: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next level and its keys: the first occurrence of each distinct
    child, where a child fires site ``cols[c]`` in state ``rows[c]``.  Its key
    is its parent's plus ``step[cols[c]]``, one place value in one word, so
    children are deduplicated on keys and only the kept ones built as rows.
    """
    child = keys[rows]
    child += step[cols]
    first = _first_unique(child)
    # ``a[i, c[i]] += 1`` is written on the flat view of a fresh C-ordered
    # array, which is faster than indexing along two axes
    succ = frontier[rows[first]]
    succ.reshape(-1)[np.arange(0, succ.size, succ.shape[1]) + cols[first]] += 1
    return succ, child[first]


class RepresentationLimitError(ChipFiringError):
    """The space's fire or chip counts would not fit its arrays exactly."""


def _window(variant: Variant, n: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    """``(sites, totals, initial, flow)`` of the firing window from the closed
    forms, all that ``_levels`` and ``max_closures`` read; ``flow[i]`` is what
    one fire at window site i moves, over the window and one virtual site on
    each side.  RepresentationLimitError refuses a total above the int16
    rows' maximum, or chip counts whose float64 products could pass 2**53."""
    table = closedform.fire_count_table(variant, n)
    sites = tuple(sorted(table))
    totals = np.array([table[s] for s in sites], np.int64)
    initial = np.array([n if s == 0 else 0 for s in sites], np.int64)
    flow = np.zeros((len(sites), len(sites) + 2), np.int64)
    for i, site in enumerate(sites):
        left, _, right, _ = variant.site_row(site)
        flow[i, i:i + 3] = left, -(left + right), right
    fires = np.iinfo(np.int16).max
    if sites and totals.max() > fires:
        raise RepresentationLimitError(
            f"a site fires {int(totals.max())} times, above the int16 bound {fires}")
    worst = fires * int(np.abs(flow).sum(axis=0).max())
    if worst >= 2 ** 53:
        raise RepresentationLimitError(
            f"chip counts up to {worst} pass the float64 exactness bound 2**53")
    return sites, totals, initial, flow


def _levels(variant: Variant, sites: tuple[int, ...], totals: np.ndarray,
            initial: np.ndarray, flow: np.ndarray, state_cap: int):
    """Graded BFS from the zero row, yielding ``(rows, visited)`` per level:
    its int16 fire counts and the states counted through it.  A level is
    yielded as soon as it is made and its dynamics checked before the next
    is made; one past ``state_cap`` raises CapExceededError unyielded."""
    w = len(sites)
    # each level's chips, one row per extended site and one column per state:
    # init + flow.T @ F.T, in float64 so BLAS computes it, and compared in
    # float64 too, exact below 2**53 (see _window)
    ext = range(sites[0] - 1, sites[0] + w + 1)
    flow_t = flow.T.astype(np.float64)
    init_col = np.concatenate(([0], initial, [0])).astype(np.float64)[:, None]
    thresh_col = np.array([variant.threshold(s) for s in ext], np.float64)[:, None]
    totals_col = totals.astype(np.float64)[:, None]

    place, word = _key_layout(totals)
    step = np.zeros((w, int(word[-1]) + 1), np.int64)  # one fire's key increment per column
    step[np.arange(w), word] = place
    frontier = np.zeros((1, w), np.int16)
    keys = np.zeros((1, step.shape[1]), np.int64)
    visited, depth = 1, 0
    while True:
        yield frontier, visited
        fires = frontier.T.astype(np.float64, order="C")
        chips = flow_t @ fires
        chips += init_col
        enabled = chips >= thresh_col
        if chips.min() < 0:
            raise ChipFiringError("negative chip count reached: corrupt state space")
        if enabled[[0, -1]].any():
            raise ChipFiringError("a site outside the closed-form window became enabled")
        enabled = enabled[1:-1]
        if (enabled & (fires >= totals_col)).any():
            raise ChipFiringError("a site exceeded its closed-form total fire count")
        # site by site: the frontier is sorted and one fire at one site keeps
        # that order, so the dedup sort merges W sorted runs.  Flat indices,
        # split by hand, cost a third of a 2-d ``np.nonzero``
        flat = np.flatnonzero(enabled)
        cols = flat // enabled.shape[1]
        rows = flat - cols * enabled.shape[1]
        if rows.size == 0:
            if frontier.shape[0] != 1:
                raise ChipFiringError(
                    f"{frontier.shape[0]} distinct terminal fire-count states; expected 1")
            break
        if not enabled.any(axis=0).all():
            raise ChipFiringError("a non-final state had no successors (premature deadlock)")
        parents = frontier.shape[0]
        frontier, keys = _expand(frontier, keys, rows, cols, step)
        depth += 1
        visited += frontier.shape[0]
        if visited > state_cap:
            raise CapExceededError(
                f"fire-count space exceeded {state_cap} states", states_visited=visited,
                level=depth, frontier=parents)
    if not np.array_equal(frontier[0], totals):
        raise ChipFiringError("terminal fire-count state differs from closed-form totals")


def reachable_states(variant: Variant, n: int,
                     state_cap: int = DEFAULT_STATE_CAP) -> FireCountSpace:
    """Breadth-first closure of all fire-count vectors reachable from zero.

    Each move raises the total fire count by one, so levels are graded and
    deduplication never looks across levels; each level ``_levels`` yields
    is appended to ``states``.  Raises CapExceededError (without partial
    results) when the cap is hit, ChipFiringError if the dynamics contradict
    the closed-form window or totals, and its subclass
    RepresentationLimitError if a total or a chip count would not fit.
    """
    sites, totals, initial, flow = _window(variant, n)
    w = len(sites)
    # each level is appended to ``states`` as it is made, so the states are
    # never held twice.  ``resize`` reallocates in place (glibc remaps a
    # large block's pages rather than copying them) and zero-fills new rows,
    # so the array grows by a quarter at a time and is trimmed at the end.
    states = np.zeros((1, w), np.int16)
    if w:
        for rows, visited in _levels(variant, sites, totals, initial, flow, state_cap):
            if visited > states.shape[0]:
                states.resize((max(visited, states.shape[0] * 5 // 4), w), refcheck=False)
            states[visited - rows.shape[0]:visited] = rows
        states.resize((visited, w), refcheck=False)
    return FireCountSpace(variant, n, sites, totals, initial, states, flow)


# --- precedence relation ----------------------------------------------------

@dataclass
class FiringPoset:
    """Move instances with the must-precede relation and its Hasse diagram.

    ``before[a, b]`` says node ``a`` must precede node ``b``; ``relation``
    lists those pairs only when asked for, as the DOT export reads covers only.
    """

    variant: Variant
    n: int
    nodes: tuple[MoveInstance, ...]
    before: np.ndarray = field(repr=False, compare=False)  # (k, k) bool
    covers: frozenset[tuple[MoveInstance, MoveInstance]]

    @cached_property
    def relation(self) -> frozenset[tuple[MoveInstance, MoveInstance]]:
        return _pairs(self.nodes, self.before)


def _pairs(nodes, mask: np.ndarray) -> frozenset:
    """The node pairs ``mask`` marks; Python ints index and hash faster
    than NumPy scalars."""
    i, j = np.nonzero(mask)
    return frozenset((nodes[a], nodes[b]) for a, b in zip(i.tolist(), j.tolist()))


def build_poset(space: FireCountSpace) -> FiringPoset:
    """Precedence matrix over all move instances, plus cover edges.

    The matrix is ``FireCountSpace.precedes`` for all pairs at once, one
    comparison of the closure rows, ``M[:, site_of] < occ``, with the
    diagonal (a move's own row has it not done) cleared.  A pair is a cover
    when no move lies between its ends.  Covers are listed here, the
    relation's pairs on first use of ``FiringPoset.relation``.
    """
    nodes = tuple(space.nodes())  # by site, then occurrence
    occ = np.array([node.occ_from_start for node in nodes], np.int16)
    site_of = np.repeat(np.arange(len(space.sites)), space.totals)
    before = space.closure_rows[:, site_of] < occ
    np.fill_diagonal(before, False)
    b = before.astype(np.float64)
    covers = _pairs(nodes, before & (b @ b == 0))
    return FiringPoset(space.variant, space.n, nodes, before, covers)


# --- diamond coordinates ----------------------------------------------------

def diamond(variant: Variant, n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The diamond of final moves: ``(site, occ_from_start) -> (x, y)``.

    It holds the last ``m - |k|`` moves at each site k.  The move at (x, y)
    fires at site ``x - y`` and is the ``min(x, y) + 1``-th from the last, so
    (0, 0) is the last move at the origin; +x steps one site right, +y one
    site left.  Entries run in row-major (x, y) order.
    """
    if variant.kind == "exponential":
        raise closedform.UnsupportedVariantError(
            "the exponential variant has a full-poset grid, not a diamond")
    m = closedform.derive_m(variant, n)
    table = closedform.fire_count_table(variant, n)
    return {(x - y, table[x - y] - min(x, y)): (x, y) for x in range(m) for y in range(m)}


# --- structure checks -------------------------------------------------------

@dataclass
class CheckReport:
    check: str
    violations: list[dict]
    states_explored: int
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"check": self.check, "violations": self.violations,
                "states_explored": self.states_explored, "passed": self.passed, **self.details}


def check_grid_structure(space: FireCountSpace) -> CheckReport:
    """Verify the m-by-m grid of final moves.

    For every diamond coordinate (x, y): (i) the moves one step up the grid
    must precede it, and (ii) whenever it is the next move at its site and
    the site is enabled, exactly threshold chips are present.  Violations are
    reported as data; for odd n the exact-chip clause is expected to fail at
    the last move at the origin with a 3-chip witness.
    """
    grid = {xy: space.move(site, occ_from_start=occ)
            for (site, occ), xy in diamond(space.variant, space.n).items()}
    violations: list[dict] = []
    for (x, y), node in grid.items():
        for pred in (grid.get((x + 1, y)), grid.get((x, y + 1))):
            if pred is not None and not space.precedes(pred, node):
                violations.append({"node": node.node_id(), "clause": "precedence", "detail":
                                   f"{pred.node_id()} does not always precede {node.node_id()}"})
        excess = space.excess_chips(node)
        if excess is not None:
            chips, witness = excess
            violations.append({
                "node": node.node_id(), "clause": "exact_chips",
                "detail": f"fires with {chips} chips present", "chips": chips,
                "witness_state": dict(zip(map(str, space.sites), space.states[witness].tolist()))})
    return CheckReport("grid", violations, space.n_states,
                       {"m": closedform.derive_m(space.variant, space.n),
                        "diamond_nodes": len(grid)})


def check_exponential_grid(space: FireCountSpace) -> CheckReport:
    """Verify the full-poset grid of the exponential variant.

    The j-th move at site k must fall between moves j+1 and j+2 at the
    neighbor one step toward the origin.  The move index j is ambiguous
    between counting from the start and from the end of a site's run, so
    both readings are evaluated and the one the data satisfies is reported
    as canonical.  Additionally every move except the first at each site in
    [-t, t] must fire with exactly threshold chips present.
    """
    if space.variant.kind != "exponential":
        raise closedform.UnsupportedVariantError("exponential grid check needs the exponential variant")
    t = space.variant.t
    sandwich: dict[str, list[dict]] = {"occ_from_start": [], "occ_from_last": []}
    for indexing in sandwich:
        for site in (s for s in space.sites if s != 0):
            nb = site - 1 if site > 0 else site + 1
            for j in range(1, space.total_fires(site) + 1):
                mid = space.move(site, **{indexing: j})
                lo = space.move(nb, **{indexing: j + 1})
                hi = space.move(nb, **{indexing: j + 2})
                for a, b, clause in ((lo, mid, "sandwich_lower"), (mid, hi, "sandwich_upper")):
                    if not space.precedes(a, b):
                        sandwich[indexing].append({
                            "node": mid.node_id(), "clause": clause,
                            "detail": f"{a.node_id()} does not always precede {b.node_id()}"})
    exact: list[dict] = []
    for site in (s for s in space.sites if abs(s) <= t):
        for occ in range(2, space.total_fires(site) + 1):
            node = space.move(site, occ_from_start=occ)
            excess = space.excess_chips(node)
            if excess is not None:
                exact.append({"node": node.node_id(), "clause": "exact_chips",
                              "detail": f"fires with {excess[0]} chips present"})
    readings_ok = {k: not v for k, v in sandwich.items()}
    canonical = next((k for k, ok in readings_ok.items() if ok), None)
    violations = exact + sandwich[canonical or "occ_from_start"]
    return CheckReport("expgrid", violations, space.n_states, {
        "t": t,
        "sandwich_ok_from_start": readings_ok["occ_from_start"],
        "sandwich_ok_from_last": readings_ok["occ_from_last"],
        "canonical_indexing": canonical,
    })


def export_dot(poset: FiringPoset) -> str:
    """Graphviz DOT of the Hasse diagram, edges oriented earlier -> later."""
    try:
        final = diamond(poset.variant, poset.n)
    except closedform.UnsupportedVariantError:
        final = {}
    lines = ["digraph firing_poset {"]
    for node in sorted(poset.nodes):
        attrs = [f'label="{node.site}_{node.occ_from_last}"']
        if (node.site, node.occ_from_start) in final:
            attrs.append('group="diamond"')
        lines.append(f'  "{node.node_id()}" [{", ".join(attrs)}];')
    for a, b in sorted(poset.covers):
        lines.append(f'  "{a.node_id()}" -> "{b.node_id()}";')
    lines.append("}")
    return "\n".join(lines)
