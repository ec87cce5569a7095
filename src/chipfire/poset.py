"""Firing-order poset of the unlabeled process.

Move enabling depends only on chip counts, so the reachable state space of
fire-count vectors (one counter per site) captures every legal schedule at
once.  A move instance ``(site, occurrence)`` must precede another exactly
when no reachable state has the second done but not the first; that
containment test over the materialized space yields the full precedence
relation, its transitive reduction (the Hasse diagram), and the grid-shape
checks on the diamond of final moves.
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
    """All reachable fire-count vectors for an origin-preset run."""

    variant: Variant
    n: int
    sites: tuple[int, ...]            # window of sites that ever fire
    totals: np.ndarray                # (W,) int64, fires per window site
    initial: np.ndarray               # (W,) int64, chips initially per window site
    states: np.ndarray                # (N, W) int16
    flow: np.ndarray                  # (W, W+2) int64, chip change per fire, see reachable_states

    def __post_init__(self):
        self._idx = {s: i for i, s in enumerate(self.sites)}
        # row of a site's first move in nodes() and done_bits
        self._first_row = dict(zip(self.sites, (np.cumsum(self.totals) - self.totals).tolist()))

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    def total_fires(self, site: int) -> int:
        i = self._idx.get(site)
        return int(self.totals[i]) if i is not None else 0

    def move(self, site: int, occ_from_start: int | None = None,
             occ_from_last: int | None = None) -> MoveInstance:
        f = self.total_fires(site)
        if occ_from_start is None:
            occ_from_start = f - occ_from_last + 1
        if occ_from_last is None:
            occ_from_last = f - occ_from_start + 1
        if not (1 <= occ_from_start <= f):
            raise ValueError(f"site {site} fires {f} times, no occurrence {occ_from_start}")
        return MoveInstance(site, occ_from_start, occ_from_last)

    def nodes(self) -> list[MoveInstance]:
        return [self.move(site, occ_from_start=j)
                for site in self.sites for j in range(1, self.total_fires(site) + 1)]

    @cached_property
    def done_bits(self) -> np.ndarray:
        """Bit-packed done vectors, row r for ``nodes()[r]``: bit s is set when
        state s has that move done.  Built on first use, from a contiguous
        copy of one site's column at a time."""
        bits = np.empty((int(self.totals.sum()), (self.n_states + 7) // 8), np.uint8)
        for i, site in enumerate(self.sites):
            column = self.states[:, i].copy()
            for j in range(int(self.totals[i])):
                bits[self._first_row[site] + j] = np.packbits(column > j)
        return bits

    def precedes(self, a: MoveInstance, b: MoveInstance) -> bool:
        """True iff no reachable state has ``b`` done while ``a`` is not."""
        first, done = self._first_row, self.done_bits
        return not np.any(done[first[b.site] + b.occ_from_start - 1]
                          & ~done[first[a.site] + a.occ_from_start - 1])

    def chips_vector(self, site: int) -> np.ndarray:
        """Chip count at window site ``site`` in every state, from the flow matrix."""
        i = self._idx[site]
        lo = max(i - 1, 0)
        return self.initial[i] + self.states[:, lo:i + 2] @ self.flow[lo:i + 2, i + 1]


def _first_unique(rows: np.ndarray) -> np.ndarray:
    """Index of each distinct row's first occurrence, in sorted row order.

    Both searches deduplicate with it.  ``lexsort`` is stable and sorts
    column by column, which beats ``np.unique(axis=0)``'s sort of whole rows
    and packing several columns into wider words.
    """
    if not len(rows):
        return np.zeros(0, np.intp)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    keep = np.ones(len(rows), np.bool_)
    keep[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return order[keep]


def reachable_states(variant: Variant, n: int,
                     state_cap: int = DEFAULT_STATE_CAP) -> FireCountSpace:
    """Breadth-first closure of all fire-count vectors reachable from zero.

    Each move raises the total fire count by one, so levels are graded and
    deduplication never needs to look across levels.  Raises CapExceededError
    (without partial results) when the cap is hit, and ChipFiringError if the
    dynamics contradict the closed-form window or totals.
    """
    table = closedform.fire_count_table(variant, n)
    sites = tuple(sorted(table))
    w = len(sites)
    totals = np.array([table[s] for s in sites], np.int64)
    initial = np.array([n if s == 0 else 0 for s in sites], np.int64)
    if w == 0:
        return FireCountSpace(variant, n, sites, totals, initial,
                              np.zeros((1, 0), np.int16), np.zeros((0, 2), np.int64))
    # chips over the window plus one virtual site on each side: init_ext + F @ flow,
    # where row i of flow is what one fire at window site i moves
    ext = range(sites[0] - 1, sites[0] + w + 1)
    init_ext = np.concatenate(([0], initial, [0]))
    thresh_ext = np.array([variant.threshold(s) for s in ext], np.int64)
    flow = np.zeros((w, w + 2), np.int64)
    for i, site in enumerate(sites):
        left, _, right, _ = variant.site_row(site)
        flow[i, i:i + 3] = left, -(left + right), right

    frontier = np.zeros((1, w), np.int16)
    levels = [frontier]
    visited = 1
    while True:
        chips = init_ext + frontier @ flow
        if np.any(chips < 0):
            raise ChipFiringError("negative chip count reached: corrupt state space")
        enabled = chips >= thresh_ext
        if enabled[:, 0].any() or enabled[:, -1].any():
            raise ChipFiringError("a site outside the closed-form window became enabled")
        enabled = enabled[:, 1:-1]
        if np.any(enabled & (frontier >= totals)):
            raise ChipFiringError("a site exceeded its closed-form total fire count")
        rows, cols = np.nonzero(enabled)
        if rows.size == 0:
            if frontier.shape[0] != 1:
                raise ChipFiringError(
                    f"{frontier.shape[0]} distinct terminal fire-count states; expected 1")
            break
        if not enabled.any(axis=1).all():
            raise ChipFiringError("a non-final state had no successors (premature deadlock)")
        succ = frontier[rows]
        succ[np.arange(rows.size), cols] += 1
        frontier = succ[_first_unique(succ)]
        visited += frontier.shape[0]
        if visited > state_cap:
            raise CapExceededError(
                f"fire-count space exceeded {state_cap} states", states_visited=visited,
                level=len(levels), frontier=levels[-1].shape[0])
        levels.append(frontier)
    if not np.array_equal(frontier[0], totals):
        raise ChipFiringError("terminal fire-count state differs from closed-form totals")
    return FireCountSpace(variant, n, sites, totals, initial, np.vstack(levels), flow)


# --- precedence relation ----------------------------------------------------

@dataclass
class FiringPoset:
    """Move instances with the full must-precede relation and its Hasse diagram."""

    variant: Variant
    n: int
    nodes: tuple[MoveInstance, ...]
    relation: frozenset[tuple[MoveInstance, MoveInstance]]
    covers: frozenset[tuple[MoveInstance, MoveInstance]]


def build_poset(space: FireCountSpace) -> FiringPoset:
    """Full precedence relation over all move instances, plus cover edges.

    ``a`` precedes ``b`` iff the set of states where ``b`` is done is
    contained in the set where ``a`` is done; containment is checked on
    ``space.done_bits``, one row of the relation matrix at a time, as in
    ``FireCountSpace.precedes``.  A pair is a cover when no move lies
    between its ends.
    """
    nodes = space.nodes()
    k = len(nodes)
    packed = space.done_bits
    before = np.array([~np.any(packed & ~row, axis=1) for row in packed], np.bool_).reshape(k, k)
    np.fill_diagonal(before, False)
    b = before.astype(np.int32)
    cover = before & (b @ b == 0)
    relation = frozenset((nodes[i], nodes[j]) for i, j in zip(*np.nonzero(before)))
    covers = frozenset((nodes[i], nodes[j]) for i, j in zip(*np.nonzero(cover)))
    return FiringPoset(space.variant, space.n, tuple(nodes), relation, covers)


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
        return {
            "check": self.check,
            "violations": self.violations,
            "states_explored": self.states_explored,
            "passed": self.passed,
            **self.details,
        }


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
    chips_cache: dict[int, np.ndarray] = {}
    for (x, y), node in grid.items():
        for pred in (grid.get((x + 1, y)), grid.get((x, y + 1))):
            if pred is not None and not space.precedes(pred, node):
                violations.append({
                    "node": node.node_id(), "clause": "precedence",
                    "detail": f"{pred.node_id()} does not always precede {node.node_id()}",
                })
        site = node.site
        if site not in chips_cache:
            chips_cache[site] = space.chips_vector(site)
        chips = chips_cache[site]
        th = space.variant.threshold(site)
        idx = space._idx[site]
        sel = ((space.states[:, idx] == node.occ_from_start - 1)
               & (chips >= th) & (chips != th))
        if np.any(sel):
            witness = int(np.flatnonzero(sel)[0])
            violations.append({
                "node": node.node_id(), "clause": "exact_chips",
                "detail": f"fires with {int(chips[sel].max())} chips present",
                "chips": int(chips[sel].max()),
                "witness_state": {str(s): int(v) for s, v in
                                  zip(space.sites, space.states[witness])},
            })
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
        for site in space.sites:
            if site == 0:
                continue
            nb = site - 1 if site > 0 else site + 1
            f_site = space.total_fires(site)
            for j in range(1, f_site + 1):
                if indexing == "occ_from_start":
                    mid = space.move(site, occ_from_start=j)
                    lo = space.move(nb, occ_from_start=j + 1)
                    hi = space.move(nb, occ_from_start=j + 2)
                else:
                    mid = space.move(site, occ_from_last=j)
                    lo = space.move(nb, occ_from_last=j + 1)
                    hi = space.move(nb, occ_from_last=j + 2)
                if not space.precedes(lo, mid):
                    sandwich[indexing].append({
                        "node": mid.node_id(), "clause": "sandwich_lower",
                        "detail": f"{lo.node_id()} does not always precede {mid.node_id()}"})
                if not space.precedes(mid, hi):
                    sandwich[indexing].append({
                        "node": mid.node_id(), "clause": "sandwich_upper",
                        "detail": f"{mid.node_id()} does not always precede {hi.node_id()}"})
    exact: list[dict] = []
    for site in space.sites:
        if abs(site) > t:
            continue
        chips = space.chips_vector(site)
        th = space.variant.threshold(site)
        idx = space._idx[site]
        for occ in range(2, space.total_fires(site) + 1):
            sel = (space.states[:, idx] == occ - 1) & (chips >= th) & (chips != th)
            if np.any(sel):
                exact.append({
                    "node": space.move(site, occ_from_start=occ).node_id(),
                    "clause": "exact_chips",
                    "detail": f"fires with {int(chips[sel].max())} chips present"})
    readings_ok = {k: not v for k, v in sandwich.items()}
    canonical = next((k for k, ok in readings_ok.items() if ok), None)
    violations = exact + (sandwich[canonical] if canonical else
                          sandwich["occ_from_start"])
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
