"""Trace-level checkers: position bounds, counting bounds, sortedness.

Each checker reads a complete trace and reports the full list of
violations (empty on success).  ``check_conservation`` is the independent
oracle: it replays the trace in its own loop, one
``LabeledConfiguration.apply`` per move and never ``Trace.replay``, and
recounts every step.  The five bound checkers, the names in ``SCOPES``,
replay nothing: they read two int64 tables made from the move log's
columns, the chip sites, a row per step and a column per chip (``_chip_sites``,
RepresentationLimitError where a site could leave int64), and the diamond
moves (``_diamond_moves``).  ``check_bounds(trace, names)`` is their one
entry: it reads any set of them from one pass over the chip-site table, in
blocks of rows.  A bound checker applies to ``(variant, n)`` when its
``SCOPES`` entry holds and the closed form gives its ``m``: ``_scope_m``
returns that m, or None.  ``applicable_checkers`` lists the ones that
apply, and ``check_bounds`` raises CheckerNotApplicableError for one
outside its scope, never passing silently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from functools import partial
from math import ceil, floor, inf
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from . import closedform
from .engine import Chip, ChipFiringError, LabeledConfiguration, Trace
from .poset import RepresentationLimitError, diamond
from .variants import Variant


class CheckerNotApplicableError(ChipFiringError):
    """The trace's variant/shape is outside this checker's scope."""


def _loops_4m_minus_1(variant: Variant, n: int) -> bool:
    return variant.kind == "loops_everywhere" and n % 4 == 3


# bound checker name -> does it apply to (variant, n), in report order
SCOPES: dict[str, Callable[[Variant, int], bool]] = {
    "chip_bounds": lambda variant, n: variant.kind in ("base", "multi_edge"),
    "diamond_move_bounds": lambda variant, n: variant.kind == "base" and n % 2 == 0,
    "loop_bounds": _loops_4m_minus_1,
    "diamond_count_bounds": _loops_4m_minus_1,
    "diamond_config_bounds": _loops_4m_minus_1,
}


def _scope_m(name: str, variant: Variant, n: int) -> int | None:
    """``m`` for bound checker ``name`` on ``(variant, n)``, or None unless
    its ``SCOPES`` entry holds and ``closedform.derive_m`` accepts n."""
    try:
        return closedform.derive_m(variant, n) if SCOPES[name](variant, n) else None
    except closedform.UnsupportedVariantError:
        return None


def applicable_checkers(variant: Variant, n: int) -> list[str]:
    """The names of the bound checkers that apply (``_scope_m``), in
    ``SCOPES`` order."""
    return [name for name in SCOPES if _scope_m(name, variant, n) is not None]


@dataclass(frozen=True)
class BoundViolation:
    step: int
    chip_id: int | None
    chip_value: int | None
    site: int | None
    lemma: str
    bound: int

    def to_json(self) -> dict:
        return asdict(self)


def is_weakly_sorted(config: LabeledConfiguration) -> bool:
    """True iff every lower-valued chip sits at or left of every higher-valued one."""
    flat = [chip.value for _, chip in config.chips()]
    return all(a <= b for a, b in zip(flat, flat[1:]))


def check_conservation(trace: Trace) -> list[BoundViolation]:
    """Chip count and drift-corrected weighted position sum after every step.

    The trace is replayed here, one ``LabeledConfiguration.apply`` per
    move of its log, not through ``Trace.replay``, and both sums are
    recounted in full after every move.  After a prefix with fire counts c, the weighted sum of
    positions equals its initial value plus sum_s c[s] * (right - left) of
    ``site_row(s)``; the drift term vanishes for left/right-symmetric variants.
    """
    v, log = trace.variant, trace.log
    config = trace.initial
    total0 = config.total_chips()
    weighted0 = config.weighted_sum()
    out = []
    drift = 0
    for step, (site, a, b, _, _) in enumerate(log.moves()):
        config = config.apply(v, site, log.ids[a:b])
        left, _, right, _ = v.site_row(site)
        drift += right - left
        if config.total_chips() != total0:
            out.append(BoundViolation(step, None, None, site, "chip_conservation", total0))
        if config.weighted_sum() != weighted0 + drift:
            out.append(BoundViolation(step, None, None, site, "weighted_sum", weighted0 + drift))
    return out


# --- bound checkers: predicates over one table of chip sites -----------------

BLOCK_CELLS = 1 << 16  # sites (rows x chips) of the chip-site table built and read at once
_REACH = 2 ** 62  # the chip-site table holds sites of smaller magnitude, in int64
_POSITION_LEMMAS = ("chip_bounds", "loop_bounds")


def _columns(trace: Trace) -> list[tuple[int, Chip]]:
    """Each chip and its initial site, in (value, id) order: the columns of
    the trace's chip-site table."""
    return sorted(trace.initial.chips(), key=itemgetter(1))


def _chip_sites(trace: Trace) -> Iterator[tuple[int, np.ndarray]]:
    """The trace's chip-site table as int64 blocks ``(t, sites)`` of about
    ``BLOCK_CELLS`` sites, ``sites`` holding rows t, t+1, ...

    Row t holds each chip's site before move t, in ``_columns`` order, so
    row 0 is the initial configuration and the last row the final one.  It
    comes from the move log alone: a move's chosen chips, in (value, id)
    order, send the first ``left`` of ``site_row`` one site left and the
    last ``right`` one site right, and each row is the one before it plus
    those steps.  A block's steps are made from arrays: its moves' chosen
    cells, one slice of the id column, sorted, are in (row, column) order,
    and a cell's rank within its row picks its step.
    RepresentationLimitError, before any block, if the trace's reach (its
    farthest initial site plus one site per move) is ``_REACH`` or more.
    """
    log, site_row = trace.log, trace.variant.site_row
    if (reach := max(map(abs, trace.initial.occupancy), default=0) + len(log)) >= _REACH:
        raise RepresentationLimitError(f"a trace may reach a site {reach} away from 0; the int64 "
                                       f"chip-site table holds less than {_REACH}")
    columns = _columns(trace)
    column = {chip.id: c for c, (_, chip) in enumerate(columns)}
    width = len(columns)
    height = max(1, BLOCK_CELLS // max(1, width))
    row = np.array([site for site, _ in columns], np.int64)
    for t0 in range(0, len(log) + 1, height):
        t1 = min(t0 + height, len(log) + 1)
        steps = np.zeros((t1 - t0) * width, np.int8)
        m0, m1 = max(t0, 1) - 1, t1 - 1  # row t is row t-1 plus move t-1's steps
        if m1 > m0:
            fired_at = log.sites[m0:m1]
            ends = np.frombuffer(log.offsets[m0:m1 + 1], np.int64)
            counts = np.diff(ends)
            index = {site: i for i, site in enumerate(set(fired_at))}
            left, loop = np.array([site_row(site)[:2] for site in index], np.intp)[
                np.fromiter(map(index.__getitem__, fired_at), np.intp, m1 - m0)].T
            owner = np.repeat(np.arange(m1 - m0), counts)  # each cell's move
            cells = np.sort((owner + m0 + 1 - t0) * width + np.fromiter(
                map(column.__getitem__, log.ids[ends[0]:ends[-1]]), np.intp, len(owner)))
            rank = np.arange(len(cells)) - np.repeat(ends[:-1] - ends[0], counts)
            steps[cells] = (rank >= (left + loop)[owner]).astype(np.int8) - (rank < left[owner])
        sites = row + np.cumsum(steps.reshape(t1 - t0, width), axis=0, dtype=np.int64)
        row = sites[-1].copy()
        yield t0, sites


def _cells(rows: np.ndarray, cols: np.ndarray | None, t0: int, sites: np.ndarray) -> np.ndarray:
    """The cells ``(rows[i], cols[i])``, ``rows`` ascending, that lie in the
    block ``sites`` starting at row t0; whole rows when ``cols`` is None."""
    a, b = np.searchsorted(rows, (t0, t0 + len(sites)))
    return sites[rows[a:b] - t0] if cols is None else sites[rows[a:b] - t0, cols[a:b]]


def _position_limits(lemma: str, m: int, k: int) -> tuple[float, float]:
    """``(lo, hi)``: the sites a chip valued k may occupy under position
    lemma ``lemma``, ``-inf`` or ``inf`` on a side it leaves open.

    ``chip_bounds`` (the line without loops): a chip valued k < 0 never sits
    right of k + m, and a chip valued k > 0 never left of k - m; with edge
    multiplicity r the r chips sharing a value share the bound.
    ``loop_bounds`` (one self-loop per site, n = 4m-1): a chip valued k > 0
    stays within [floor((k-m)/2), floor((k+m)/2)], one valued k < 0 within
    [ceil((k-m)/2), ceil((k+m)/2)], and chip 0 within [ceil(-m/2), floor(m/2)].
    """
    if lemma == "chip_bounds":
        return (k - m if k > 0 else -inf), (k + m if k < 0 else inf)
    if k > 0:
        return floor((k - m) / 2), floor((k + m) / 2)
    if k < 0:
        return ceil((k - m) / 2), ceil((k + m) / 2)
    return ceil(-m / 2), floor(m / 2)


def _extreme_clauses(lemma: str, m: int) -> list[tuple[int, int, int]]:
    """``lemma``'s extreme-occupancy clauses in report order, (value, site,
    sign), each holding at most one chip: a chip counts toward one when
    sign*value >= sign*value_c and sign*site <= sign*site_c.

    Only ``loop_bounds`` has them.  When k+m is odd the chips valued >= k,
    with all smaller chips removed, form a process whose terminal has a
    single chip at its leftmost slot, so at most one chip valued >= k may sit
    at or left of floor((k-m)/2) at any time (mirrored for values <= -k).
    When k+m is even that slot holds two chips and two may sit there; both
    hold on every reachable state at n = 7 and n = 11 (tests/test_analysis.py).
    """
    if lemma != "loop_bounds":
        return []
    return [clause for k in range(1, m + 1) if (k + m) % 2
            for clause in ((k, floor((k - m) / 2), 1), (-k, ceil((m - k) / 2), -1))]


def _position_violations(lemma: str, m: int, chips: list[Chip], lo: np.ndarray, hi: np.ndarray,
                         t0: int, sites: np.ndarray) -> list[BoundViolation]:
    """Position lemma ``lemma`` on a block (row t is step t-1): each chip
    outside ``lo``/``hi``, bound by the finite limit it breaks, by (step, site,
    value, id), and after a step's chips, each ``_extreme_clauses`` clause holding two or more."""
    t, c = np.nonzero((sites < lo) | (sites > hi))
    site = sites[t, c]
    bound = np.where(site < lo[c], lo[c], hi[c])
    found = [((i, 0, s, j), BoundViolation(t0 + i - 1, chips[j].id, chips[j].value, s, lemma, b))
             for i, j, s, b in zip(t.tolist(), c.tolist(), site.tolist(), bound.tolist())]
    values = [chip.value for chip in chips]  # ascending: a clause's chips are a column range
    for i, (value, site, sign) in enumerate(_extreme_clauses(lemma, m)):
        held = (sites[:, bisect_left(values, value):] <= site if sign > 0
                else sites[:, :bisect_right(values, value)] >= site)
        found += [((t, 1, i), BoundViolation(t0 + t - 1, None, value, site, f"{lemma}_extremes", 1))
                  for t in np.flatnonzero(held.sum(axis=1) > 1).tolist()]
    return [violation for _, violation in sorted(found, key=itemgetter(0))]


def _diamond_moves(trace: Trace) -> np.ndarray:
    """``t, site, occ, x, y``: int64 arrays of the moves in the ``poset.diamond``
    table in step order: step, site, occurrence there (the log's fire index)
    and (x, y)."""
    final, log = diamond(trace.variant, trace.initial.total_chips()), trace.log
    return np.fromiter((v for t, move in enumerate(zip(log.sites, log.fire_index_at_site))
                        if (xy := final.get(move)) is not None
                        for v in (t, *move, *xy)), np.int64).reshape(-1, 5).T


def _move_bound_chips(trace: Trace, moves: np.ndarray, chips: list[Chip]) -> tuple[np.ndarray, ...]:
    """Row, column and side (int arrays) of the cells ``diamond_move_bounds``
    (base variant, even n) reads: right before the diamond move (x, y) fires
    at site s = x - y, the chip valued -(y+1) sits at or left of s (side -1),
    then the one valued x+1 at or right of s (side 1).  Of chips sharing a
    value, the last in ``chips()`` order is read; CheckerNotApplicableError
    if the trace has no chip of a value the bound needs."""
    t, _, _, x, y = moves
    column = {chip.id: c for c, chip in enumerate(chips)}
    by_value = {chip.value: column[chip.id] for _, chip in trace.initial.chips()}
    cols = []
    for value in np.column_stack((-(y + 1), x + 1)).ravel().tolist():
        if value not in by_value:
            raise CheckerNotApplicableError(
                f"diamond_move_bounds needs a chip valued {value}; the trace has none")
        cols.append(by_value[value])
    return np.repeat(t, 2), np.array(cols, np.intp), np.tile(np.array([-1, 1], np.intp), len(t))


def _count_violations(m: int, moves: np.ndarray, chips: list[Chip],
                      after: np.ndarray) -> list[BoundViolation]:
    """The counting bound on each row after a diamond move.

    This is ``diamond_count_bounds`` (one self-loop per site, n = 4m-1):
    after the j-th diamond move at site k <= 0 there are at least j+k+m-1
    chips valued below k at positions left of k; mirrored for k >= 0.
    """
    t, site, _, x, y = moves
    values = [chip.value for chip in chips]  # ascending: chips valued below k are a column range
    out = []
    for i, k, j, row in zip(t.tolist(), site.tolist(), (m - np.maximum(x, y)).tolist(), after):
        # side -1 counts below and left of k <= 0, side 1 above and right of k >= 0
        for side, beyond in ((-1, row[:bisect_left(values, k)] < k),
                             (1, row[bisect_right(values, k):] > k)):
            need = j - side * k + m - 1
            if side * k >= 0 and beyond.sum() < need:
                out.append(BoundViolation(i, None, None, k, "diamond_count_bounds", need))
    return out


def _attendance(moves: np.ndarray, chips: list[Chip],
                before: np.ndarray) -> dict[int, tuple[int, int, int]]:
    """``diamond_configuration`` read from the rows before the diamond moves."""
    _, site, occ, _, _ = moves
    hit = before == site[:, None]
    attended = hit.any(axis=0)
    if not attended.all():
        raise CheckerNotApplicableError(
            f"only {int(attended.sum())} of {len(chips)} chips attended a diamond move")
    first = hit.argmax(axis=0) if len(hit) else np.zeros(0, np.intp)  # each chip's first move
    order = np.argsort(first, kind="stable")
    return {chips[c].id: (chips[c].value, s, o) for c, s, o in
            zip(order.tolist(), site[first[order]].tolist(), occ[first[order]].tolist())}


def _config_violations(m: int, entries: list[tuple[int, int, int]]) -> list[BoundViolation]:
    """The counting bound on the diamond configuration's entries.

    This is ``diamond_config_bounds`` (one self-loop per site, n = 4m-1):
    for k in [-m-1, 0] and l in [0, k+m-1], at most k+m-l-1 chips valued
    below k are assigned to sites right of l; mirrored on the positive side.
    """
    out = []
    for k in range(-m - 1, 1):
        for l in range(0, k + m):
            limit = k + m - l - 1
            for side in (1, -1):  # 1: below k, right of l; -1: mirrored
                if sum(1 for value, site, _ in entries
                       if side * value < k and side * site > l) > limit:
                    out.append(BoundViolation(-1, None, side * k, side * l,
                                              "diamond_config_bounds", limit))
    return out


def check_bounds(trace: Trace, names) -> dict[str, list[BoundViolation]]:
    """``{name: violations}`` of the bound checkers ``names`` (any of
    ``SCOPES``), all read from one pass over the trace's chip-site table
    (``_chip_sites``).

    CheckerNotApplicableError if any of them refuses: outside its scope, or
    where the trace lacks what its bound needs; RepresentationLimitError if
    the trace's sites could leave int64 (``_chip_sites``).
    """
    n = trace.initial.total_chips()
    ms = {}
    for name in names:
        if name not in SCOPES:
            raise ValueError(f"{name!r} is not a bound checker")
        if (m := _scope_m(name, trace.variant, n)) is None:
            raise CheckerNotApplicableError(f"{name} does not apply to {trace.variant} with n={n}")
        ms[name] = m
    if not ms:
        return {}
    chips = [chip for _, chip in _columns(trace)]
    moves = _diamond_moves(trace) if ms.keys() - set(_POSITION_LEMMAS) else None
    readers = {}  # name -> reader(t0, sites) of one block
    for name, m in ms.items():
        if name in _POSITION_LEMMAS:  # limits clipped to +-_REACH, past every site
            limits = np.array([[min(max(bound, -_REACH), _REACH)
                                for bound in _position_limits(name, m, chip.value)]
                               for chip in chips], np.int64).reshape(-1, 2).T
            readers[name] = partial(_position_violations, name, m, chips, *limits)
        elif name == "diamond_move_bounds":
            rows, cols, sides = _move_bound_chips(trace, moves, chips)
            readers[name] = partial(_cells, rows, cols)
        else:  # row t is before move t, row t+1 after it
            after = name == "diamond_count_bounds"
            readers[name] = partial(_cells, moves[0] + after, None)
    read = {name: [] for name in readers}
    for t0, sites in _chip_sites(trace):
        for name, reader in readers.items():
            read[name].append(reader(t0, sites))
    out = {}
    for name, m in ms.items():
        if name in _POSITION_LEMMAS:
            out[name] = [violation for found in read[name] for violation in found]
            continue
        sites = np.concatenate(read[name])
        if name == "diamond_move_bounds":
            fired = np.repeat(moves[1], 2)
            broken = np.flatnonzero(sides * (sites - fired) < 0)
            out[name] = [BoundViolation(t, chips[c].id, chips[c].value, site, name, s)
                         for t, c, site, s in zip(rows[broken].tolist(), cols[broken].tolist(),
                                                  sites[broken].tolist(), fired[broken].tolist())]
        elif name == "diamond_count_bounds":
            out[name] = _count_violations(m, moves, chips, sites)
        else:
            out[name] = _config_violations(m, list(_attendance(moves, chips, sites).values()))
    return out


def diamond_configuration(trace: Trace) -> dict[int, tuple[int, int, int]]:
    """First diamond move each chip attended: chip id -> (value, site,
    occ_from_start) of that move.

    Present means sitting at the firing site when the move executes, chosen
    or not.  CheckerNotApplicableError if some chip never attends one;
    RepresentationLimitError as in ``check_bounds``.
    """
    moves = _diamond_moves(trace)
    before = np.concatenate([_cells(moves[0], None, t0, sites) for t0, sites in _chip_sites(trace)])
    return _attendance(moves, [chip for _, chip in _columns(trace)], before)

