"""Trace-level checkers: position bounds, counting bounds, sortedness.

Every checker takes a complete trace and returns the full list of
violations (empty on success).  Conservation replays the trace on its own
and recounts every step: it is the independent oracle.  The five bound
checkers are per-step observers of ``(before, MoveRecord, after)``;
``check_bounds`` feeds any set of them from one replay, looking each move up
once in one ``poset.diamond`` table, and each ``check_<name>`` is
``check_bounds`` with that one name.  The two position lemmas,
``chip_bounds`` and ``loop_bounds``, are one observer (``_PositionBounds``)
over one table of per-value limits (``_position_limits``) with one rescan
rule.  A checker applies to ``(variant, n)`` when its ``SCOPES`` entry holds
and, for all but conservation, the closed form gives its ``m``
(``_scope_m``); ``applicable_checkers`` lists the checkers that apply, and
one applied outside its scope raises CheckerNotApplicableError, never
passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import ceil, floor, inf
from typing import Callable

from . import closedform
from .engine import ChipFiringError, LabeledConfiguration, MoveRecord, Trace
from .poset import diamond
from .variants import Variant


class CheckerNotApplicableError(ChipFiringError):
    """The trace's variant/shape is outside this checker's scope."""


def _loops_4m_minus_1(variant: Variant, n: int) -> bool:
    return variant.kind == "loops_everywhere" and n % 4 == 3


# checker name -> does it apply to (variant, n), in report order
SCOPES: dict[str, Callable[[Variant, int], bool]] = {
    "conservation": lambda variant, n: True,
    "chip_bounds": lambda variant, n: variant.kind in ("base", "multi_edge"),
    "diamond_move_bounds": lambda variant, n: variant.kind == "base" and n % 2 == 0,
    "loop_bounds": _loops_4m_minus_1,
    "diamond_count_bounds": _loops_4m_minus_1,
    "diamond_config_bounds": _loops_4m_minus_1,
}


def _scope_m(name: str, variant: Variant, n: int) -> int | None:
    """``m`` for checker ``name`` on ``(variant, n)`` (None for conservation,
    which needs none); CheckerNotApplicableError unless its ``SCOPES`` entry
    holds and ``closedform.derive_m`` accepts n."""
    try:
        if SCOPES[name](variant, n):
            return None if name == "conservation" else closedform.derive_m(variant, n)
    except closedform.UnsupportedVariantError:
        pass
    raise CheckerNotApplicableError(f"{name} does not apply to {variant} with n={n}")


def applicable_checkers(variant: Variant, n: int) -> list[str]:
    """The names of the checkers that apply (``_scope_m``), in ``SCOPES``
    order: ``conservation`` first, then those ``check_bounds`` takes."""
    out = []
    for name in SCOPES:
        try:
            _scope_m(name, variant, n)
        except CheckerNotApplicableError:
            continue
        out.append(name)
    return out


@dataclass(frozen=True)
class BoundViolation:
    step: int
    chip_id: int | None
    chip_value: int | None
    site: int | None
    lemma: str
    bound: int

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "chip_id": self.chip_id,
            "chip_value": self.chip_value,
            "site": self.site,
            "lemma": self.lemma,
            "bound": self.bound,
        }


def violations_to_json(violations: list[BoundViolation]) -> list[dict]:
    return [v.to_json() for v in violations]


def is_weakly_sorted(config: LabeledConfiguration) -> bool:
    """True iff every lower-valued chip sits at or left of every higher-valued one."""
    flat = [chip.value for _, chip in config.chips()]
    return all(a <= b for a, b in zip(flat, flat[1:]))


def check_conservation(trace: Trace) -> list[BoundViolation]:
    """Chip count and drift-corrected weighted position sum after every step.

    After a prefix with fire counts c, the weighted sum of positions equals
    its initial value plus sum_s c[s] * (right - left) of ``site_row(s)``;
    the drift term vanishes for left/right-symmetric variants.
    """
    v = trace.variant
    total0 = trace.initial.total_chips()
    weighted0 = trace.initial.weighted_sum()
    out = []
    drift = 0
    for _, rec, after in trace.replay(verify=False):
        left, _, right, _ = v.site_row(rec.site)
        drift += right - left
        if after.total_chips() != total0:
            out.append(BoundViolation(rec.step, None, None, rec.site,
                                      "chip_conservation", total0))
        if after.weighted_sum() != weighted0 + drift:
            out.append(BoundViolation(rec.step, None, None, rec.site,
                                      "weighted_sum", weighted0 + drift))
    return out


# --- bound checkers: per-step observers fed by one replay --------------------

class _Observer:
    """One bound checker, built from the trace and its ``m`` (scanning the
    initial configuration as step -1 where its bound covers it), shown each
    move as ``step(before, rec, after, xy)``, and returning its violations
    from ``finish()``.  ``xy`` is the move's diamond coordinates; an
    observer with ``diamond_only`` set sees the diamond moves only, the
    others every move with ``xy`` None."""

    diamond_only = False

    def __init__(self, trace: Trace, m: int | None):
        self.m = m
        self.out: list[BoundViolation] = []

    def step(self, before: LabeledConfiguration, rec: MoveRecord,
             after: LabeledConfiguration, xy: tuple[int, int] | None):
        raise NotImplementedError

    def finish(self) -> list[BoundViolation]:
        return self.out


def _position_limits(lemma: str, m: int, k: int) -> tuple[float, float]:
    """``(lo, hi)``: the sites a chip valued k may occupy under position
    lemma ``lemma``, ``-inf`` or ``inf`` on a side it leaves open."""
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
    sign*value >= sign*value_c and sign*site <= sign*site_c."""
    if lemma != "loop_bounds":
        return []
    return [clause for k in range(1, m + 1) if (k + m) % 2
            for clause in ((k, floor((k - m) / 2), 1), (-k, ceil((m - k) / 2), -1))]


class _PositionBounds(_Observer):
    """A position lemma: every chip within its value's ``_position_limits``
    and every ``_extreme_clauses`` clause holding at most one chip.

    The initial configuration is scanned as step -1.  A move at s changes
    only sites s-1..s+1, and a clause's count only when chips cross between
    its site and the next one outward, so the configuration after it is
    rescanned only when the previous one broke the lemma, a chip at s-1..s+1
    breaks its limits, or s is one of those two sites of a clause.
    """

    def __init__(self, trace: Trace, m: int, lemma: str):
        super().__init__(trace, m)
        self.lemma = lemma
        self.clauses = _extreme_clauses(lemma, m)
        self.edges = {site + d for _, site, sign in self.clauses for d in (0, sign)}
        self.limits = {chip.value: _position_limits(lemma, m, chip.value)
                       for _, chip in trace.initial.chips()}
        self.outstanding = self._scan(trace.initial, -1)

    def _breaks(self, site: int, chips) -> bool:
        limits = self.limits
        for chip in chips:
            lo, hi = limits[chip.value]
            if site < lo or site > hi:
                return True
        return False

    def _scan(self, config: LabeledConfiguration, step: int) -> bool:
        """Append every violation in ``config``, positions in chip order and
        then the clauses; True if there was one."""
        limits, lemma, out = self.limits, self.lemma, self.out
        found = len(out)
        occupancy = sorted(config.occupancy.items())
        for site, chips in occupancy:
            for chip in chips:
                lo, hi = limits[chip.value]
                if site < lo or site > hi:
                    out.append(BoundViolation(step, chip.id, chip.value, site,
                                              lemma, lo if site < lo else hi))
        for value, clause_site, sign in self.clauses:
            if sum(1 for site, chips in occupancy if sign * site <= sign * clause_site
                   for chip in chips if sign * chip.value >= sign * value) > 1:
                out.append(BoundViolation(step, None, value, clause_site, f"{lemma}_extremes", 1))
        return len(out) > found

    def step(self, before, rec, after, xy):
        occupancy, s, breaks = after.occupancy, rec.site, self._breaks
        if (self.outstanding or s in self.edges or breaks(s - 1, occupancy.get(s - 1, ()))
                or breaks(s, occupancy.get(s, ())) or breaks(s + 1, occupancy.get(s + 1, ()))):
            self.outstanding = self._scan(after, rec.step)


class _DiamondMoveBounds(_Observer):
    diamond_only = True

    def __init__(self, trace: Trace, m: int):
        super().__init__(trace, m)
        self.by_value = {chip.value: chip for _, chip in trace.initial.chips()}

    def step(self, before, rec, after, xy):
        x, y = xy
        # side -1: at or left of the firing site; side 1: at or right of it
        for value, side in ((-(y + 1), -1), (x + 1, 1)):
            chip = self.by_value.get(value)
            if chip is None:
                raise CheckerNotApplicableError(
                    f"diamond_move_bounds needs a chip valued {value}; the trace has none")
            site = next(s for s, chips in before.occupancy.items() if chip in chips)
            if side * (site - rec.site) < 0:
                self.out.append(BoundViolation(rec.step, chip.id, value, site,
                                               "diamond_move_bounds", rec.site))


class _DiamondCountBounds(_Observer):
    diamond_only = True

    def step(self, before, rec, after, xy):
        m, k = self.m, rec.site
        j = m - max(xy)
        # side -1 counts below and left of k <= 0, side 1 above and right of k >= 0
        for side in (-1, 1):
            if side * k >= 0:
                have = sum(1 for site, chips in after.occupancy.items() if side * site > side * k
                           for chip in chips if side * chip.value > side * k)
                need = j - side * k + m - 1
                if have < need:
                    self.out.append(BoundViolation(rec.step, None, None, k,
                                                   "diamond_count_bounds", need))


class _DiamondConfigBounds(_Observer):
    """Builds the diamond configuration (``diamond_configuration``) and
    checks its counting bound when finished."""

    diamond_only = True

    def __init__(self, trace: Trace, m: int | None):
        super().__init__(trace, m)
        self.n = trace.initial.total_chips()
        self.assignment: dict[int, tuple[int, int, int]] = {}

    def step(self, before, rec, after, xy):
        assignment = self.assignment
        for chip in before.occupancy[rec.site]:
            if chip.id not in assignment:
                assignment[chip.id] = (chip.value, rec.site, rec.fire_index_at_site)

    def configuration(self) -> dict[int, tuple[int, int, int]]:
        if len(self.assignment) != self.n:
            raise CheckerNotApplicableError(
                f"only {len(self.assignment)} of {self.n} chips attended a diamond move")
        return self.assignment

    def finish(self) -> list[BoundViolation]:
        m, out = self.m, self.out
        entries = list(self.configuration().values())
        for k in range(-m - 1, 1):
            for l in range(0, k + m):
                limit = k + m - l - 1
                for side in (1, -1):  # 1: below k, right of l; -1: mirrored
                    if sum(1 for value, site, _ in entries
                           if side * value < k and side * site > l) > limit:
                        out.append(BoundViolation(-1, None, side * k, side * l,
                                                  "diamond_config_bounds", limit))
        return out


# bound checker name -> its observer, in SCOPES order
_OBSERVERS = {
    "chip_bounds": partial(_PositionBounds, lemma="chip_bounds"),
    "diamond_move_bounds": _DiamondMoveBounds,
    "loop_bounds": partial(_PositionBounds, lemma="loop_bounds"),
    "diamond_count_bounds": _DiamondCountBounds,
    "diamond_config_bounds": _DiamondConfigBounds,
}


def _observe(trace: Trace, observers: list[_Observer]):
    """Show every move of one replay of ``trace`` to ``observers``, each
    move looked up once in the diamond table when one of them needs it."""
    every = [obs.step for obs in observers if not obs.diamond_only]
    on_diamond = [obs.step for obs in observers if obs.diamond_only]
    final = diamond(trace.variant, trace.initial.total_chips()) if on_diamond else {}
    for before, rec, after in trace.replay(verify=False):
        for step in every:
            step(before, rec, after, None)
        if on_diamond:
            xy = final.get((rec.site, rec.fire_index_at_site))
            if xy is not None:
                for step in on_diamond:
                    step(before, rec, after, xy)


def check_bounds(trace: Trace, names) -> dict[str, list[BoundViolation]]:
    """``{name: violations}`` of the bound checkers ``names`` (any of
    ``SCOPES`` but conservation), all fed from one replay of ``trace``.

    CheckerNotApplicableError if any of them refuses: outside its scope
    before the replay, or where the trace lacks what its bound needs.
    """
    n = trace.initial.total_chips()
    observers = {}
    for name in names:
        if name not in _OBSERVERS:
            raise ValueError(f"{name!r} is not a bound checker")
        observers[name] = _OBSERVERS[name](trace, _scope_m(name, trace.variant, n))
    if observers:
        _observe(trace, list(observers.values()))
    return {name: obs.finish() for name, obs in observers.items()}


def check_chip_bounds(trace: Trace) -> list[BoundViolation]:
    """Per-step position bounds on the line without loops.

    A chip valued k < 0 never sits right of k + m, and a chip valued k > 0
    never sits left of k - m; with edge multiplicity r the r chips sharing a
    value share the bound.  Its limits are ``_position_limits``, scanned
    by the rescan rule of ``_PositionBounds``.
    """
    return check_bounds(trace, ["chip_bounds"])["chip_bounds"]


def check_loop_bounds(trace: Trace) -> list[BoundViolation]:
    """Per-step position bounds for the one-self-loop-per-site variant, n = 4m-1.

    A chip valued k > 0 stays within [floor((k-m)/2), floor((k+m)/2)], a chip
    valued k < 0 within [ceil((k-m)/2), ceil((k+m)/2)], and chip 0 within
    [ceil(-m/2), floor(m/2)].

    Extreme-occupancy clause: when k+m is odd the chips valued >= k, with
    all smaller chips removed, form a process whose terminal has a single
    chip at its leftmost slot, so at most one chip valued >= k may sit at or
    left of floor((k-m)/2) at any time (mirrored for values <= -k).  When
    k+m is even that slot holds two chips and two may sit there; both hold
    on every reachable state at n = 7 and n = 11 (tests/test_analysis.py).

    The limits are ``_position_limits`` and the clauses
    ``_extreme_clauses``, scanned by the rescan rule of ``_PositionBounds``,
    the one it shares with ``check_chip_bounds``.
    """
    return check_bounds(trace, ["loop_bounds"])["loop_bounds"]


def check_diamond_move_bounds(trace: Trace) -> list[BoundViolation]:
    """Chip positions immediately before each diamond move, base variant, even n.

    Right before the diamond move with grid coordinates (x, y) fires at site
    s = x - y, the chip valued -(y+1) must sit at or left of s and the chip
    valued x+1 at or right of s.  A trace with no chip of a value it needs
    raises CheckerNotApplicableError.
    """
    return check_bounds(trace, ["diamond_move_bounds"])["diamond_move_bounds"]


def check_diamond_count_bounds(trace: Trace) -> list[BoundViolation]:
    """Counting bound after each diamond move, one-self-loop variant, n = 4m-1.

    After the j-th diamond move at site k <= 0 there are at least j+k+m-1
    chips valued below k at positions left of k; mirrored for k >= 0.
    """
    return check_bounds(trace, ["diamond_count_bounds"])["diamond_count_bounds"]


def diamond_configuration(trace: Trace) -> dict[int, tuple[int, int, int]]:
    """First diamond move each chip attended: chip id -> (value, site,
    occ_from_start) of that move.

    Present means sitting at the firing site when the move executes, chosen
    or not.  CheckerNotApplicableError if some chip never attends one.
    """
    observer = _DiamondConfigBounds(trace, None)
    _observe(trace, [observer])
    return observer.configuration()


def check_diamond_config_bounds(trace: Trace) -> list[BoundViolation]:
    """Counting bound on the diamond configuration, one-self-loop variant.

    For k in [-m-1, 0] and l in [0, k+m-1]: at most k+m-l-1 chips valued
    below k are assigned to sites right of l; mirrored on the positive side.
    """
    return check_bounds(trace, ["diamond_config_bounds"])["diamond_config_bounds"]
