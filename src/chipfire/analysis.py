"""Trace-level checkers: position bounds, counting bounds, sortedness.

Every checker replays a complete trace and returns the full list of
violations (empty on success).  ``SCOPES`` holds the ``(variant, n)`` each
checker applies to; ``applicable_checkers`` lists the checkers in scope, and
one applied outside it raises CheckerNotApplicableError, never passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor
from typing import Callable

from . import closedform
from .engine import ChipFiringError, LabeledConfiguration, Trace
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


def _require_scope(name: str, variant: Variant, n: int):
    if not SCOPES[name](variant, n):
        raise CheckerNotApplicableError(f"{name} does not apply to {variant} with n={n}")


def applicable_checkers(variant: Variant, n: int) -> list[tuple[str, Callable]]:
    """``(name, checker)``, checker taking a trace, for each scope that holds, in order.

    The checkers are looked up at call time, so a wrapper put on this
    module's attribute (a tracing span, say) is what runs."""
    checkers = {
        "conservation": check_conservation,
        "chip_bounds": check_chip_bounds,
        "diamond_move_bounds": check_diamond_move_bounds,
        "loop_bounds": check_loop_bounds,
        "diamond_count_bounds": check_diamond_count_bounds,
        "diamond_config_bounds": check_diamond_config_bounds,
    }
    return [(name, checkers[name]) for name, applies in SCOPES.items() if applies(variant, n)]


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
    its initial value plus sum_s c[s] * (right_mult(s) - left_mult(s)); the
    drift term vanishes for left/right-symmetric variants.
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


def check_chip_bounds(trace: Trace) -> list[BoundViolation]:
    """Per-step position bounds on the line without loops.

    A chip valued k < 0 never sits right of k + m, and a chip valued k > 0
    never sits left of k - m; with edge multiplicity r the r chips sharing a
    value share the bound.

    A move changes only the fired site and its neighbours, so while the
    previous state broke no bound only their chips are tested; a step after
    a violating one, or one where those chips break a bound, is scanned in
    full.
    """
    v = trace.variant
    n = trace.initial.total_chips()
    _require_scope("chip_bounds", v, n)
    m = closedform.derive_m(v, n)
    out = []

    def breaks(site, chips):
        for chip in chips:
            k = chip.value
            if (k < 0 and site > k + m) or (k > 0 and site < k - m):
                return True
        return False

    def scan(config, step):
        """Append every violation in ``config``; True if there was one."""
        found = len(out)
        for site, chip in config.chips():
            if chip.value < 0 and site > chip.value + m:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "chip_bounds", chip.value + m))
            elif chip.value > 0 and site < chip.value - m:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "chip_bounds", chip.value - m))
        return len(out) > found

    outstanding = scan(trace.initial, -1)
    for _, rec, after in trace.replay(verify=False):
        occupancy = after.occupancy
        s = rec.site
        if (outstanding or breaks(s - 1, occupancy.get(s - 1, ()))
                or breaks(s, occupancy.get(s, ())) or breaks(s + 1, occupancy.get(s + 1, ()))):
            outstanding = scan(after, rec.step)
    return out


def check_loop_bounds(trace: Trace) -> list[BoundViolation]:
    """Per-step position bounds for the one-self-loop-per-site variant, n = 4m-1.

    A chip valued k > 0 stays within [floor((k-m)/2), floor((k+m)/2)], a chip
    valued k < 0 within [ceil((k-m)/2), ceil((k+m)/2)], and chip 0 within
    [ceil(-m/2), floor(m/2)].

    Extreme-occupancy clause: when k+m is odd the chips valued >= k, with
    all smaller chips removed, form a process whose terminal has a single
    chip at its leftmost slot, so at most one chip valued >= k may sit at or
    left of floor((k-m)/2) at any time (mirrored for values <= -k).  When
    k+m is even that slot holds two chips and two may sit there; verified
    exhaustively over all reachable states at n = 7 and n = 11.
    """
    v = trace.variant
    n = trace.initial.total_chips()
    _require_scope("loop_bounds", v, n)
    m = closedform.derive_m(v, n)
    out = []

    def limits(k: int) -> tuple[int, int]:
        if k > 0:
            return floor((k - m) / 2), floor((k + m) / 2)
        if k < 0:
            return ceil((k - m) / 2), ceil((k + m) / 2)
        return ceil(-m / 2), floor(m / 2)

    def scan(config, step):
        chips = [(chip.value, site) for site, chip in config.chips()]
        for site, chip in config.chips():
            lo, hi = limits(chip.value)
            if site < lo or site > hi:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "loop_bounds", lo if site < lo else hi))
        for k in range(1, m + 1):
            if (k + m) % 2 == 0:
                continue
            low_extreme = floor((k - m) / 2)
            cnt = sum(1 for value, site in chips if value >= k and site <= low_extreme)
            if cnt > 1:
                out.append(BoundViolation(step, None, k, low_extreme,
                                          "loop_bounds_extremes", 1))
            high_extreme = ceil((m - k) / 2)
            cnt = sum(1 for value, site in chips if value <= -k and site >= high_extreme)
            if cnt > 1:
                out.append(BoundViolation(step, None, -k, high_extreme,
                                          "loop_bounds_extremes", 1))

    scan(trace.initial, -1)
    for _, rec, after in trace.replay(verify=False):
        scan(after, rec.step)
    return out


def _diamond_moves(trace: Trace):
    """``(before, rec, after, (x, y))`` for each of the trace's moves in the
    diamond of final moves (``poset.diamond``); a variant without one raises
    CheckerNotApplicableError."""
    try:
        final = diamond(trace.variant, trace.initial.total_chips())
    except closedform.UnsupportedVariantError as exc:
        raise CheckerNotApplicableError(str(exc))
    for before, rec, after in trace.replay(verify=False):
        xy = final.get((rec.site, rec.fire_index_at_site))
        if xy is not None:
            yield before, rec, after, xy


def check_diamond_move_bounds(trace: Trace) -> list[BoundViolation]:
    """Chip positions immediately before each diamond move, base variant, even n.

    Right before the diamond move with grid coordinates (x, y) fires at site
    s = x - y, the chip valued -(y+1) must sit at or left of s and the chip
    valued x+1 at or right of s.  A trace with no chip of a value it needs
    raises CheckerNotApplicableError.
    """
    v = trace.variant
    n = trace.initial.total_chips()
    _require_scope("diamond_move_bounds", v, n)
    by_value = {chip.value: chip for _, chip in trace.initial.chips()}
    out = []
    for before, rec, _, (x, y) in _diamond_moves(trace):
        # side -1: at or left of the firing site; side 1: at or right of it
        for value, side in ((-(y + 1), -1), (x + 1, 1)):
            if value not in by_value:
                raise CheckerNotApplicableError(
                    f"diamond_move_bounds needs a chip valued {value}; the trace has none")
            chip = by_value[value]
            site = next(s for s, chips in before.occupancy.items() if chip in chips)
            if side * (site - rec.site) < 0:
                out.append(BoundViolation(rec.step, chip.id, value, site,
                                          "diamond_move_bounds", rec.site))
    return out


def check_diamond_count_bounds(trace: Trace) -> list[BoundViolation]:
    """Counting bound after each diamond move, one-self-loop variant, n = 4m-1.

    After the j-th diamond move at site k <= 0 there are at least j+k+m-1
    chips valued below k at positions left of k; mirrored for k >= 0.
    """
    v = trace.variant
    n = trace.initial.total_chips()
    _require_scope("diamond_count_bounds", v, n)
    m = closedform.derive_m(v, n)
    out = []
    for _, rec, after, xy in _diamond_moves(trace):
        k = rec.site
        j = m - max(xy)
        chips = list(after.chips())
        # side -1 counts below and left of k <= 0, side 1 above and right of k >= 0
        for side in (-1, 1):
            if side * k >= 0:
                have = sum(1 for site, chip in chips
                           if side * chip.value > side * k and side * site > side * k)
                need = j - side * k + m - 1
                if have < need:
                    out.append(BoundViolation(rec.step, None, None, k,
                                              "diamond_count_bounds", need))
    return out


def diamond_configuration(trace: Trace) -> dict[int, tuple[int, int, int]]:
    """First diamond move each chip attended: chip id -> (value, site,
    occ_from_start) of that move.

    Present means sitting at the firing site when the move executes, chosen
    or not.  Raises if some chip never attends a diamond move.
    """
    n = trace.initial.total_chips()
    assignment: dict[int, tuple[int, int, int]] = {}
    for before, rec, _, _ in _diamond_moves(trace):
        for chip in before.chips_at(rec.site):
            if chip.id not in assignment:
                assignment[chip.id] = (chip.value, rec.site, rec.fire_index_at_site)
    if len(assignment) != n:
        raise ChipFiringError(
            f"only {len(assignment)} of {n} chips attended a diamond move")
    return assignment


def check_diamond_config_bounds(trace: Trace) -> list[BoundViolation]:
    """Counting bound on the diamond configuration, one-self-loop variant.

    For k in [-m-1, 0] and l in [0, k+m-1]: at most k+m-l-1 chips valued
    below k are assigned to sites right of l; mirrored on the positive side.
    """
    v = trace.variant
    n = trace.initial.total_chips()
    _require_scope("diamond_config_bounds", v, n)
    m = closedform.derive_m(v, n)
    entries = list(diamond_configuration(trace).values())
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
