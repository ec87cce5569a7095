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
        "diamond_config_bounds": _check_diamond_configuration,
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
    """
    v = trace.variant
    n = trace.initial.total_chips()
    _require_scope("chip_bounds", v, n)
    m = closedform.derive_m(v, n)
    out = []

    def scan(config, step):
        for site, chip in config.chips():
            if chip.value < 0 and site > chip.value + m:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "chip_bounds", chip.value + m))
            elif chip.value > 0 and site < chip.value - m:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "chip_bounds", chip.value - m))

    scan(trace.initial, -1)
    for _, rec, after in trace.replay(verify=False):
        scan(after, rec.step)
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


def check_diamond_move_bounds(trace: Trace) -> list[BoundViolation]:
    """Chip positions immediately before each diamond move, base variant, even n.

    Right before the diamond move with grid coordinates (x, y) fires at site
    s = x - y, the chip valued -(y+1) must sit at or left of s and the chip
    valued x+1 at or right of s.
    """
    v = trace.variant
    n = trace.initial.total_chips()
    _require_scope("diamond_move_bounds", v, n)
    final = diamond(v, n)
    by_value = {chip.value: chip.id for _, chip in trace.initial.chips()}
    out = []
    for before, rec, after in trace.replay(verify=False):
        xy = final.get((rec.site, rec.fire_index_at_site))
        if xy is not None:
            x, y = xy
            positions = before.positions()
            neg_pos = positions[by_value[-(y + 1)]]
            if neg_pos > rec.site:
                out.append(BoundViolation(rec.step, by_value[-(y + 1)], -(y + 1),
                                          neg_pos, "diamond_move_bounds", rec.site))
            pos_pos = positions[by_value[x + 1]]
            if pos_pos < rec.site:
                out.append(BoundViolation(rec.step, by_value[x + 1], x + 1,
                                          pos_pos, "diamond_move_bounds", rec.site))
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
    final = diamond(v, n)
    out = []
    for before, rec, after in trace.replay(verify=False):
        xy = final.get((rec.site, rec.fire_index_at_site))
        if xy is None:
            continue
        k = rec.site
        j = m - max(xy)
        chips = list(after.chips())
        if k <= 0:
            have = sum(1 for site, chip in chips if chip.value < k and site < k)
            need = j + k + m - 1
            if have < need:
                out.append(BoundViolation(rec.step, None, None, k,
                                          "diamond_count_bounds", need))
        if k >= 0:
            have = sum(1 for site, chip in chips if chip.value > k and site > k)
            need = j - k + m - 1
            if have < need:
                out.append(BoundViolation(rec.step, None, None, k,
                                          "diamond_count_bounds", need))
    return out


@dataclass
class DiamondConfigurationView:
    """First diamond move each chip attended, and the site where it happened."""

    variant: Variant
    n: int
    m: int
    # chip id -> (value, site of first attended diamond move, occ_from_start)
    assignment: dict[int, tuple[int, int, int]]

    def induced_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, site, _ in self.assignment.values():
            counts[site] = counts.get(site, 0) + 1
        return dict(sorted(counts.items()))


def diamond_configuration(trace: Trace) -> DiamondConfigurationView:
    """Assign each chip to the site of the first diamond move it is present at.

    Present means sitting at the firing site when the move executes, chosen
    or not.  Raises if some chip never attends a diamond move.
    """
    v = trace.variant
    n = trace.initial.total_chips()
    try:
        final = diamond(v, n)
    except closedform.UnsupportedVariantError as exc:
        raise CheckerNotApplicableError(str(exc))
    assignment: dict[int, tuple[int, int, int]] = {}
    for before, rec, after in trace.replay(verify=False):
        if (rec.site, rec.fire_index_at_site) in final:
            for chip in before.chips_at(rec.site):
                if chip.id not in assignment:
                    assignment[chip.id] = (chip.value, rec.site, rec.fire_index_at_site)
    if len(assignment) != n:
        raise ChipFiringError(
            f"only {len(assignment)} of {n} chips attended a diamond move")
    return DiamondConfigurationView(v, n, closedform.derive_m(v, n), assignment)


def check_diamond_config_bounds(view: DiamondConfigurationView) -> list[BoundViolation]:
    """Counting bound on the diamond configuration, one-self-loop variant.

    For k in [-m-1, 0] and l in [0, k+m-1]: at most k+m-l-1 chips valued
    below k are assigned to sites right of l; mirrored on the positive side.
    """
    _require_scope("diamond_config_bounds", view.variant, view.n)
    m = view.m
    entries = list(view.assignment.values())
    out = []
    for k in range(-m - 1, 1):
        for l in range(0, k + m):
            limit = k + m - l - 1
            low = sum(1 for value, site, _ in entries if value < k and site > l)
            if low > limit:
                out.append(BoundViolation(-1, None, k, l, "diamond_config_bounds", limit))
            high = sum(1 for value, site, _ in entries if value > -k and site < -l)
            if high > limit:
                out.append(BoundViolation(-1, None, -k, -l, "diamond_config_bounds", limit))
    return out


def _check_diamond_configuration(trace: Trace) -> list[BoundViolation]:
    """``check_diamond_config_bounds`` of the trace's diamond configuration, in scope only."""
    _require_scope("diamond_config_bounds", trace.variant, trace.initial.total_chips())
    return check_diamond_config_bounds(diamond_configuration(trace))
