"""Closed-form oracles for runs started from the origin.

For each supported (variant, n) pair this module predicts, without
simulating anything: the canonical label multiset, the number of firing
moves per site, the unlabeled terminal configuration, and (where a
sorting result holds) the labeled terminal.  Engine runs are validated
against these predictions; the flow-balance identity ties them together.
Each kind's m, fire counts, terminal counts and no-sorting rule are stated
together, in one branch of ``_forms``; the public functions read it.

Supported grids (all with every chip starting at the origin):

* base             any n >= 0, m = n // 2
* multi_edge(r)    n = 2*r*m
* origin_loops(s)  n >= s, n == s (mod 2), m = (n - s) // 2
* loops_everywhere n = 4m - 1, or n = 4m + 1 (counts derived, no sorting)
* loops_and_edges(r)  n = r * (4m - 1)
* exponential(t)   n = 2 ** (t + 2), m = 2 ** (t + 1)
"""

from __future__ import annotations

from itertools import islice
from math import comb

from .variants import Variant


class UnsupportedVariantError(ValueError):
    """The (variant, n) pair admits no closed-form oracle."""


class NoSortingTheoremError(UnsupportedVariantError):
    """No sorting/weak-sorting guarantee applies to this combination."""


def _require(cond: bool, msg: str):
    if not cond:
        raise UnsupportedVariantError(msg)


def _forms(variant: Variant, n: int) -> tuple[int, list[int], list[int], str | None]:
    """Every closed form of one (variant, n) pair, stated kind by kind.

    Returns ``(m, fires, chips, no_sort)`` for sites k >= 0, where sites -k
    and k agree: the half-width m; ``fires[k]``, the fire count of site k,
    listed up to the last site that fires; ``chips[k]``, the terminal chip
    count of site k, zeros included; and why no sorting result applies, or
    None.  Raises UnsupportedVariantError if n does not fit the grid.
    """
    _require(n >= 0, f"n must be >= 0, got {n}")
    kind = variant.kind
    if kind == "base":
        m = n // 2
        # triangular counts: site k fires (m-k+1 choose 2) times
        return (m, [comb(m - k + 1, 2) for k in range(m)], [n % 2] + [1] * m,
                f"base with odd n={n} does not sort" if n % 2 == 1 and n > 1 else None)
    if kind == "multi_edge":
        r = variant.r
        _require(n % (2 * r) == 0, f"multi_edge(r={r}) needs n divisible by 2r, got n={n}")
        m = n // (2 * r)
        return m, [comb(m - k + 1, 2) for k in range(m)], [0] + [r] * m, None
    if kind == "origin_loops":
        s = variant.s
        _require(n >= s and (n - s) % 2 == 0,
                 f"origin_loops(s={s}) needs n >= s and n == s mod 2, got n={n}")
        m = (n - s) // 2
        return m, [comb(m - k + 1, 2) for k in range(m)], [s] + [1] * m, None
    if kind == "loops_everywhere":
        _require(n % 2 == 1, f"loops_everywhere needs odd n, got {n}")
        if n % 4 == 3:
            m = (n + 1) // 4
            return m, [(m - k) ** 2 for k in range(m)], [1] + [2] * (m - 1) + [1], None
        m = (n - 1) // 4
        # derived by solving the flow-balance recurrence for the
        # 2-per-site terminal: (m-k)(m-k+1)
        return (m, [(m - k) * (m - k + 1) for k in range(m)], [1] + [2] * m,
                f"loops_everywhere with n={n} = 4m+1 does not sort" if n > 1 else None)
    if kind == "loops_and_edges":
        r = variant.r
        _require(n % r == 0 and (n // r) % 4 == 3,
                 f"loops_and_edges(r={r}) needs n = r*(4m-1), got n={n}")
        m = (n // r + 1) // 4
        return m, [(m - k) ** 2 for k in range(m)], [r] + [2 * r] * (m - 1) + [r], None
    # exponential, the last of the kinds ``Variant`` accepts
    t = variant.t
    _require(n == 2 ** (t + 2), f"exponential(t={t}) needs n = 2**(t+2) = {2 ** (t + 2)}, got {n}")
    return (2 ** (t + 1), [2 * (t - k) + 3 for k in range(t + 2)],
            [0] + [2 ** (t + 1 - k) for k in range(1, t + 2)] + [1], None)


def derive_m(variant: Variant, n: int) -> int:
    """Half-width parameter m of the supported grid; raises if n does not fit."""
    return _forms(variant, n)[0]


def canonical_labels(variant: Variant, n: int) -> tuple[int, ...]:
    """Value multiset of the origin preset, weakly increasing.

    Read into the terminal slots left to right, this multiset is exactly the
    expected sorted terminal: from the origin each chip labeled k ends at
    site k, so the labels are the sorted terminal's sites, except for the
    exponential variant, labeled -m..-1, 1..m.
    """
    if variant.kind == "exponential":
        m = derive_m(variant, n)
        return tuple(range(-m, 0)) + tuple(range(1, m + 1))
    return tuple(site for site, count in terminal_unlabeled(variant, n).items()
                 for _ in range(count))


def initial_values(variant: Variant, n: int, preset: str = "origin") -> dict[int, tuple[int, ...]]:
    """Chip values per site of a preset's initial configuration.

    ``origin`` puts the n canonical labels at site 0.  ``staircase`` (base
    variant, n >= 1) puts 2n+1 chips: values -n..-1 at site -1 and 1..n+1 at
    site 0.  Any other preset raises UnsupportedVariantError.
    """
    if preset == "origin":
        return {0: canonical_labels(variant, n)}
    _require(preset == "staircase", f"unknown preset {preset!r}")
    _require(variant.kind == "base", "staircase preset exists only for the base variant")
    _require(n >= 1, f"staircase preset needs n >= 1, got {n}")
    return {-1: tuple(range(-n, 0)), 0: tuple(range(1, n + 2))}


def total_fires(variant: Variant, n: int, site: int) -> int:
    """Number of firing moves at ``site`` over any complete run from the origin."""
    fires = _forms(variant, n)[1]
    return fires[abs(site)] if abs(site) < len(fires) else 0


def fire_count_table(variant: Variant, n: int) -> dict[int, int]:
    """Per-site firing counts, restricted to sites that fire at least once."""
    fires = _forms(variant, n)[1]
    return {k: fires[abs(k)] for k in range(1 - len(fires), len(fires))}


def terminal_unlabeled(variant: Variant, n: int) -> dict[int, int]:
    """Terminal chip count per site (sites with zero chips omitted)."""
    chips = _forms(variant, n)[2]
    out = {k: chips[abs(k)] for k in range(1 - len(chips), len(chips)) if chips[abs(k)]}
    if sum(out.values()) != n:
        raise AssertionError(f"the terminal holds {sum(out.values())} chips, not n={n}")
    return out


def expected_sorted_terminal(variant: Variant, n: int, preset: str = "origin") -> dict[int, tuple[int, ...]]:
    """Labeled terminal where a sorting/weak-sorting result applies.

    The canonical label multiset, read weakly increasing, is filled into the
    unlabeled terminal slots left to right.  Raises NoSortingTheoremError for
    combinations with no such guarantee (odd base n > 1, loops_everywhere
    with n = 4m + 1 > 1).
    """
    if preset != "origin":
        # From the staircase (``initial_values``) the weighted position sum
        # forces the terminal one site left of the value ladder: value k ends
        # at site k-1, the origin stays occupied by value 1 and site -1 goes
        # empty.
        return {value - 1: (value,) for values in initial_values(variant, n, preset).values()
                for value in values}
    no_sort = _forms(variant, n)[3]
    if no_sort is not None:
        raise NoSortingTheoremError(no_sort)
    labels = iter(canonical_labels(variant, n))
    return {site: tuple(islice(labels, count))
            for site, count in terminal_unlabeled(variant, n).items()}


def flow_balance_residual(variant: Variant, n: int) -> dict[int, int]:
    """Per-site residual of initial + inflow - outflow - terminal (all zero iff consistent).

    With ``(left, loop, right)`` from ``site_row``, inflow to site i is
    right(i-1)*f(i-1) + left(i+1)*f(i+1); outflow is (left(i)+right(i))*f(i)
    -- loop chips return to the site and cancel.  The origin preset starts
    with n chips at site 0.
    """
    fires = fire_count_table(variant, n)
    terminal = terminal_unlabeled(variant, n)
    init = {0: n}
    lo = min(list(fires) + list(terminal) + [0]) - 1
    hi = max(list(fires) + list(terminal) + [0]) + 1
    res = {}
    for i in range(lo, hi + 1):
        left, _, right, _ = variant.site_row(i)
        inflow = (variant.site_row(i - 1)[2] * fires.get(i - 1, 0)
                  + variant.site_row(i + 1)[0] * fires.get(i + 1, 0))
        outflow = (left + right) * fires.get(i, 0)
        res[i] = init.get(i, 0) + inflow - outflow - terminal.get(i, 0)
    return res
