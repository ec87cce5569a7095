"""Closed-form oracles for runs started from the origin.

For each supported (variant, n) pair this module predicts, without
simulating anything: the canonical label multiset, the number of firing
moves per site, the unlabeled terminal configuration, and (where a
sorting result holds) the labeled terminal.  Engine runs are validated
against these predictions; the flow-balance identity ties them together.

Supported grids (all with every chip starting at the origin):

* base             any n >= 0, m = n // 2
* multi_edge(r)    n = 2*r*m
* origin_loops(s)  n >= s, n == s (mod 2), m = (n - s) // 2
* loops_everywhere n = 4m - 1, or n = 4m + 1 (counts derived, no sorting)
* loops_and_edges(r)  n = r * (4m - 1)
* exponential(t)   n = 2 ** (t + 2)
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


def derive_m(variant: Variant, n: int) -> int:
    """Half-width parameter m of the supported grid; raises if n does not fit."""
    _require(n >= 0, f"n must be >= 0, got {n}")
    kind = variant.kind
    if kind == "base":
        return n // 2
    if kind == "multi_edge":
        _require(n % (2 * variant.r) == 0, f"multi_edge(r={variant.r}) needs n divisible by 2r, got n={n}")
        return n // (2 * variant.r)
    if kind == "origin_loops":
        _require(n >= variant.s and (n - variant.s) % 2 == 0,
                 f"origin_loops(s={variant.s}) needs n >= s and n == s mod 2, got n={n}")
        return (n - variant.s) // 2
    if kind == "loops_everywhere":
        _require(n % 2 == 1, f"loops_everywhere needs odd n, got {n}")
        if n % 4 == 3:
            return (n + 1) // 4
        return (n - 1) // 4
    if kind == "loops_and_edges":
        r = variant.r
        _require(n % r == 0 and (n // r) % 4 == 3,
                 f"loops_and_edges(r={r}) needs n = r*(4m-1), got n={n}")
        return (n // r + 1) // 4
    # exponential, the last of the kinds ``Variant`` accepts
    _require(n == 2 ** (variant.t + 2),
             f"exponential(t={variant.t}) needs n = 2**(t+2) = {2 ** (variant.t + 2)}, got {n}")
    return 2 ** (variant.t + 1)


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
    m = derive_m(variant, n)
    k = abs(site)
    kind = variant.kind
    if kind in ("base", "multi_edge", "origin_loops"):
        # triangular counts: site k fires (m-|k|+1 choose 2) times
        return comb(m - k + 1, 2) if k <= m else 0
    if kind in ("loops_everywhere", "loops_and_edges"):
        if kind == "loops_everywhere" and n % 4 == 1:
            # derived by solving the flow-balance recurrence for the
            # 2-per-site terminal: (m-|k|)(m-|k|+1)
            return (m - k) * (m - k + 1) if k <= m else 0
        return (m - k) ** 2 if k <= m else 0
    t = variant.t  # exponential
    return 2 * (t - k) + 3 if k <= t + 1 else 0


def fire_count_table(variant: Variant, n: int) -> dict[int, int]:
    """Per-site firing counts, restricted to sites that fire at least once."""
    table = {}
    k = 0
    while f := total_fires(variant, n, k):
        table[k] = table[-k] = f
        k += 1
    return dict(sorted(table.items()))


def terminal_unlabeled(variant: Variant, n: int) -> dict[int, int]:
    """Terminal chip count per site (sites with zero chips omitted)."""
    m = derive_m(variant, n)
    kind = variant.kind
    out: dict[int, int] = {}
    if kind == "base":
        for k in range(1, m + 1):
            out[k] = out[-k] = 1
        if n % 2 == 1:
            out[0] = 1
    elif kind == "multi_edge":
        for k in range(1, m + 1):
            out[k] = out[-k] = variant.r
    elif kind == "origin_loops":
        for k in range(1, m + 1):
            out[k] = out[-k] = 1
        if variant.s:
            out[0] = variant.s
    elif kind == "loops_everywhere":
        if n % 4 == 3:
            out[m] = out[-m] = 1
            out[0] = 1
            for k in range(1, m):
                out[k] = out[-k] = 2
        else:  # n = 4m + 1
            out[0] = 1
            for k in range(1, m + 1):
                out[k] = out[-k] = 2
    elif kind == "loops_and_edges":
        r = variant.r
        out[m] = out[-m] = r
        out[0] = r
        for k in range(1, m):
            out[k] = out[-k] = 2 * r
    else:  # exponential
        t = variant.t
        for k in range(1, t + 2):
            out[k] = out[-k] = 2 ** (t + 1 - k)
        out[t + 2] = out[-t - 2] = 1
    assert sum(out.values()) == n
    return dict(sorted(out.items()))


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
    if variant.kind == "base" and n % 2 == 1 and n > 1:
        raise NoSortingTheoremError(f"base with odd n={n} does not sort")
    if variant.kind == "loops_everywhere" and n % 4 == 1 and n > 1:
        raise NoSortingTheoremError(f"loops_everywhere with n={n} = 4m+1 does not sort")
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
