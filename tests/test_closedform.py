import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import closedform as cf
from chipfire.engine import standard_initial
from chipfire.variants import Variant, base, exponential, loops_and_edges, loops_everywhere, multi_edge, origin_loops

# the full grid the acceptance suite exercises
SUPPORTED = [
    (base(), 2), (base(), 4), (base(), 6), (base(), 8), (base(), 10), (base(), 12),
    (base(), 3), (base(), 5), (base(), 11),
    (multi_edge(2), 8), (multi_edge(2), 12), (multi_edge(3), 6),
    (origin_loops(1), 7), (origin_loops(2), 8),
    (loops_everywhere(), 3), (loops_everywhere(), 7), (loops_everywhere(), 11),
    (loops_everywhere(), 5), (loops_everywhere(), 9),
    (loops_and_edges(2), 6), (loops_and_edges(2), 14),
    (exponential(0), 4), (exponential(1), 8), (exponential(2), 16),
]


def solve_fires_by_flow_balance(variant, n):
    """Independent oracle: solve the flow-balance linear system for the
    per-site fire counts given only the terminal configuration."""
    terminal = cf.terminal_unlabeled(variant, n)
    span = n + 1
    sites = list(range(-span, span + 1))
    idx = {s: i for i, s in enumerate(sites)}
    a = np.zeros((len(sites), len(sites)))
    b = np.zeros(len(sites))
    for s in sites:
        row = idx[s]
        a[row, idx[s]] = -(variant.site_row(s)[0] + variant.site_row(s)[2])
        if s - 1 in idx:
            a[row, idx[s - 1]] = variant.site_row(s - 1)[2]
        if s + 1 in idx:
            a[row, idx[s + 1]] = variant.site_row(s + 1)[0]
        b[row] = terminal.get(s, 0) - (n if s == 0 else 0)
    f = np.linalg.solve(a, b)
    counts = {s: round(f[idx[s]]) for s in sites}
    # exact integer verification of the solved system
    for s in range(-span - 1, span + 2):
        inflow = (variant.site_row(s - 1)[2] * counts.get(s - 1, 0)
                  + variant.site_row(s + 1)[0] * counts.get(s + 1, 0))
        outflow = (variant.site_row(s)[0] + variant.site_row(s)[2]) * counts.get(s, 0)
        assert (n if s == 0 else 0) + inflow - outflow == terminal.get(s, 0)
    return {s: c for s, c in counts.items() if c}


@pytest.mark.parametrize("variant,n", SUPPORTED)
def test_fire_counts_match_flow_balance_solver(variant, n):
    assert cf.fire_count_table(variant, n) == solve_fires_by_flow_balance(variant, n)


@pytest.mark.parametrize("variant,n", SUPPORTED)
def test_flow_balance_residual_zero(variant, n):
    assert all(r == 0 for r in cf.flow_balance_residual(variant, n).values())


def test_canonical_labels_examples():
    assert cf.canonical_labels(base(), 4) == (-2, -1, 1, 2)
    assert cf.canonical_labels(base(), 5) == (-2, -1, 0, 1, 2)
    assert cf.canonical_labels(loops_everywhere(), 7) == (-2, -1, -1, 0, 1, 1, 2)
    assert cf.canonical_labels(multi_edge(2), 8) == (-2, -2, -1, -1, 1, 1, 2, 2)
    assert cf.canonical_labels(origin_loops(2), 8) == (-3, -2, -1, 0, 0, 1, 2, 3)
    assert cf.canonical_labels(exponential(1), 8) == (-4, -3, -2, -1, 1, 2, 3, 4)
    assert cf.canonical_labels(loops_and_edges(2), 6) == (-1, -1, 0, 0, 1, 1)
    assert cf.canonical_labels(loops_everywhere(), 5) == (-1, -1, 0, 1, 1)
    assert cf.initial_values(base(), 7, "staircase") == {-1: tuple(range(-7, 0)), 0: tuple(range(1, 9))}


def test_total_fires_examples():
    assert cf.total_fires(base(), 10, 0) == 15
    assert [cf.total_fires(base(), 10, k) for k in range(6)] == [15, 10, 6, 3, 1, 0]
    assert cf.total_fires(loops_everywhere(), 11, 1) == 4
    assert cf.total_fires(loops_everywhere(), 11, -1) == 4
    assert [cf.total_fires(exponential(1), 8, k) for k in (0, 1, 2, 3)] == [5, 3, 1, 0]
    assert cf.total_fires(exponential(1), 8, -2) == 1
    # odd n keeps the even-n counts
    assert all(cf.total_fires(base(), 11, k) == cf.total_fires(base(), 10, k)
               for k in range(-6, 7))


def test_terminal_unlabeled_examples():
    assert cf.terminal_unlabeled(base(), 10) == {k: 1 for k in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)}
    assert cf.terminal_unlabeled(base(), 11) == {k: 1 for k in range(-5, 6)}
    assert cf.terminal_unlabeled(loops_everywhere(), 11) == {
        -3: 1, -2: 2, -1: 2, 0: 1, 1: 2, 2: 2, 3: 1}
    assert cf.terminal_unlabeled(exponential(1), 8) == {
        -3: 1, -2: 1, -1: 2, 1: 2, 2: 1, 3: 1}
    assert cf.terminal_unlabeled(origin_loops(2), 8) == {
        -3: 1, -2: 1, -1: 1, 0: 2, 1: 1, 2: 1, 3: 1}
    assert cf.terminal_unlabeled(multi_edge(2), 8) == {-2: 2, -1: 2, 1: 2, 2: 2}
    assert cf.terminal_unlabeled(loops_everywhere(), 5) == {-1: 2, 0: 1, 1: 2}


def test_expected_sorted_terminal():
    assert cf.expected_sorted_terminal(base(), 4) == {-2: (-2,), -1: (-1,), 1: (1,), 2: (2,)}
    assert cf.expected_sorted_terminal(loops_everywhere(), 7) == {
        -2: (-2,), -1: (-1, -1), 0: (0,), 1: (1, 1), 2: (2,)}
    assert cf.expected_sorted_terminal(multi_edge(2), 8) == {
        -2: (-2, -2), -1: (-1, -1), 1: (1, 1), 2: (2, 2)}
    assert cf.expected_sorted_terminal(exponential(1), 8) == {
        -3: (-4,), -2: (-3,), -1: (-2, -1), 1: (1, 2), 2: (3,), 3: (4,)}
    assert cf.expected_sorted_terminal(origin_loops(2), 8) == {
        -3: (-3,), -2: (-2,), -1: (-1,), 0: (0, 0), 1: (1,), 2: (2,), 3: (3,)}
    stair = cf.expected_sorted_terminal(base(), 3, preset="staircase")
    assert stair == {k - 1: (k,) for k in list(range(-3, 0)) + list(range(1, 5))}


def test_no_sorting_theorem_errors():
    with pytest.raises(cf.NoSortingTheoremError):
        cf.expected_sorted_terminal(base(), 5)
    with pytest.raises(cf.NoSortingTheoremError):
        cf.expected_sorted_terminal(loops_everywhere(), 9)


def test_unsupported_combinations():
    with pytest.raises(cf.UnsupportedVariantError):
        cf.fire_count_table(multi_edge(2), 7)
    with pytest.raises(cf.UnsupportedVariantError):
        cf.fire_count_table(loops_everywhere(), 6)
    with pytest.raises(cf.UnsupportedVariantError):
        cf.fire_count_table(exponential(1), 9)
    with pytest.raises(cf.UnsupportedVariantError):
        cf.fire_count_table(origin_loops(2), 7)
    with pytest.raises(cf.UnsupportedVariantError):
        cf.fire_count_table(loops_and_edges(2), 8)


def test_recurrences():
    # exponential: each site fires two more times than its outward neighbor
    for t in (1, 2, 3):
        n = 2 ** (t + 2)
        v = exponential(t)
        for k in range(0, t + 1):
            assert cf.total_fires(v, n, k) == cf.total_fires(v, n, k + 1) + 2
    # one-self-loop counts: f(k) = f(k+1) + 2(m-k) - 1 and the origin relation
    for n in (7, 11, 15):
        v = loops_everywhere()
        m = (n + 1) // 4
        f = lambda k: cf.total_fires(v, n, k)
        for k in range(1, m):
            assert f(k) == f(k + 1) + 2 * (m - k) - 1
        assert f(0) == (f(1) + f(-1) + 4 * m - 2) / 2


def test_loops_4m_plus_1_counts_match_solver():
    v = loops_everywhere()
    for n in (5, 9, 13):
        assert cf.fire_count_table(v, n) == solve_fires_by_flow_balance(v, n)


@given(st.sampled_from(["base", "multi_edge", "origin_loops", "loops_everywhere",
                        "loops_and_edges", "exponential"]),
       st.integers(1, 12), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_flow_balance_identity_holds_across_sizes(kind, m, r):
    if kind == "base":
        variant, n = base(), 2 * m
    elif kind == "multi_edge":
        variant, n = multi_edge(r), 2 * r * m
    elif kind == "origin_loops":
        variant, n = origin_loops(r), 2 * m + r
    elif kind == "loops_everywhere":
        variant, n = loops_everywhere(), 4 * m - 1 if r % 2 else 4 * m + 1
    elif kind == "loops_and_edges":
        variant, n = loops_and_edges(r), r * (4 * m - 1)
    else:
        variant, n = exponential(min(m, 6)), 2 ** (min(m, 6) + 2)
    assert all(x == 0 for x in cf.flow_balance_residual(variant, n).values())


def test_labels_sum_and_sorted_fill():
    for variant, n in SUPPORTED:
        labels = cf.canonical_labels(variant, n)
        assert len(labels) == n
        assert list(labels) == sorted(labels)
        terminal = cf.terminal_unlabeled(variant, n)
        assert sum(terminal.values()) == n
        try:
            labeled = cf.expected_sorted_terminal(variant, n)
        except cf.NoSortingTheoremError:
            continue
        assert {s: len(v) for s, v in labeled.items()} == terminal
        flat = [x for s in sorted(labeled) for x in labeled[s]]
        assert flat == sorted(flat)


def _per_kind_labels(variant, n):
    """Reference: the origin preset's labels spelled out kind by kind."""
    m = cf.derive_m(variant, n)
    pm = list(range(-m, 0)) + list(range(1, m + 1))
    doubled = [v for v in pm for _ in range(2)]
    loop_scheme = [-m, 0, m] + [v for v in pm if abs(v) < m for _ in range(2)] if m else [0]
    labels = {
        "base": pm + [0] * (n % 2),
        "multi_edge": pm * variant.r,
        "origin_loops": pm + [0] * variant.s,
        "loops_everywhere": loop_scheme if n % 4 == 3 else doubled + [0],
        "loops_and_edges": loop_scheme * variant.r,
        "exponential": pm,
    }[variant.kind]
    return tuple(sorted(labels))


def _supported_below(limit):
    """Every supported origin (variant, n) with n < ``limit`` and r, s, t <= 3."""
    variants = ([base(), loops_everywhere()]
                + [kind(r) for kind in (multi_edge, loops_and_edges) for r in (1, 2, 3)]
                + [origin_loops(s) for s in range(4)] + [exponential(t) for t in range(4)])
    out = []
    for variant in variants:
        for n in range(limit):
            try:
                cf.derive_m(variant, n)
            except cf.UnsupportedVariantError:
                continue
            out.append((variant, n))
    return out


def test_canonical_labels_match_per_kind_reference():
    pairs = _supported_below(80)
    assert len(pairs) == 392
    for variant, n in pairs:
        assert cf.canonical_labels(variant, n) == _per_kind_labels(variant, n), (variant, n)


@pytest.mark.parametrize("owner", [cf.initial_values, standard_initial,
                                   cf.expected_sorted_terminal], ids=lambda f: f.__name__)
def test_unknown_preset_is_refused(owner):
    with pytest.raises(cf.UnsupportedVariantError, match="unknown preset 'bogus'"):
        owner(base(), 4, "bogus")
