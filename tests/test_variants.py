import pytest

import variant_reference as ref
from chipfire.variants import Variant, base, exponential, loops_and_edges, loops_everywhere, multi_edge, origin_loops


def brute_force_bundles(t, span=30):
    """Edge bundles built directly from the placement rule, as an oracle."""
    bundles = {}
    for j in range(-span, span + 1):
        bundles[j] = 1
    for k in range(0, t + 1):
        bundles[k] = 2 ** (t - k)          # between k and k+1
        bundles[-k - 1] = 2 ** (t - k)     # between -k and -k-1
    return bundles


def test_base_multiplicities():
    v = base()
    for site in (-3, 0, 7):
        assert v.site_row(site)[:3] == (1, 0, 1)
        assert v.threshold(site) == 2


def test_multi_edge_and_loops():
    assert multi_edge(3).site_row(5) == (3, 0, 3, 6)
    assert origin_loops(2).site_row(0) == (1, 2, 1, 4)
    assert origin_loops(2).site_row(1) == (1, 0, 1, 2)
    assert loops_everywhere().threshold(-4) == 3
    assert loops_and_edges(2).site_row(1) == (2, 2, 2, 6)
    assert loops_and_edges(2).threshold(0) == 6


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_exponential_matches_bundle_enumeration(t):
    v = exponential(t)
    bundles = brute_force_bundles(t)
    for site in range(-10, 11):
        left, _, right, _ = v.site_row(site)
        assert (left, right) == (bundles[site - 1], bundles[site])
        assert v.threshold(site) == bundles[site - 1] + bundles[site]


def test_exponential_thresholds_examples():
    assert exponential(1).threshold(0) == 4
    assert exponential(1).threshold(1) == 3


def test_threshold_at_least_two():
    for v in (base(), multi_edge(2), origin_loops(3), loops_everywhere(),
              loops_and_edges(2), exponential(2)):
        for site in range(-6, 7):
            left, loop, right, threshold = v.site_row(site)
            assert threshold >= 2 and left >= 1 and right >= 1 and loop >= 0


def test_validation():
    with pytest.raises(ValueError):
        Variant("nope")
    with pytest.raises(ValueError):
        Variant("multi_edge", r=0)
    with pytest.raises(ValueError):
        Variant("exponential", t=-1)
    with pytest.raises(ValueError, match="origin loop count s must be >= 0"):
        Variant("origin_loops", s=-1)


def test_json_round_trip():
    for v in (base(), multi_edge(2), origin_loops(1), loops_everywhere(),
              loops_and_edges(3), exponential(2)):
        assert Variant.from_json(v.to_json()) == v


@pytest.mark.parametrize("kind,param", [
    ("base", {"r": 3}), ("base", {"s": 1}), ("base", {"t": 1}),
    ("multi_edge", {"s": 1}), ("multi_edge", {"t": 2}),
    ("origin_loops", {"r": 2}), ("origin_loops", {"t": 1}),
    ("loops_everywhere", {"r": 2}), ("loops_everywhere", {"s": 1}),
    ("loops_and_edges", {"s": 2}), ("loops_and_edges", {"t": 1}),
    ("exponential", {"r": 2}), ("exponential", {"s": 1})])
def test_parameter_the_kind_ignores_is_rejected(kind, param):
    with pytest.raises(ValueError, match=f"takes no parameter {next(iter(param))}"):
        Variant(kind, **param)
    with pytest.raises(ValueError):
        Variant.from_json({"kind": kind, **param})


@pytest.mark.parametrize("v", [base(), multi_edge(3), origin_loops(0), origin_loops(3),
                               loops_everywhere(), loops_and_edges(2),
                               *(exponential(t) for t in range(4))], ids=str)
def test_site_table_matches_formulas(v):
    for site in range(-40, 41):
        left, loop, right = ref.left_mult(v, site), ref.loop_mult(v, site), ref.right_mult(v, site)
        assert v.threshold(site) == left + loop + right
        assert v.site_row(site) == (left, loop, right, left + loop + right)


@pytest.mark.parametrize("variant", [base(), multi_edge(3), origin_loops(2), loops_everywhere(),
                                     loops_and_edges(2), exponential(2)])
def test_site_rows_are_mirror_symmetric(variant):
    # the labeled search keeps one state per mirror class (site -> -site)
    for site in range(-40, 41):
        left, loop, right, threshold = variant.site_row(site)
        assert variant.site_row(-site) == (right, loop, left, threshold)
