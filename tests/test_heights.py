import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heightlab.heights import HeightKind, HeightValue, fs_exponent, height, iroot

ALL_KINDS = list(HeightKind)


def pt(*coords):
    return tuple(Fraction(*c) for c in coords)


def test_height_examples():
    r = pt((1, 2), (1, 3))
    assert height(r, HeightKind.MAX) == HeightValue(3)
    assert height(r, HeightKind.MIN) == HeightValue(2)
    assert height(r, HeightKind.PROD) == HeightValue(6)
    assert height(r, HeightKind.LCM) == HeightValue(6)
    assert height(r, HeightKind.PROD_ROOT) == HeightValue(6, 2)


def test_lcm_vs_prod():
    r = pt((1, 4), (1, 6))
    assert height(r, HeightKind.LCM) == HeightValue(12)
    assert height(r, HeightKind.PROD) == HeightValue(24)


def test_d1_collapse():
    r = pt((5, 7))
    assert all(height(r, k) == HeightValue(7) for k in ALL_KINDS)


def test_canonicalization():
    assert HeightValue(36, 2) == HeightValue(6)
    assert HeightValue(36, 2).root == 1
    assert HeightValue(8, 6) == HeightValue(2, 2)
    assert HeightValue(27, 3) == HeightValue(3)
    assert HeightValue(12, 2).base == 12
    assert HeightValue(1, 5) == HeightValue(1)


@pytest.mark.parametrize(
    "pair, want",
    [
        ((64, 6), (2, 1)),
        ((8, 6), (2, 2)),
        ((7, 10 ** 7), (7, 10 ** 7)),
        ((2 ** 60, 12), (32, 1)),
        ((3 ** 10, 4), (3 ** 5, 2)),
        ((5 ** 6, 6), (5, 1)),
        ((10 ** 18, 3), (10 ** 6, 1)),
        ((10 ** 18, 3 ** 13), (100, 3 ** 11)),
        ((2, 10 ** 9 + 7), (2, 10 ** 9 + 7)),
        ((6 ** 35, 35), (6, 1)),
    ],
)
def test_canonical_pairs(pair, want):
    v = HeightValue(*pair)
    assert (v.base, v.root) == want


def _canonical_reference(base, root):
    # every divisor of root in turn, as long as it takes
    m = 2
    while m <= root:
        if root % m == 0 and iroot(base, m) ** m == base:
            base, root = iroot(base, m), root // m
            continue
        m += 1
    return (1, 1) if base == 1 else (base, root)


@given(c=st.integers(1, 40), k=st.integers(1, 12), root=st.integers(1, 60))
def test_canonical_matches_divisor_scan(c, k, root):
    v = HeightValue(c ** k, root)
    assert (v.base, v.root) == _canonical_reference(c ** k, root)


def test_canonical_is_cheap_for_huge_roots():
    start = time.perf_counter()
    HeightValue(7, 10 ** 7)
    HeightValue(2 ** 64 + 1, 10 ** 12)
    assert time.perf_counter() - start < 0.1


def test_cross_power_ordering():
    assert HeightValue(6, 2) < HeightValue(3)
    assert HeightValue(2) < HeightValue(5, 2)
    assert HeightValue(8, 3) == HeightValue(2)
    assert HeightValue(10, 2) > HeightValue(3)
    vals = [HeightValue(7), HeightValue(45, 2), HeightValue(300, 3), HeightValue(6)]
    assert sorted(vals) == sorted(vals, key=float)
    rng = random.Random(2017)
    for _ in range(2000):
        a = HeightValue(rng.randint(1, 300), rng.randint(1, 9))
        b = HeightValue(rng.randint(1, 300), rng.randint(1, 9))
        assert (a < b) == (a.base ** b.root < b.base ** a.root)


def test_comparison_and_iroot_skip_huge_powers():
    start = time.perf_counter()
    assert HeightValue(2, 10 ** 7) < HeightValue(3)
    assert not HeightValue(3) < HeightValue(2, 10 ** 7)
    assert iroot(2, 3 * 10 ** 7) == 1
    assert time.perf_counter() - start < 0.1


def test_height_value_validation():
    with pytest.raises(ValueError):
        HeightValue(0)
    with pytest.raises(ValueError):
        HeightValue(5, 0)
    with pytest.raises(TypeError):
        HeightValue(Fraction(5))


@st.composite
def reduced_points(draw, max_d=4, max_q=50):
    d = draw(st.integers(min_value=1, max_value=max_d))
    coords = []
    for _ in range(d):
        q = draw(st.integers(min_value=1, max_value=max_q))
        p = draw(st.integers(min_value=0, max_value=q))
        coords.append(Fraction(p, q))
    return tuple(coords)


@given(reduced_points())
def test_sandwich_ordering(r):
    h_min = height(r, HeightKind.MIN)
    h_pr = height(r, HeightKind.PROD_ROOT)
    h_max = height(r, HeightKind.MAX)
    h_lcm = height(r, HeightKind.LCM)
    h_prod = height(r, HeightKind.PROD)
    assert h_min <= h_pr <= h_max <= h_lcm <= h_prod


@given(reduced_points(max_d=1))
def test_single_coordinate_heights_agree(r):
    vals = {height(r, k) for k in ALL_KINDS}
    assert len(vals) == 1


@given(
    n=st.integers(min_value=0, max_value=10**30),
    k=st.integers(min_value=1, max_value=12),
)
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_fs_exponent_exact_kinds():
    assert fs_exponent(HeightKind.MIN, 5) == fs_exponent(HeightKind.MIN, 1)
    assert fs_exponent(HeightKind.MIN, 5).lower == 2
    assert fs_exponent(HeightKind.PROD, 2).lower == 1
    assert fs_exponent(HeightKind.PROD, 4).lower == Fraction(1, 2)
    assert fs_exponent(HeightKind.PROD_ROOT, 7).lower == 2
    assert fs_exponent(HeightKind.LCM, 2).lower == Fraction(3, 2)
    assert fs_exponent(HeightKind.LCM, 3).upper == Fraction(4, 3)


def test_fs_exponent_max_three():
    v = fs_exponent(HeightKind.MAX, 3)
    assert v.width <= Fraction(1, 10**9)
    # value is 3 / 2^(2/3): cube of (v/3) must bracket 1/4
    assert (v.lower / 3) ** 3 < Fraction(1, 4) < (v.upper / 3) ** 3
    assert abs(float(v.lower) - 1.889881575) < 1e-9


def test_fs_exponent_max_two():
    v = fs_exponent(HeightKind.MAX, 2)
    # 2 / 1^(1/2) = 2 exactly, up to certified width
    assert v.contains(Fraction(2)) or abs(float(v.lower) - 2.0) < 1e-12


def test_fs_exponent_max_domain_error():
    with pytest.raises(ValueError):
        fs_exponent(HeightKind.MAX, 1)
    with pytest.raises(ValueError):
        fs_exponent(HeightKind.MIN, 0)


def test_log_height_scaling():
    r = pt((1, 5), (2, 7))
    lp = height(r, HeightKind.PROD).log_height()
    lr = height(r, HeightKind.PROD_ROOT).log_height()
    scaled = (lp.lower / 2, lp.upper / 2)
    assert lr.lower <= scaled[1] and scaled[0] <= lr.upper
    assert lr.width < Fraction(1, 10**30)


def test_str_and_float():
    assert str(HeightValue(7)) == "7"
    assert str(HeightValue(45, 2)) == "45^(1/2)"
    assert math.isclose(float(HeightValue(45, 2)), 45 ** 0.5)
