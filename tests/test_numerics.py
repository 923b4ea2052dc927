import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

from heightlab.errors import PrecisionExhaustedError
from heightlab.numerics import (
    BitsTarget,
    Interval,
    LiouvilleTarget,
    RationalTarget,
    RealTarget,
    e_target,
    exp_enclosure,
    golden_target,
    liouville_target,
    liouville_truncation,
    ln_enclosure,
    parse_target,
    pow_enclosure,
    precisions,
    reduce,
    refine,
    sample_uniform,
    sqrt2_target,
)


def test_reduce_lowest_terms():
    assert reduce(2, 4) == Fraction(1, 2)
    assert reduce(0, 7) == 0
    assert reduce(-3, 6) == Fraction(-1, 2)
    assert reduce(5, 5).denominator == 1


def test_reduce_rejects_bad_denominator():
    with pytest.raises(ValueError):
        reduce(1, 0)
    with pytest.raises(ValueError):
        reduce(1, -2)


@given(st.integers(-1000, 1000), st.integers(1, 1000))
def test_reduce_is_coprime(p, q):
    r = reduce(p, q)
    assert math.gcd(abs(r.numerator), r.denominator) == 1
    assert r.denominator >= 1
    assert r * q == p


def test_interval_rejects_inverted_endpoints():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0))


# --- enclosure contracts -----------------------------------------------------


def test_rational_enclosure_is_degenerate():
    t = parse_target("dec:0.5")
    e = refine(t, 4)
    assert e.lower == e.upper == Fraction(1, 2)
    assert t.exact_value == Fraction(1, 2)


def test_sqrt2_enclosure_squares_around_two():
    # oracle: y = sqrt(2) - 1 satisfies (y + 1)^2 = 2 exactly
    t = sqrt2_target()
    e = refine(t, 80)
    assert (e.lower + 1) ** 2 < 2 < (e.upper + 1) ** 2
    assert e.width <= Fraction(1, 2**80)


def test_golden_enclosure_satisfies_quadratic():
    # oracle: y = (sqrt(5) - 1)/2 satisfies y^2 + y - 1 = 0 with y increasing
    t = golden_target()
    e = refine(t, 80)
    assert e.lower**2 + e.lower - 1 < 0 < e.upper**2 + e.upper - 1


def test_e_target_quotient_stream():
    t = e_target()
    got = [t.partial_quotient(n) for n in range(1, 12)]
    assert got == [1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8]


def test_e_target_value_digits():
    # e - 2 = 0.71828182845904523536...
    e = refine(e_target(), 64)
    lo = Fraction("0.718281828459045235")
    hi = Fraction("0.718281828459045236")
    assert lo < e.lower and e.upper < hi


@given(st.integers(0, 2**32), st.integers(2, 64), st.integers(2, 64))
@settings(max_examples=60)
def test_enclosures_are_nested(seed, b1, b2):
    t = BitsTarget(seed)
    first = refine(t, min(b1, b2))
    second = refine(t, max(b1, b2))
    assert first.lower <= second.lower <= second.upper <= first.upper
    assert second.width <= Fraction(1, 2 ** max(b1, b2))


def test_bits_target_deterministic():
    a = refine(BitsTarget(7, 1), 300)
    b = refine(BitsTarget(7, 1), 300)
    assert a == b
    assert refine(BitsTarget(7, 2), 300) != a


def test_sample_uniform_in_unit_interval():
    for t in sample_uniform(123, 3):
        e = refine(t, 16)
        assert 0 <= e.lower and e.upper <= 1


def test_distinct_seeds_eventually_separate():
    a = sample_uniform(7, 2)[0]
    b = sample_uniform(8, 2)[0]
    bits = 8
    while bits <= a.budget:
        ea, eb = refine(a, bits), refine(b, bits)
        if ea.upper < eb.lower or eb.upper < ea.lower:
            break
        bits *= 2
    else:
        pytest.fail("enclosures never separated within the budget")


def test_precision_schedule_doubles_up_to_the_budget():
    assert list(precisions(64, 300)) == [64, 128, 256, 300]
    # the start precision comes first even above the budget
    assert list(precisions(192, 100)) == [192]
    assert list(precisions(64, 64)) == [64]


@pytest.mark.parametrize(
    "lo, hi",
    [(Fraction(-3, 4), Fraction(-1, 2)), (Fraction(1, 3), Fraction(5, 7)),
     (Fraction(-1, 8), Fraction(1, 2)), (Fraction(-1, 2), Fraction(1, 8)),
     (Fraction(2, 9), Fraction(2, 9)), (Fraction(0), Fraction(0))],
)
def test_interval_distance_matches_endpoint_formula(lo, hi):
    # intervals left of, right of, straddling and at v = 0, shifted to v = 1/5
    for v in (Fraction(0), Fraction(1, 5)):
        iv = Interval(lo + v, hi + v).distance(v)
        near = Fraction(0) if lo <= 0 <= hi else min(abs(lo), abs(hi))
        assert iv == Interval(near, max(abs(lo), abs(hi)))


def test_budget_is_enforced():
    t = BitsTarget(1, 0, budget=64)
    refine(t, 64)
    with pytest.raises(PrecisionExhaustedError):
        refine(t, 65)


# --- liouville fixture -------------------------------------------------------


def test_liouville_truncation_values():
    assert liouville_truncation(1) == Fraction(1, 10)
    assert liouville_truncation(2) == Fraction(11, 100)
    assert liouville_truncation(3) == Fraction(110001, 10**6)


def test_liouville_truncation_error_band():
    # The tail after the n=2 term is 10^-6 + 10^-24 + ..., so the distance to
    # the two-term truncation exceeds 10^-6 by a sliver.
    t = liouville_target()
    e = refine(t, 128)
    err_lo = e.lower - liouville_truncation(2)
    err_hi = e.upper - liouville_truncation(2)
    assert Fraction(1, 10**6) < err_lo
    assert err_hi < Fraction(1, 10**6) + Fraction(1, 10**23)


def test_liouville_truncations_witness_tau_five():
    # oracle: exact tail bounds 10^-(n+1)! < L - T_n < 2 * 10^-(n+1)!
    hits = 0
    for n in (5, 6, 7):
        q = 10 ** math.factorial(n)
        err_upper = Fraction(2, 10 ** math.factorial(n + 1))
        if err_upper < Fraction(1, q**5):
            hits += 1
    assert hits == 3


def test_liouville_enclosure_consistent_with_truncations():
    # at 256 bits the enclosure sits between the 4-term partial sum and the
    # exact tail bound above it
    e = refine(liouville_target(), 256)
    t4 = liouville_truncation(4)
    assert t4 <= e.lower <= e.upper <= t4 + Fraction(2, 10 ** math.factorial(5))
    assert e.upper > t4  # the true value sits strictly above the partial sum


# --- parsing -----------------------------------------------------------------


def test_parse_target_fixture_keys():
    assert parse_target("golden").key == ("cf", "golden")
    assert parse_target("sqrt2").key == ("cf", "sqrt2")
    assert parse_target("e").key == ("cf", "e")
    assert parse_target("liouville").key == ("liouville",)
    assert parse_target("seed:42").key == ("seed", 42, 0)
    assert parse_target("dec:0.25").exact_value == Fraction(1, 4)


def test_parse_target_rejects_garbage():
    for bad in ("gold", "dec:abc", "seed:x", "dec:1.5", "dec:-0.1"):
        with pytest.raises(ValueError):
            parse_target(bad)


class _DyadicTarget(RealTarget):
    """A target class that defines no ``clone``: the base class's serves."""

    def __init__(self, value):
        super().__init__(("dyadic", value))
        self._value = value

    def _raw_enclosure(self, bits):
        k = math.floor(self._value * 2 ** bits)
        return Interval(Fraction(k, 2 ** bits), Fraction(k + 1, 2 ** bits))


@pytest.mark.parametrize(
    "make",
    [
        lambda: RationalTarget(Fraction(2, 7)),
        golden_target,
        lambda: BitsTarget(9, 1),
        LiouvilleTarget,
        lambda: _DyadicTarget(Fraction(1, 3)),
    ],
    ids=["rational", "cf", "bits", "liouville", "no_clone"],
)
def test_clone_is_independent_but_equal(make):
    # a clone of a refined target encloses as a fresh one does
    t = make()
    t.enclosure(1024)
    c, fresh = t.clone(), make()
    assert type(c) is type(t) and c.key == t.key
    for bits in (64, 192, 1024):
        assert c.enclosure(bits) == fresh.enclosure(bits)
    assert t._best_bits == 1024


# --- certified elementary functions -----------------------------------------


def test_ln_enclosure_of_two():
    # ln 2 = 0.693147180559945309417...
    e = ln_enclosure(Fraction(2), 128)
    assert Fraction("0.693147180559945309") < e.lower
    assert e.upper < Fraction("0.693147180559945310")
    assert e.width < Fraction(1, 10**30)


def test_ln_enclosure_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_enclosure(Fraction(0))


def test_exp_enclosure_inverts_ln():
    x = Fraction(37, 11)
    back = exp_enclosure(ln_enclosure(x, 128), 128)
    assert back.contains(x)
    assert back.width < Fraction(1, 10**25)


def test_pow_enclosure_cube_root_oracle():
    # oracle: v = 3^(2/3) satisfies v^3 = 9 exactly
    e = pow_enclosure(Fraction(3), Fraction(2, 3), 128)
    assert e.lower**3 < 9 < e.upper**3
    assert e.width < Fraction(1, 10**25)


def test_pow_enclosure_integer_exponent_exact():
    e = pow_enclosure(Fraction(7, 2), Fraction(3), 64)
    assert e.lower == e.upper == Fraction(343, 8)


def test_pow_enclosure_int_base_negative_exponent_is_exact_fraction():
    e = pow_enclosure(2, Fraction(-1))
    assert type(e.lower) is Fraction and type(e.upper) is Fraction
    assert e.lower == e.upper == Fraction(1, 2)


@pytest.mark.parametrize("bits", [64, 128, 160, 192])
def test_ln_enclosure_takes_ints(bits):
    assert ln_enclosure(7, bits) == ln_enclosure(Fraction(7), bits)


@pytest.mark.parametrize("bits", [64, 128, 160, 192])
def test_ln_enclosure_of_an_interval_takes_its_endpoints_bounds(bits):
    rng = random.Random(7100 + bits)
    for _ in range(200):
        a, b = sorted(_positive_argument(rng) for _ in range(2))
        want = Interval(ln_enclosure(a, bits).lower, ln_enclosure(b, bits).upper)
        assert ln_enclosure(Interval(Fraction(a), Fraction(b)), bits) == want, (a, b)
    with pytest.raises(ValueError):
        ln_enclosure(Interval(Fraction(0), Fraction(1)), bits)


# --- bit identity with mpmath's interval context ------------------------------
# The certified functions make libmp calls directly.  The reference below is
# the earlier implementation through ``mpmath.iv``; every endpoint must agree
# exactly.


def _iv_endpoint(t: tuple) -> Fraction:
    sign, man, exp, bc = t
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError("nonfinite interval endpoint")
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def _iv_interval(x) -> Interval:
    a, b = x._mpi_
    return Interval(_iv_endpoint(a), _iv_endpoint(b))


def _iv_quotient(value):
    value = Fraction(value)
    return iv.mpf(value.numerator) / iv.mpf(value.denominator)


def _iv_ln(value, bits):
    old = iv.prec
    try:
        iv.prec = bits
        return _iv_interval(iv.log(_iv_quotient(value)))
    finally:
        iv.prec = old


def _iv_exp(x, bits):
    old = iv.prec
    try:
        iv.prec = bits
        lo = _iv_interval(iv.exp(_iv_quotient(x.lower)))
        hi = _iv_interval(iv.exp(_iv_quotient(x.upper)))
        return Interval(lo.lower, hi.upper)
    finally:
        iv.prec = old


def _iv_pow(base, exponent, bits):
    base = Fraction(base)
    if exponent == 0:
        return Interval(Fraction(1), Fraction(1))
    if exponent.denominator == 1 and abs(exponent.numerator) <= 64:
        exact = base ** exponent.numerator
        return Interval(exact, exact)
    ln = _iv_ln(base, bits)
    scaled = Interval(
        min(ln.lower * exponent, ln.upper * exponent),
        max(ln.lower * exponent, ln.upper * exponent),
    )
    return _iv_exp(scaled, bits)


def _positive_argument(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return rng.randint(1, 10**6)
    if kind == 1:  # an int wider than every precision used
        return rng.getrandbits(rng.choice([70, 140, 300])) + 1
    if kind == 2:  # below or above 1
        return Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
    if kind == 3:  # numerator wider than bits
        return Fraction(rng.getrandbits(rng.choice([65, 200, 400])) + 1, rng.getrandbits(100) + 1)
    return Fraction(1, rng.getrandbits(rng.choice([20, 150, 600])) + 1)


def _exp_argument(rng: random.Random) -> Interval:
    if rng.random() < 0.05:
        lower = Fraction(0)
    elif rng.random() < 0.7:
        lower = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**5))
    else:
        lower = Fraction(rng.getrandbits(200) - (1 << 199), rng.getrandbits(190) + 1)
    width = Fraction(rng.randint(0, 1000), rng.randint(1, 10**9)) if rng.random() < 0.5 else 0
    return Interval(lower, lower + width)


@pytest.mark.parametrize("bits", [64, 128, 160, 192])
def test_elementary_functions_match_interval_context_bit_for_bit(bits):
    rng = random.Random(7000 + bits)
    iv_prec, mp_prec = iv.prec, mp.prec
    for _ in range(300):
        value = _positive_argument(rng)
        assert ln_enclosure(value, bits) == _iv_ln(value, bits), (value, bits)
        x = _exp_argument(rng)
        assert exp_enclosure(x, bits) == _iv_exp(x, bits), (x, bits)
        exponent = Fraction(rng.randint(-300, 300), rng.choice([1, 2, 3, 7, 10**6 + 3]))
        got = pow_enclosure(value, exponent, bits)
        assert got == _iv_pow(value, exponent, bits), (value, exponent, bits)
        assert type(got.lower) is Fraction and type(got.upper) is Fraction
    assert (iv.prec, mp.prec) == (iv_prec, mp_prec)
    with pytest.raises(ValueError):
        ln_enclosure(0, bits)
    assert (iv.prec, mp.prec) == (iv_prec, mp_prec)
