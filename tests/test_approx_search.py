import functools
import itertools
import math
import time
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heightlab import approx_search
from heightlab.approx_search import (
    DEFAULT_ENUM_CAP,
    ApproxRecord,
    Budget,
    ErrVal,
    _Atom,
    _BestTable,
    _cmp_atoms,
    _coord_float_bounds,
    _coord_options,
    _den_cap,
    _filter_bounds,
    _finish,
    _frontier,
    _grid_for,
    _last_record,
    _lcm_bounds,
    _lcm_scan,
    _lex_min,
    _record_height,
    _record_walk,
    _search,
    _simplest,
    _simplest_point,
    _tuple_best,
    brute_force_best,
    fast_best,
    record_csv_rows,
    records,
    solutions_count,
)
from heightlab.cf_engine import expand, gap_inequality_check
from heightlab.errors import CapExceededError, PrecisionExhaustedError, UnboundedSearchError
from heightlab.exponents import constant_estimate, omega_estimate
from heightlab.heights import HeightKind, HeightValue, height
from heightlab.numerics import (
    BitsTarget,
    Interval,
    RealTarget,
    RationalTarget,
    e_target,
    golden_target,
    liouville_target,
    sample_uniform,
    sqrt2_target,
)
from test_acceptance import route_cases

X27 = (RationalTarget(Fraction(2, 7)), RationalTarget(Fraction(3, 7)))


def _err(targets, point):
    """The certified error of a point, over one atom per coordinate."""
    return ErrVal([_Atom(t, f.numerator, f.denominator) for t, f in zip(targets, point)])


def _float_upper(atom):
    """A float at or above the atom's certified upper error bound at 192 bits:
    int / int is correctly rounded, so one step up covers it."""
    _, _, un, ud = atom.interval(192)
    return math.nextafter(un / ud, math.inf)


def _table_best_at(tb, cap):
    """``_BestTable.best_at`` as it was: the table's best entry (q, p) at the
    cap, by extending the table, then bisecting its denominators."""
    tb.extend_to(cap)
    return tb.entries[bisect_right([q for q, _ in tb.entries], cap) - 1]


def test_exact_pair_max_budget_three():
    rec = brute_force_best(X27, Budget(HeightKind.MAX, HeightValue(3)))
    assert rec.point == (Fraction(1, 3), Fraction(1, 2))
    assert rec.error.lower == rec.error.upper == Fraction(1, 14)
    assert rec.height == HeightValue(3)


def test_exact_pair_prod_budget_six():
    rec = brute_force_best(X27, Budget(HeightKind.PROD, HeightValue(6)))
    assert rec.point == (Fraction(1, 3), Fraction(1, 2))
    assert rec.height == HeightValue(6)


def test_fast_agrees_on_exact_pair():
    for kind, bound in [
        (HeightKind.MAX, 3),
        (HeightKind.PROD, 6),
        (HeightKind.LCM, 6),
        (HeightKind.PROD_ROOT, 2),
    ]:
        b = Budget(kind, HeightValue(bound))
        assert fast_best(X27, b) == brute_force_best(X27, b)


def test_golden_denominator_cap_eight():
    rec = fast_best((golden_target(),), Budget(HeightKind.MAX, HeightValue(8)))
    assert rec.point == (Fraction(5, 8),)
    assert rec.height == HeightValue(8)
    assert rec.error.lower > 0


def test_pair_max_cap_twelve():
    x = (sqrt2_target(), golden_target())
    rec = fast_best(x, Budget(HeightKind.MAX, HeightValue(12)))
    assert rec.point == (Fraction(5, 12), Fraction(5, 8))
    assert rec.height == HeightValue(12)


def test_rational_tie_prefers_smaller_numerator():
    # |1/4 - 0/1| = |1/4 - 1/2| = 1/4; the numerator 0 wins
    x = (RationalTarget(Fraction(1, 4)),)
    b = Budget(HeightKind.MAX, HeightValue(2))
    assert brute_force_best(x, b).point == (Fraction(0, 1),)
    assert fast_best(x, b).point == (Fraction(0, 1),)


def test_exact_hit_has_zero_error():
    x = (RationalTarget(Fraction(1, 2)),)
    rec = fast_best(x, Budget(HeightKind.MAX, HeightValue(2)))
    assert rec.point == (Fraction(1, 2),)
    assert rec.error.lower == rec.error.upper == 0


def test_min_kind_is_rejected():
    b = Budget(HeightKind.MIN, HeightValue(5))
    with pytest.raises(UnboundedSearchError):
        brute_force_best(X27, b)
    with pytest.raises(UnboundedSearchError):
        fast_best(X27, b)
    with pytest.raises(UnboundedSearchError):
        records((golden_target(),), HeightKind.MIN, HeightValue(10))


def test_rooted_bound_equals_integer_cap():
    # q <= 45^(1/2) admits exactly q <= 6
    x = (golden_target(),)
    a = fast_best(x, Budget(HeightKind.MAX, HeightValue(45, 2)))
    b = fast_best(x, Budget(HeightKind.MAX, HeightValue(6)))
    assert a.point == b.point and a.error == b.error


@pytest.mark.parametrize(
    "kind, d, base, root, want",
    [
        (HeightKind.MAX, 2, 30, 1, 30),
        (HeightKind.MAX, 3, 10, 2, 3),
        (HeightKind.LCM, 2, 30, 1, 30),
        (HeightKind.MIN, 2, 1000, 3, 10),
        (HeightKind.PROD, 3, 60, 1, 60),
        (HeightKind.PROD, 2, 10, 2, 3),
        (HeightKind.PROD_ROOT, 2, 7, 1, 49),
        (HeightKind.PROD_ROOT, 3, 7, 1, 343),
        (HeightKind.PROD_ROOT, 3, 10, 2, 31),
        (HeightKind.PROD_ROOT, 2, 10, 4, 3),
        (HeightKind.PROD_ROOT, 1, 5, 3, 1),
        (HeightKind.PROD_ROOT, 3, 45, 2, 301),
        (HeightKind.PROD_ROOT, 3, 10 ** 6 + 3, 7, 372),
        (HeightKind.PROD_ROOT, 3, 2, 6, 1),
        (HeightKind.MAX, 2, 2 ** 64 + 1, 64, 2),
    ],
)
def test_den_cap_exact_values(kind, d, base, root, want):
    # floor(base**(d/root)) under prod_root, floor(base**(1/root)) otherwise
    assert _den_cap(kind, HeightValue(base, root), d) == want


def test_enumeration_cap_guard():
    x = sample_uniform(5, 3)
    with pytest.raises(CapExceededError):
        brute_force_best(x, Budget(HeightKind.MAX, HeightValue(300)), enum_cap=10 ** 6)


def _admits(kind, dens, cap):
    if kind in (HeightKind.PROD, HeightKind.PROD_ROOT):
        return math.prod(dens) <= cap
    if kind is HeightKind.LCM:
        return math.lcm(*dens) <= cap
    return max(dens) <= cap


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "kind", [HeightKind.MAX, HeightKind.PROD, HeightKind.PROD_ROOT, HeightKind.LCM]
)
def test_grid_is_the_admissible_denominator_tuples_in_order(kind, d):
    # the oracle compares rows in grid order, so the order is part of the
    # contract, not only the set of rows
    product_kind = kind in (HeightKind.PROD, HeightKind.PROD_ROOT)
    for cap in (1, 2, 3, 7, 12, 30):
        tuples = list(itertools.product(range(1, cap + 1), repeat=d))
        want = [t for t in tuples if _admits(kind, t, cap)]
        # the guard counts the widest column before lcm's mask: every tuple
        # of entries <= cap, or under prod every tuple of product <= cap
        widest = len(want) if product_kind else cap ** d
        grid = _grid_for(kind, d, cap, widest)
        assert grid.dtype == np.int64 and grid.shape == (len(want), d)
        assert list(map(tuple, grid.tolist())) == want
        with pytest.raises(CapExceededError):
            _grid_for(kind, d, cap, widest - 1)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    d=st.integers(1, 3),
    kind=st.sampled_from(
        [HeightKind.MAX, HeightKind.PROD, HeightKind.PROD_ROOT, HeightKind.LCM]
    ),
    bound=st.integers(1, 25),
)
def test_fast_matches_brute_force(seed, d, kind, bound):
    if d == 3:
        bound = min(bound, 12)
    if kind is HeightKind.PROD_ROOT:
        bound = max(2, min(bound, 40 if d == 1 else (15 if d == 2 else 8)))
    x = sample_uniform(seed, d)
    b = Budget(kind, HeightValue(bound))
    rb = brute_force_best(x, b)
    rf = fast_best(x, b)
    assert rb.point == rf.point
    assert rb.error == rf.error
    assert rb.height == rf.height


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6), bound=st.integers(2, 60))
def test_error_shrinks_with_budget(seed, bound):
    x = sample_uniform(seed, 2)
    small = fast_best(x, Budget(HeightKind.MAX, HeightValue(bound // 2)))
    large = fast_best(x, Budget(HeightKind.MAX, HeightValue(bound)))
    assert large.error.upper <= small.error.upper or large.error.lower <= small.error.lower


def test_golden_records_are_fibonacci_convergents():
    chain = records((golden_target(),), HeightKind.MAX, HeightValue(50))
    assert [r.height.base for r in chain] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert [r.point[0] for r in chain] == [
        Fraction(1, 1),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 5),
        Fraction(5, 8),
        Fraction(8, 13),
        Fraction(13, 21),
        Fraction(21, 34),
    ]


def test_pair_record_heights_sit_on_merged_convergent_denominators():
    chain = records((sqrt2_target(), golden_target()), HeightKind.MAX, HeightValue(30))
    heights = [r.height.base for r in chain]
    assert heights == [1, 2, 3, 5, 8, 12, 13, 21, 29]
    # merged convergent denominators of the two coordinates
    assert set(heights) <= {1, 2, 3, 5, 8, 12, 13, 21, 29}
    assert chain[-1].point == (Fraction(12, 29), Fraction(13, 21))


def test_record_chain_invariants():
    for seed in (11, 12):
        for kind in (HeightKind.MAX, HeightKind.PROD, HeightKind.LCM):
            chain = records(sample_uniform(seed, 2), kind, HeightValue(200))
            assert chain
            for a, b in zip(chain, chain[1:]):
                assert a.height < b.height
                assert b.error.upper < a.error.upper
            for rec in chain:
                assert rec.error.lower > 0
                assert height(rec.point, kind) == rec.height


def test_prod_and_rooted_prod_share_one_chain():
    x = sample_uniform(77, 2)
    plain = records(x, HeightKind.PROD, HeightValue(10 ** 6))
    rooted = records(x, HeightKind.PROD_ROOT, HeightValue(10 ** 3))
    assert len(plain) == len(rooted)
    for a, b in zip(plain, rooted):
        assert a.point == b.point
        assert a.error == b.error
        assert b.height == HeightValue(a.height.base, 2)


PROD_KINDS = [HeightKind.PROD, HeightKind.PROD_ROOT]
SEARCH_KINDS = [HeightKind.MAX] + PROD_KINDS + [HeightKind.LCM]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", PROD_KINDS)
def test_prod_records_are_brute_force_optima(d, kind):
    # each record is the exhaustive optimum at its own height, and the
    # exhaustive optimum one admissible height lower is strictly worse
    bound = {
        (HeightKind.PROD, 2): HeightValue(150),
        (HeightKind.PROD, 3): HeightValue(40),
        (HeightKind.PROD_ROOT, 2): HeightValue(12),
        (HeightKind.PROD_ROOT, 3): HeightValue(3),
    }[kind, d]
    root = d if kind is HeightKind.PROD_ROOT else 1
    for seed in range(200, 210):
        x = sample_uniform(seed, d)
        chain = records(x, kind, bound)
        assert chain[0].height == HeightValue(1)
        for rec in chain:
            best = brute_force_best(x, Budget(kind, rec.height))
            assert (best.point, best.error) == (rec.point, rec.error)
            prod = math.prod(f.denominator for f in rec.point)
            assert rec.height == HeightValue(prod, root)
            if prod == 1:
                continue
            below = brute_force_best(x, Budget(kind, HeightValue(prod - 1, root)))
            assert _err(x, below.point).compare(_err(x, rec.point)) > 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", [HeightKind.MAX, HeightKind.LCM])
def test_max_and_lcm_records_are_brute_force_optima(d, kind):
    # the record error is the exhaustive optimum at its height (the points
    # may differ on ties: a record's point is a witness of its certified error
    # at its height), and one height lower the optimum is strictly worse
    cap = {2: 60, 3: 24}[d]
    for seed in range(400, 405):
        x = sample_uniform(seed, d)
        for rec in records(x, kind, HeightValue(cap)):
            assert height(rec.point, kind) == rec.height
            assert _err(x, rec.point).certified_interval() == rec.error
            assert brute_force_best(x, Budget(kind, rec.height)).error == rec.error
            if rec.height == HeightValue(1):
                continue
            below = brute_force_best(x, Budget(kind, HeightValue(rec.height.base - 1)))
            assert _err(x, below.point).compare(_err(x, rec.point)) > 0


def _enumerated_prod_records(targets, kind, prod_cap):
    """The record sweep over every table-denominator tuple, sorted by product."""
    den_lists = [_BestTable(t).dens_up_to(prod_cap) for t in targets]
    tuples = []

    def rec(j, prefix, left):
        if j == len(den_lists):
            tuples.append(prefix)
            return
        for q in den_lists[j]:
            if q > left:
                break
            rec(j + 1, prefix + (q,), left // q)

    rec(0, (), prod_cap)
    tuples.sort(key=lambda t: (math.prod(t), t))
    arr = np.array(tuples, dtype=np.int64)
    xl, xh = _coord_float_bounds(targets)
    lo = np.full(len(tuples), -np.inf)
    for j in range(len(targets)):
        lo = np.maximum(lo, _filter_bounds(arr[:, j], xl[j], xh[j])[0])
    root = len(targets) if kind is HeightKind.PROD_ROOT else 1
    chain, cur, cur_hi, i = [], None, math.inf, 0
    while i < len(tuples):
        hv = math.prod(tuples[i])
        group_best = None
        while i < len(tuples) and math.prod(tuples[i]) == hv:
            if lo[i] < cur_hi:
                got = _tuple_best(targets, tuples[i])
                if got is not None and (group_best is None or got.compare(group_best) < 0):
                    group_best = got
            i += 1
        if group_best is not None and (cur is None or group_best.compare(cur) < 0):
            cur = group_best
            chain.append(ApproxRecord(cur.point, cur.certified_interval(), HeightValue(hv, root)))
            cur_hi = float(cur.certified_interval().upper)
    return chain


@pytest.mark.parametrize("d", [2, 3])
def test_frontier_chain_matches_tuple_enumeration(d):
    for seed in range(300, 320):
        x = sample_uniform(seed, d)
        want = _enumerated_prod_records(x, HeightKind.PROD, 10 ** 4)
        assert records(x, HeightKind.PROD, HeightValue(10 ** 4)) == want


# the optimum (1/3, 2/7) recurs at every multiple of 21
RECURRING_LCM_OPTIMUM = (Fraction(1, 3), Fraction(2, 7) + Fraction(1, 10 ** 9))


@pytest.mark.parametrize(
    "coords",
    [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2, 7), Fraction(3, 7)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(2, 5)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(3, 10), Fraction(1, 6)),
        (Fraction(1, 2), Fraction(0), Fraction(5, 14)),
        (Fraction(3, 4), Fraction(3, 7)),
        (Fraction(5, 6), Fraction(1, 4)),
        (Fraction(9, 10), Fraction(5, 8), Fraction(3, 4)),
        RECURRING_LCM_OPTIMUM,
    ],
)
@pytest.mark.parametrize("kind", PROD_KINDS + [HeightKind.LCM])
def test_fast_prod_matches_brute_force_on_tied_rationals(coords, kind):
    # tied coordinates advance together, and an exact hit ends the walk; under
    # lcm, even denominators put D*x_i on half-integers where both neighbours tie
    x = tuple(RationalTarget(f) for f in coords)
    top = {
        HeightKind.PROD: 40,
        HeightKind.PROD_ROOT: 16,
        HeightKind.LCM: 41 if len(coords) == 2 else 21,
    }[kind]
    for bound in range(1, top):
        b = Budget(kind, HeightValue(bound))
        assert fast_best(x, b) == brute_force_best(x, b)


def _divisor_walk_records(targets, cap):
    """The lcm record sweep that searched every divisor of each D <= cap."""
    divisors = [[] for _ in range(cap + 1)]
    for q in range(1, cap + 1):
        for mult in range(q, cap + 1, q):
            divisors[mult].append(q)
    xl, xh = _coord_float_bounds(targets)
    qs = np.arange(1, cap + 1, dtype=np.int64)
    per_coord = [_filter_bounds(qs, lo, hi) for lo, hi in zip(xl, xh)]
    chain, cur, cur_hi = [], None, math.inf
    for dd in range(1, cap + 1):
        divs = np.array(divisors[dd]) - 1
        if max(float(lo[divs].min()) for lo, _ in per_coord) >= cur_hi:
            continue
        point = []
        for t, (lo, hi) in zip(targets, per_coord):
            best = None
            for oi in np.nonzero(lo[divs] <= hi[divs].min())[0]:
                for atom in _coord_options(t, divisors[dd][oi]):
                    if best is None or _cmp_atoms(atom, best) < 0:
                        best = atom
            point.append(best.frac)
        ev = _err(targets, point)
        if math.lcm(*(f.denominator for f in ev.point)) != dd:
            continue
        if cur is None or ev.compare(cur) < 0:
            cur = ev
            cur_hi = _float_upper(ev.champion())
            chain.append(ApproxRecord(ev.point, ev.certified_interval(), HeightValue(dd)))
    return chain


@pytest.mark.parametrize("cap", [50, 3000])
@pytest.mark.parametrize("d", [2, 3])
def test_lcm_chain_matches_divisor_walk(d, cap):
    for seed in range(40):
        x = sample_uniform(seed, d)
        assert records(x, HeightKind.LCM, HeightValue(cap)) == _divisor_walk_records(x, cap)


def test_lcm_fast_best_certifies_each_scanned_denominator_once(monkeypatch):
    # records, optimum and tie set come from one pass: one nearest-multiple
    # call per coordinate and kept D, none in a second sweep
    x = tuple(RationalTarget(f) for f in RECURRING_LCM_OPTIMUM)
    calls = []
    nearest = approx_search._nearest_multiples

    def counted(target, q):
        calls.append(q)
        return nearest(target, q)

    monkeypatch.setattr(approx_search, "_nearest_multiples", counted)
    rec = fast_best(x, Budget(HeightKind.LCM, HeightValue(3000)))
    assert rec.point == (Fraction(1, 3), Fraction(2, 7))
    kept = _lcm_scan(x, 3000, DEFAULT_ENUM_CAP)
    assert len(kept) > 100
    assert sorted(calls) == sorted(kept * len(x))


def test_lcm_scan_reaches_a_million_and_counts_against_the_cap():
    x = sample_uniform(3, 2)
    chain = records(x, HeightKind.LCM, HeightValue(10 ** 6))
    assert chain[-1].height <= HeightValue(10 ** 6)
    with pytest.raises(CapExceededError):
        records(x, HeightKind.LCM, HeightValue(10 ** 6), enum_cap=10 ** 6 - 1)


TINY = Fraction(1, 2 ** 70)


def test_precision_exhaustion_messages_at_small_budgets():
    # the two fractions are the ends of the 64-bit enclosure, so their
    # midpoint stays inside it at the whole budget
    t = BitsTarget(1, 0, budget=64)
    e = t.enclosure(64)
    a, b = (_Atom(t, f.numerator, f.denominator) for f in (e.lower, e.upper))
    want = f"cannot separate errors of {e.lower} and {e.upper} against ('seed', 1, 0)"
    with pytest.raises(PrecisionExhaustedError) as err:
        _cmp_atoms(a, b)
    assert str(err.value) == want
    # a budget below the start precision fails in the enclosure request
    with pytest.raises(PrecisionExhaustedError) as err:
        _coord_options(BitsTarget(1, 0, budget=32), 7)
    assert str(err.value) == "target ('seed', 1, 0): 64 bits requested, budget is 32"


def test_certified_interval_at_the_budget_end():
    t = BitsTarget(7, 0, budget=200)
    x = t.clone().enclosure(200)
    # a point 2^-170-close to x: 200 bits leave the relative width near
    # 2^-30, so the budget runs out and the last interval is returned, away
    # from 0 as the exponents module's soundness argument needs
    p = Fraction(math.floor(x.lower * 2 ** 170), 2 ** 170)
    iv = _err((t,), (p,)).certified_interval()
    assert iv == x.distance(p)
    assert iv.lower > 0 and iv.width > iv.lower / 2 ** 40
    # the centre of the last enclosure: its interval touches 0 at the budget
    c = (x.lower + x.upper) / 2
    with pytest.raises(PrecisionExhaustedError, match="still touches 0 at 200 bits"):
        _err((t,), (c,)).certified_interval()


@pytest.mark.parametrize(
    "coords",
    [
        # binade edges; 0.51 ulp below 2^-k, x rounds down to a float while
        # fl(p/D) just above 2^-k rounds up by up to an ulp of x: without the
        # absolute slack the bounds miss the error at D = 1951 for these k
        *[(Fraction(1, 2 ** k) - TINY, Fraction(1, 2 ** k) + TINY) for k in (1, 2, 5, 11, 30)],
        *[(Fraction(1, 2 ** k) - Fraction(51, 100 * 2 ** (k + 53)),) for k in (2, 3, 4, 5)],
        # D*x_i near an integer
        (Fraction(1, 3) + TINY, Fraction(2, 7) - TINY),
        (Fraction(1999, 2000) - TINY, Fraction(613, 1999) + TINY, Fraction(1, 1997) - TINY),
        # D*x_i an exact half-integer
        (Fraction(3, 10), Fraction(1, 6)),
        (Fraction(1, 2), Fraction(5, 14), Fraction(1997, 3998)),
        # 0
        (Fraction(0),),
        (Fraction(0), Fraction(1, 2 ** 40)),
    ],
)
def test_lcm_scan_bounds_bracket_exact_errors(coords):
    targets = tuple(RationalTarget(f) for f in coords)
    ds = np.arange(1, 2001, dtype=np.int64)
    lo, hi = _lcm_bounds(targets, ds)
    for D, l, h in zip(ds.tolist(), lo, hi):
        exact = max(abs(x - Fraction(round(D * x), D)) for x in coords)
        assert Fraction(l) <= exact <= Fraction(h), (D, exact, l, h)
    # the oracle's prefilter brackets the best coprime candidate's error too
    for x, x_lo, x_hi in zip(coords, *_coord_float_bounds(targets)):
        lo, hi = _filter_bounds(ds, x_lo, x_hi)
        for q, l, h in zip(ds.tolist(), lo, hi):
            f = math.floor(q * Fraction(x_lo))
            errs = [abs(x - Fraction(p, q)) for p in range(f, f + 3) if math.gcd(p, q) == 1]
            if not errs:
                assert l == h == math.inf, q
                continue
            assert Fraction(l) <= min(errs) <= Fraction(h), (q, min(errs), l, h)


# coordinates that stress the float prefilters: x near 2^-k (binade edges),
# q*x or D*x near an integer, half-integer D*x (mirror ties), and hashed draws
# whose enclosures are 2^-32 to 2^-192 wide
_prefilter_coords = st.one_of(
    st.builds(
        lambda k, j: RationalTarget(Fraction(1, 2 ** k) + Fraction(j, 100 * 2 ** (k + 53))),
        st.one_of(st.integers(1, 12), st.integers(13, 60)), st.integers(-200, 200),
    ),
    st.builds(
        lambda q, p, j, m: Fraction(p % q, q) + Fraction(j, 2 ** m),
        st.integers(1, 600), st.integers(0, 600), st.integers(-8, 8), st.integers(40, 120),
    ).filter(lambda x: 0 <= x < 1).map(RationalTarget),
    st.builds(
        lambda D, m: RationalTarget(Fraction(2 * (m % D) + 1, 2 * D)),
        st.integers(1, 600), st.integers(0, 600),
    ),
    st.builds(
        BitsTarget, st.integers(0, 10 ** 6), st.just(0),
        budget=st.one_of(st.integers(32, 64), st.integers(32, 4096)),
    ),
)


def _enclosure_ends(t):
    """The exact ends of the enclosure that ``_coord_float_bounds`` rounds."""
    e = t.enclosure(min(approx_search._CERT_BITS, t.budget))
    return e.lower, e.upper


def _nearest_error(x, D):
    r = D * x
    return abs(r - round(r)) / D


@given(
    targets=st.lists(_prefilter_coords, min_size=1, max_size=3).map(tuple),
    start=st.integers(601, 10 ** 6),
)
# 0.51 ulp below 1/4: without its absolute slack _filter_bounds' lower bound
# overshoots at q = 1951 and 2031
@example(targets=(RationalTarget(Fraction(1, 4) - Fraction(51, 100 * 2 ** 55)),), start=1900)
@settings(max_examples=60, deadline=None)
def test_float_prefilters_bracket_fraction_errors(targets, start):
    # over both ends of each enclosure: lo <= the least exact error and the
    # greatest exact error < hi, at D = 1..600 and 200 D from start
    ds = np.concatenate([np.arange(1, 601), np.arange(start, start + 200)])
    ends = [_enclosure_ends(t) for t in targets]
    lo, hi = _lcm_bounds(targets, ds)
    for D, l, h in zip(ds.tolist(), lo, hi):
        errs = [[_nearest_error(x, D) for x in pair] for pair in ends]
        least, greatest = max(min(e) for e in errs), max(max(e) for e in errs)
        assert Fraction(l) <= least and greatest < Fraction(h), (D, least, greatest, l, h)
    # the oracle's prefilter: the best coprime candidate among f..f+2
    for pair, x_lo, x_hi in zip(ends, *_coord_float_bounds(targets)):
        lo, hi = _filter_bounds(ds, x_lo, x_hi)
        for q, l, h in zip(ds.tolist(), lo, hi):
            f = math.floor(q * x_lo)
            ps = [p for p in range(f, f + 3) if math.gcd(p, q) == 1]
            if not ps:
                assert l == h == math.inf, q
                continue
            best = [min(abs(x - Fraction(p, q)) for p in ps) for x in pair]
            assert Fraction(l) <= min(best) and max(best) < Fraction(h), (q, best, l, h)


def test_lcm_scan_does_not_depend_on_its_chunk(monkeypatch):
    cases = [sample_uniform(seed, d) for seed in range(5) for d in (2, 3)]
    cases.append(tuple(RationalTarget(f) for f in RECURRING_LCM_OPTIMUM))
    want = [_lcm_scan(x, 3000, DEFAULT_ENUM_CAP) for x in cases]
    for chunk in (1, 7, 1000, 500_000):
        monkeypatch.setattr(approx_search, "_CHUNK", chunk)
        assert [_lcm_scan(x, 3000, DEFAULT_ENUM_CAP) for x in cases] == want, chunk


def _filtered_ties(targets, den_tuples, opt):
    """The tie sweep that also asked a tuple's point for a coordinate whose
    candidate compares equal to the optimum."""
    champ = opt.champion()
    points = set()
    for dens in den_tuples:
        kept = []
        for t, q in zip(targets, dens):
            cmps = [(atom.frac, _cmp_atoms(atom, champ)) for atom in _coord_options(t, q)]
            opts = [(f, c == 0) for f, c in cmps if c <= 0]
            if not opts:
                break
            kept.append(opts)
        else:
            points.update(
                tuple(f for f, _ in combo)
                for combo in itertools.product(*kept)
                if any(eq for _, eq in combo)
            )
    return points


# rational coordinates with mirror ties: a coordinate's two candidates, or
# two coordinates, lie at the same distance
MIRROR_TIES = [
    (Fraction(1, 2), Fraction(1, 4)),
    (Fraction(3, 4), Fraction(3, 7)),
    RECURRING_LCM_OPTIMUM,
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1, 3), Fraction(1, 3), Fraction(2, 5)),
    (Fraction(9, 10), Fraction(5, 8), Fraction(3, 4)),
]
TIE_RULE_BOUNDS = {
    HeightKind.MAX: (7, 30),
    HeightKind.PROD: (7, 60),
    HeightKind.PROD_ROOT: (3, 7),
    HeightKind.LCM: (7, 30),
}


def _tie_rule_cases():
    for seed in range(40):
        for d in (2, 3):
            for kind, bounds in TIE_RULE_BOUNDS.items():
                for bound in bounds:
                    if kind is HeightKind.PROD and d == 3 and bound == 60:
                        bound = 40
                    yield sample_uniform(seed, d), kind, bound
    for coords in MIRROR_TIES:
        for kind in SEARCH_KINDS:
            for bound in range(1, 16 if len(coords) == 2 else 9):
                yield tuple(RationalTarget(f) for f in coords), kind, bound


def test_ties_are_every_candidate_within_the_optimum(monkeypatch):
    # on both callers, the oracle's grid survivors and the product tie sweep,
    # keeping every candidate within E* gives the set that the filtered sweep
    # gave: a point of such candidates cannot beat the optimum
    collect = approx_search._collect_ties
    calls = {"brute": 0, "fast": 0}
    ties = {"brute": 0, "fast": 0}
    route = None

    def checked(targets, den_tuples, opt):
        got = collect(targets, den_tuples, opt)
        assert got == _filtered_ties(targets, den_tuples, opt)
        calls[route] += 1
        ties[route] += len(got)
        return got

    monkeypatch.setattr(approx_search, "_collect_ties", checked)
    for x, kind, bound in _tie_rule_cases():
        b = Budget(kind, HeightValue(bound))
        route = "brute"
        brute_force_best(x, b)
        if kind in PROD_KINDS:
            route = "fast"
            fast_best(x, b)
    assert calls == {"brute": 944, "fast": 472}
    assert ties == {"brute": 4064, "fast": 3160}


def test_tie_sets_match_the_uncached_sweep(monkeypatch):
    # three d = 3 prod_root queries of the benchmark, whose sweeps revisit a
    # (coordinate, q) in thousands of tuples, then check 2's instances on
    # both routes: the cached sweep gives the uncached per-tuple sweep's set,
    # and the sizes are the ones the sweep gave before it cached
    collect = approx_search._collect_ties
    sizes = {"brute": [], "fast": []}
    route = "fast"

    def checked(targets, den_tuples, opt):
        got = collect(targets, den_tuples, opt)
        assert got == _filtered_ties(targets, den_tuples, opt)
        sizes[route].append(len(got))
        return got

    monkeypatch.setattr(approx_search, "_collect_ties", checked)
    for seed, bound in [(166159, 18), (770519, 14), (345648, 12)]:
        fast_best(sample_uniform(seed, 3), Budget(HeightKind.PROD_ROOT, HeightValue(bound)))
    assert sizes["fast"] == [4989, 1413, 933]
    sizes["fast"].clear()
    for d, kind, seed, bound in route_cases():
        x, b = sample_uniform(seed, d), Budget(kind, HeightValue(bound))
        route = "brute"
        brute_force_best(x, b)
        route = "fast"
        fast_best(x, b)
    assert [(len(v), sum(v)) for v in sizes.values()] == [(1200, 13275), (400, 11660)]


def test_fast_prod_tie_sweep_stays_within_the_frontier_tuple():
    # the tie sweep scans 200^3 denominators per coordinate without the
    # bound from the optimum's own denominators
    x = sample_uniform(0, 3)
    rec = fast_best(x, Budget(HeightKind.PROD_ROOT, HeightValue(200)), enum_cap=10 ** 5)
    assert rec.point == (Fraction(341, 375), Fraction(9, 77), Fraction(17, 226))


def _simplest_rule(x, kind, cap):
    """The product answer as ``_simplest_point`` of the frontier walk's optimum."""
    targets, den_cap = _search(x, kind, HeightValue(cap))
    opt = _last_record(targets, _frontier(targets, kind, den_cap, DEFAULT_ENUM_CAP))
    return _finish(targets, kind, _simplest_point(targets, opt))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", PROD_KINDS)
def test_simplest_point_of_the_product_optimum_is_fast_best(kind, d):
    # the argument in _simplest_point's docstring, for targets in (0, 1)
    for seed in range(20):
        x = sample_uniform(seed, d)
        for cap in (7, 60, 1000):
            b = Budget(kind, HeightValue(cap))
            assert _simplest_rule(x, kind, cap) == fast_best(x, b), (seed, cap)


def test_simplest_point_answers_where_the_tie_scan_exceeds_its_cap():
    # fast_best's tie scan raises CapExceededError here
    rec = _simplest_rule(sample_uniform(21, 3), HeightKind.PROD_ROOT, 3000)
    assert rec.point == (Fraction(1504, 2169), Fraction(1141, 1773), Fraction(30, 43))
    assert rec.height == HeightValue(165362391, 3)


def test_simplest_point_misses_the_negative_tie_of_a_zero_coordinate():
    # at x_i = 0 the candidates at q are -1 and 0, and at d = 3 under prod
    # -1/6 lies within the optimum's error 1/6 with budget to spare
    x = tuple(RationalTarget(f) for f in (Fraction(0), Fraction(1, 6), Fraction(1, 6)))
    assert fast_best(x, Budget(HeightKind.PROD, HeightValue(13))).point == (
        Fraction(-1, 6), Fraction(0), Fraction(0))
    assert _simplest_rule(x, HeightKind.PROD, 13).point == (Fraction(0),) * 3


@pytest.mark.parametrize(
    "coords",
    [(0,), (0, Fraction(1, 3)), (0, 0), (0, Fraction(2, 7), Fraction(1, 2)), (Fraction(1, 2), 0)],
)
@pytest.mark.parametrize(
    "kind", [HeightKind.MAX, HeightKind.PROD, HeightKind.PROD_ROOT, HeightKind.LCM]
)
def test_fast_matches_brute_force_on_zero_targets(coords, kind):
    x = tuple(RationalTarget(Fraction(f)) for f in coords)
    for bound in range(1, 13):
        b = Budget(kind, HeightValue(bound))
        assert fast_best(x, b) == brute_force_best(x, b)


def test_every_walk_step_is_a_record():
    # tied coordinates advance together, so no step fails to improve and a
    # step budget of the chain length suffices, even for a repeated target
    g = golden_target()
    for kind in (HeightKind.PROD, HeightKind.MAX):
        for x in [(g, g), sample_uniform(9, 3)]:
            chain = records(x, kind, HeightValue(10 ** 6))
            assert records(x, kind, HeightValue(10 ** 6), enum_cap=len(chain)) == chain
            with pytest.raises(CapExceededError):
                records(x, kind, HeightValue(10 ** 6), enum_cap=len(chain) - 1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize(
    "kind", [HeightKind.MAX, HeightKind.PROD, HeightKind.PROD_ROOT, HeightKind.LCM]
)
def test_record_heights_strictly_increase(kind, d):
    # exponents finds height 2 and the warm-up on a chain by bisection, which
    # needs this order on records and on the uncertified walk alike; a walk
    # record's height, read off its denominators, is its point's, and each
    # cap gives >= 20 records
    cap = HeightValue(10 ** 6 if d == 1 or kind is HeightKind.PROD else 10 ** 4)
    for seed in range(20):
        x = sample_uniform(seed, d)
        chain = records(x, kind, cap)
        _, walk = _record_walk(x, kind, cap, DEFAULT_ENUM_CAP)
        walk = list(walk)
        assert len(chain) >= 20
        assert [tuple(Fraction(p, q) for q, p in rec) for rec in walk] == [
            r.point for r in chain
        ]
        heights = [_record_height(rec, kind) for rec in walk]
        # _last_record needs no empty-walk branch: each walk starts at height 1
        assert heights[0] == HeightValue(1)
        assert heights == [r.height for r in chain] == [height(r.point, kind) for r in chain]
        assert all(a < b for a, b in zip(heights, heights[1:])), (kind, d, seed)


def test_record_walk_cap_guard():
    with pytest.raises(CapExceededError):
        records(sample_uniform(5, 2), HeightKind.PROD, HeightValue(10 ** 6), enum_cap=3)


@pytest.mark.parametrize(
    "kind", [HeightKind.MAX, HeightKind.PROD, HeightKind.PROD_ROOT, HeightKind.LCM]
)
def test_one_coordinate_guard_raises_before_certifying(kind, monkeypatch):
    # golden has 30 table entries up to 10^6: the guard reads the table's
    # length, so no record is certified before it raises
    calls = []
    certified = ErrVal.certified_interval

    def counted(self):
        calls.append(self.point)
        return certified(self)

    monkeypatch.setattr(ErrVal, "certified_interval", counted)
    with pytest.raises(CapExceededError):
        records((golden_target(),), kind, HeightValue(10 ** 6), enum_cap=5)
    assert calls == []


def _breakpoint_scan_records(targets, cap):
    """The max record sweep that certified the best entries at every merged
    table denominator, skipping a denominator by float bounds."""
    tables = [_BestTable(t) for t in targets]
    breakpoints = sorted({q for tb in tables for q in tb.dens_up_to(cap)})
    chain, cur, cur_hi = [], None, math.inf
    for bp in breakpoints:
        ev = _err(targets, [Fraction(p, q) for q, p in (_table_best_at(tb, bp) for tb in tables)])
        if ev.interval(192).lower > cur_hi:
            continue
        if cur is None or ev.compare(cur) < 0:
            cur = ev
            cur_hi = _float_upper(ev.champion())
            chain.append(ApproxRecord(ev.point, ev.certified_interval(), HeightValue(bp)))
    return chain


@pytest.mark.parametrize("cap", [50, 3000, 10 ** 6])
@pytest.mark.parametrize("d", [2, 3])
def test_max_chain_matches_breakpoint_scan(d, cap):
    for seed in range(40):
        x = sample_uniform(seed, d)
        assert records(x, HeightKind.MAX, HeightValue(cap)) == _breakpoint_scan_records(x, cap)


def test_max_chain_of_a_repeated_target():
    # both coordinates tie at every step and move together
    g = golden_target()
    chain = records((g, g), HeightKind.MAX, HeightValue(10 ** 6))
    assert chain == _breakpoint_scan_records((g, g), 10 ** 6)
    assert [r.height.base for r in chain[:8]] == [1, 2, 3, 5, 8, 13, 21, 34]
    assert all(r.point[0] == r.point[1] for r in chain)


@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_one_coordinate_records_are_the_table_entries(kind):
    named = [golden_target(), e_target(), liouville_target()]
    for t in named + [sample_uniform(seed, 1)[0] for seed in range(5)]:
        tb = _BestTable(t)
        tb.extend_to(10 ** 6)
        fracs = [Fraction(p, q) for q, p in tb.entries]
        want = [
            ApproxRecord((f,), _err((t,), (f,)).certified_interval(), HeightValue(f.denominator))
            for f in fracs
        ]
        assert records((t,), kind, HeightValue(10 ** 6)) == want


def test_records_reject_rational_coordinates():
    with pytest.raises(ValueError):
        records((RationalTarget(Fraction(1, 3)),), HeightKind.MAX, HeightValue(10))


def test_record_csv_rows_shape():
    chain = records((golden_target(),), HeightKind.MAX, HeightValue(5))
    rows = record_csv_rows(chain)
    assert len(rows) == len(chain)
    assert rows[0][:2] == (1, 1)
    assert len(rows[0]) == 4 + 2


@pytest.mark.parametrize(
    "target, tau, cap, want",
    [
        # 0/1 and 1/1 trivially qualify at q=1, and so does the convergent
        # 1/2; golden's count then stagnates
        (golden_target, Fraction(3), 10 ** 3, 3),
        (golden_target, Fraction(3), 10 ** 4, 3),
        # both ends of the convergent scan: past the Legendre threshold q0
        # solutions are convergents, and at cap 2 the convergent 1/2 has
        # q = q0 = cap
        (golden_target, Fraction(3), 1, 2),
        (golden_target, Fraction(3), 2, 3),
        # q0 = 4, and the convergent 2/5 sits exactly at the cap
        (sqrt2_target, Fraction(5, 2), 4, 3),
        (sqrt2_target, Fraction(5, 2), 5, 4),
        # genuine tau=5 witnesses of liouville need denominators around 10^120
        (liouville_target, Fraction(5), 10 ** 7, 2),
    ],
)
def test_one_coordinate_solution_count(target, tau, cap, want):
    assert solutions_count((target(),), HeightKind.MAX, tau, HeightValue(cap)) == want


def test_one_coordinate_count_guards_its_direct_window_scan():
    # tau = 3/2 < 2 leaves no Legendre threshold, so every q <= 1000 is
    # scanned directly, and each q costs at least one unit of the cap
    x = sample_uniform(3, 1)
    tau, cap = Fraction(3, 2), HeightValue(1000)
    assert solutions_count(x, HeightKind.MAX, tau, cap) == 77
    with pytest.raises(CapExceededError, match="direct window enumeration"):
        solutions_count(x, HeightKind.MAX, tau, cap, enum_cap=1000)


def test_min_kind_witness_counts():
    tau = Fraction(5)
    a = (liouville_target(), golden_target())
    for cap in (10 ** 3, 10 ** 5):
        assert solutions_count(a, HeightKind.MIN, tau, HeightValue(cap)) == 4
    b = (golden_target(), sqrt2_target())
    assert solutions_count(b, HeightKind.MIN, tau, HeightValue(10 ** 3)) == 4


def test_min_witness_without_a_partner_within_aux_cap_is_dropped():
    # golden's two q = 1 witnesses need liouville's first convergent, 1/9,
    # as partner; below aux_cap 9 the partner search gives up and drops them
    x = (liouville_target(), golden_target())
    tau, cap = Fraction(5), HeightValue(10 ** 3)
    assert solutions_count(x, HeightKind.MIN, tau, cap, aux_cap=8) == 2
    assert solutions_count(x, HeightKind.MIN, tau, cap, aux_cap=9) == 4


def _fraction_count(coords, kind, tau, cap):
    """Reduced points of height <= cap with max error < height**(-tau),
    counted over every denominator tuple in Fraction arithmetic."""
    root = len(coords) if kind is HeightKind.PROD_ROOT else 1
    top = cap ** root  # height <= cap iff its base <= cap**root
    a, b = tau.numerator, tau.denominator
    count = 0
    for qs in itertools.product(range(1, top + 1), repeat=len(coords)):
        base = {
            HeightKind.MAX: max(qs),
            HeightKind.PROD: math.prod(qs),
            HeightKind.PROD_ROOT: math.prod(qs),
            HeightKind.LCM: math.lcm(*qs),
        }[kind]
        if base > top:
            continue
        # max_i |x_i - p_i/q_i| < base**(-tau/root) iff every coordinate is;
        # the bound is <= 1, so p_i/q_i lies within 1 of x_i
        per_coord = 1
        for x, q in zip(coords, qs):
            per_coord *= sum(
                1
                for p in range(math.floor((x - 1) * q), math.ceil((x + 1) * q) + 1)
                if math.gcd(p, q) == 1 and abs(x - Fraction(p, q)) ** (b * root) * base ** a < 1
            )
        count += per_coord
    return count


@pytest.mark.parametrize(
    "coords",
    [
        (Fraction(1, 3), Fraction(2, 7)),
        (Fraction(5, 13), Fraction(7, 19)),
        (Fraction(3, 11) + Fraction(1, 10 ** 6), Fraction(1, 2) - Fraction(1, 10 ** 5)),
    ],
)
@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_solution_count_matches_fraction_count(coords, kind):
    x = tuple(RationalTarget(f) for f in coords)
    cap = 5 if kind is HeightKind.PROD_ROOT else 12
    for tau in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        want = _fraction_count(coords, kind, tau, cap)
        assert solutions_count(x, kind, tau, HeightValue(cap)) == want, tau


def test_count_rejects_nonpositive_tau():
    # as is a tau whose terms are past their bounds
    for tau in (Fraction(0), Fraction("2.000000000000000000001")):
        with pytest.raises(ValueError):
            solutions_count((golden_target(),), HeightKind.MAX, tau, HeightValue(10))


def test_budget_validation():
    with pytest.raises(TypeError):
        Budget("max", HeightValue(3))
    with pytest.raises(TypeError):
        Budget(HeightKind.MAX, 3)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_best_point_is_reduced_and_within_budget(seed):
    x = sample_uniform(seed, 2)
    b = Budget(HeightKind.LCM, HeightValue(20))
    rec = fast_best(x, b)
    for f in rec.point:
        assert math.gcd(f.numerator, f.denominator) == 1
    assert rec.height <= HeightValue(20)
    assert isinstance(rec, ApproxRecord)


def _float_scan_max_ties(targets, cap, opt):
    """The max tie sweep that float-scanned every denominator <= cap of each
    coordinate and certified the candidates over the kept denominator tuples.

    A tuple's candidates are certified one coordinate at a time, so the points
    over all kept tuples are the combinations, with at least one coordinate
    tying the optimum, of each coordinate's certified candidates over its
    kept denominators; they are formed that way here, not tuple by tuple.
    """
    champ = opt.champion()
    opt_hi_f = _float_upper(champ)
    qs = np.arange(1, cap + 1, dtype=np.int64)
    kept = []
    for t, x_lo, x_hi in zip(targets, *_coord_float_bounds(targets)):
        lo, _ = _filter_bounds(qs, x_lo, x_hi)
        opts = []
        for q in qs[lo <= opt_hi_f * (1.0 + 1e-13) + 1e-300].tolist():
            for atom in _coord_options(t, q):
                c = _cmp_atoms(atom, champ)
                if c <= 0:
                    opts.append((atom.frac, c == 0))
        kept.append(opts)
    return {
        tuple(f for f, _ in combo)
        for combo in itertools.product(*kept)
        if any(eq for _, eq in combo)
    }


def _max_opt(targets, cap):
    best = [_table_best_at(_BestTable(t), cap) for t in targets]
    return _err(targets, [Fraction(p, q) for q, p in best])


@pytest.mark.parametrize("cap", [1, 2, 3, 7, 50, 999, 3000, 10 ** 5])
@pytest.mark.parametrize("d", [2, 3])
def test_max_ties_match_float_scan(d, cap):
    # fresh targets on each side: certified intervals depend on how far a
    # target was refined before
    for seed in range(60):
        rec = fast_best(sample_uniform(seed, d), Budget(HeightKind.MAX, HeightValue(cap)))
        y = sample_uniform(seed, d)
        assert rec.point == _lex_min(_float_scan_max_ties(y, cap, _max_opt(y, cap))), seed
        assert rec.error == _max_opt(sample_uniform(seed, d), cap).certified_interval(), seed


@functools.lru_cache(maxsize=None)
def _reduced_fractions(q):
    return [Fraction(p, q) for p in range(-q, 2 * q + 1) if math.gcd(p, q) == 1]


@functools.lru_cache(maxsize=None)
def _least_error(x, q):
    return min(abs(x - f) for f in _reduced_fractions(q))


def _fraction_oracle(coords, kind, cap):
    """Optimum of exact coordinates under a height cap, in plain Fraction
    arithmetic: every reduced p/q in [-1, 2] is scanned at every denominator
    q of every denominator tuple whose height is at most cap.  A fraction
    outside [-1, 2] is more than 1 away from a coordinate in [0, 1)."""
    d = len(coords)
    top = cap ** d if kind is HeightKind.PROD_ROOT else cap  # bound on the height base
    tuples = [()]
    for _ in range(d):
        tuples = [
            qs + (q,)
            for qs in tuples
            for q in range(1, (top // math.prod(qs) if kind in PROD_KINDS else top) + 1)
        ]
    if kind is HeightKind.LCM:
        tuples = [qs for qs in tuples if math.lcm(*qs) <= cap]
    best = min(max(_least_error(x, q) for x, q in zip(coords, qs)) for qs in tuples)
    ties = [
        pt
        for qs in tuples
        if max(_least_error(x, q) for x, q in zip(coords, qs)) == best
        for pt in itertools.product(
            *([f for f in _reduced_fractions(q) if abs(x - f) <= best] for x, q in zip(coords, qs))
        )
    ]
    point = min(ties, key=lambda pt: ([f.numerator for f in pt], [f.denominator for f in pt]))
    return point, best


@pytest.mark.parametrize(
    "coords",
    [
        # mirror ties: x_i is the midpoint of two fractions of small order
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)),
        (Fraction(3, 10), Fraction(1, 6)),
        (Fraction(5, 12), Fraction(7, 12)),
        (Fraction(1, 8), Fraction(5, 8), Fraction(3, 8)),
        # equal to a Farey fraction of order cap from cap 7 on (E* = 0), and
        # one exact coordinate under a larger E* below that
        (Fraction(2, 7), Fraction(3, 5)),
        (Fraction(2, 7), Fraction(3, 7), Fraction(1, 2)),
        # the target 0
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 3)),
        (Fraction(5, 11), Fraction(0), Fraction(9, 13)),
        RECURRING_LCM_OPTIMUM,
        # one coordinate, with the same mirror ties
        (Fraction(1, 4),),
        (Fraction(5, 12),),
        (Fraction(3, 10),),
        (Fraction(1, 6),),
        (Fraction(0),),
        (Fraction(2, 7),),
    ],
)
@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_searches_match_fraction_oracle(coords, kind):
    x = tuple(RationalTarget(f) for f in coords)
    # a rooted product cap c admits products up to c**d
    caps = range(1, 8 if kind is HeightKind.PROD_ROOT and len(coords) > 1 else 15)
    for cap in caps:
        point, best = _fraction_oracle(coords, kind, cap)
        for search in (fast_best, brute_force_best):
            rec = search(x, Budget(kind, HeightValue(cap)))
            assert rec.point == point, (cap, search.__name__)
            assert rec.error.lower == rec.error.upper == best, (cap, search.__name__)
            assert rec.height == height(point, kind), (cap, search.__name__)


class _DyadicTarget(RealTarget):
    """An oracle-backed target with the dyadic enclosures of a given value."""

    def __init__(self, value):
        super().__init__(("dyadic", value))
        self._value = value

    def _raw_enclosure(self, bits):
        k = math.floor(self._value * 2 ** bits)
        return Interval(Fraction(k, 2 ** bits), Fraction(k + 1, 2 ** bits))


def test_fast_max_certificate_survives_a_close_race():
    # coordinate 1's candidate 2/3 misses the optimum's error E* by 2^-160/3:
    # deciding that race takes more than 128 bits, which must not narrow
    # the certified error below the 192-bit interval the oracle certifies
    e_star = Fraction(3, 20) + Fraction(1, 10 ** 6 + 3)
    x0 = Fraction(1, 3) - e_star
    x1 = x0 + Fraction(1, 3) - Fraction(1, 3 * 2 ** 160)
    b = Budget(HeightKind.MAX, HeightValue(3))
    rec = fast_best((_DyadicTarget(x0), _DyadicTarget(x1)), b)
    assert rec.point == (Fraction(1, 3), Fraction(1, 2))
    assert rec == brute_force_best((_DyadicTarget(x0), _DyadicTarget(x1)), b)


@settings(max_examples=200, deadline=None)
@given(
    lo=st.fractions(min_value=0, max_value=3, max_denominator=10 ** 4),
    width=st.fractions(min_value=0, max_value=Fraction(1, 10), max_denominator=10 ** 6),
)
def test_simplest_is_the_first_fraction_of_a_denominator_scan(lo, width):
    # the smallest q with an integer in [q*lo, q*hi], and the smallest such p
    hi = lo + width
    q = 1
    while math.ceil(lo * q) > hi * q:
        q += 1
    assert _simplest(lo, hi) == Fraction(math.ceil(lo * q), q)


def test_fast_max_rejects_a_simpler_fraction_just_outside_the_window():
    # coordinate 1's window [1/2 + 2^-200/3, 3/5 - ...] just misses 1/2, which
    # the 192-bit window still holds: the certified comparison must turn it
    # down, leaving 4/7, the simplest fraction inside
    e_star = Fraction(1, 20) - Fraction(1, 10 ** 6 + 3)
    x1 = Fraction(1, 2) + e_star + Fraction(1, 3 * 2 ** 200)
    b = Budget(HeightKind.MAX, HeightValue(10))
    rec = fast_best((_DyadicTarget(e_star), _DyadicTarget(x1)), b)
    assert rec.point == (Fraction(0), Fraction(4, 7))
    assert rec == brute_force_best((_DyadicTarget(e_star), _DyadicTarget(x1)), b)
    assert rec.error.lower <= e_star <= rec.error.upper


def test_both_routes_certify_one_interval_after_a_deep_comparison():
    # 1/4 + 2^-150/3 sits just above the tie of 0/1 and 1/2 around 1/4 at
    # cap 2; a search that refines past 192 bits to decide that race must
    # not certify a narrower interval than the oracle
    x = Fraction(1, 4) + Fraction(1, 3 * 2 ** 150)
    b = Budget(HeightKind.MAX, HeightValue(2))
    rec = fast_best((_DyadicTarget(x), _DyadicTarget(x)), b)
    assert rec == brute_force_best((_DyadicTarget(x), _DyadicTarget(x)), b)
    assert rec.error.upper.denominator == 2 ** 192


def _best_within(x: Fraction, cap: int) -> Fraction:
    """The closest fraction to x with denominator <= cap: x's last convergent
    within the cap, or the semiconvergent after it with the largest
    denominator within the cap if that one is strictly closer."""
    p0, q0, p1, q1 = 0, 1, 1, 0  # p_{n-2}, q_{n-2}, p_{n-1}, q_{n-1}
    rest = x
    while True:
        a = math.floor(rest)
        if q0 + a * q1 > cap:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        if rest == a:
            return x
        rest = 1 / (rest - a)
    k = (cap - q0) // q1
    semi = Fraction(p0 + k * p1, q0 + k * q1)
    conv = Fraction(p1, q1)
    return semi if abs(x - semi) < abs(x - conv) else conv


@pytest.mark.parametrize("exp", [18, 30, 100])
def test_max_answer_of_liouville_and_golden_reads_one_family(exp):
    # a table to the cap would list about 5*10^11 of liouville's best
    # approximations (5*10^71 at 10^100); truncations of the two series, far
    # closer than the errors at stake, decide the expected point in Fractions
    cap = 10 ** exp
    started = time.perf_counter()
    rec = fast_best((liouville_target(), golden_target()), Budget(HeightKind.MAX, HeightValue(cap)))
    assert time.perf_counter() - started < 1.0
    liouville = sum(Fraction(1, 10 ** math.factorial(k)) for k in range(1, 7))
    fib = [1, 1]
    while len(fib) < 1200:
        fib.append(fib[-1] + fib[-2])
    golden = Fraction(fib[-2], fib[-1])
    assert rec.point == (_best_within(liouville, cap), _best_within(golden, cap))
    assert rec.height == HeightValue(max(f.denominator for f in rec.point))


def test_answer_interval_is_certified_on_fresh_copies():
    # the search refines sqrt2 far past the certificate's start precision
    rec = fast_best((sqrt2_target(),), Budget(HeightKind.MAX, HeightValue(10 ** 12)))
    assert rec.error == _err((sqrt2_target(),), rec.point).certified_interval()


@pytest.mark.parametrize("cap", [10, 1000, 10 ** 6])
def test_fast_max_repeated_target_refined_further_in_one_copy(cap):
    # both coordinates have the same window, whose simplest fraction is the
    # optimum's own coordinate at its edge; the second copy's tighter
    # enclosure must not push that edge out of the second window
    deeper = golden_target()
    deeper.enclosure(1024)
    rec = fast_best((golden_target(), deeper), Budget(HeightKind.MAX, HeightValue(cap)))
    assert rec.point[0] == rec.point[1]
    # fast_best works on fresh copies, so give the rule the refined copy itself
    x = (golden_target(), deeper)
    opt = _max_opt(x, cap)
    assert _simplest_point(x, opt) == rec.point
    assert deeper._best_bits >= 1024


def test_max_ties_need_no_enumeration_cap():
    # 0/1 and 1/2 both tie 1/4 in each coordinate; the answer is each
    # coordinate's simplest tie, with no tie set to count against the cap
    x = (RationalTarget(Fraction(1, 4)), RationalTarget(Fraction(1, 4)))
    b = Budget(HeightKind.MAX, HeightValue(2))
    assert fast_best(x, b, enum_cap=1).point == (Fraction(0), Fraction(0))


def test_max_fast_best_on_402500_tied_points():
    # E* is 1.1e-4, as the third coordinate sits near 2999/3000, so 402 500
    # points tie; the expected record is the one the full tie product gave
    start = time.perf_counter()
    rec = fast_best(sample_uniform(51, 3), Budget(HeightKind.MAX, HeightValue(3000)))
    assert time.perf_counter() - start < 1
    assert rec.point == (Fraction(83, 85), Fraction(3, 137), Fraction(2999, 3000))
    assert rec.error == Interval(
        Fraction(
            135292947395899253576777114554892363970462585433903277431,
            1176956575385002643219210516851437453019191645837006471168000,
        ),
        Fraction(
            270585894791798507153554229109784727940925170867806555237,
            2353913150770005286438421033702874906038383291674012942336000,
        ),
    )
    assert rec.height == HeightValue(3000)


@pytest.mark.parametrize("d", [2, 3])
def test_max_fast_best_reaches_a_trillion(d):
    # the simplest-fraction descent's cost does not grow with the cap, which
    # lies far past the default enumeration cap here
    cap = 10 ** 12
    start = time.perf_counter()
    for seed in range(5):
        x = sample_uniform(seed, d)
        rec = fast_best(x, Budget(HeightKind.MAX, HeightValue(cap)))
        assert rec.height <= HeightValue(cap)
        assert rec.error == _max_opt(sample_uniform(seed, d), cap).certified_interval()
        assert rec.error.upper < Fraction(1, cap + 1)
    assert time.perf_counter() - start < 20


def _trace_result(tr):
    return tr.estimate, tr.n_entries, tr.entries


# each certifying call, with the targets it takes: call(x) -> result
_CERTIFYING_CALLS = {
    "fast_best": (
        lambda: sample_uniform(3, 2),
        lambda x: fast_best(x, Budget(HeightKind.PROD, HeightValue(10 ** 4))),
    ),
    "brute_force_best": (
        lambda: (golden_target(), sqrt2_target()),
        lambda x: brute_force_best(x, Budget(HeightKind.MAX, HeightValue(30))),
    ),
    "records": (
        lambda: (golden_target(),),
        lambda x: records(x, HeightKind.MAX, HeightValue(10 ** 4)),
    ),
    "omega_estimate": (
        lambda: (golden_target(), e_target()),
        lambda x: _trace_result(omega_estimate(x, HeightKind.MIN, HeightValue(10 ** 6))),
    ),
    "constant_estimate": (
        lambda: (golden_target(),),
        lambda x: _trace_result(
            constant_estimate(x, HeightKind.MAX, Fraction(2), HeightValue(10 ** 4))
        ),
    ),
    "solutions_count": (
        lambda: sample_uniform(1, 2),
        lambda x: solutions_count(x, HeightKind.MAX, Fraction(2), HeightValue(30)),
    ),
    "gap_inequality_check": (
        lambda: (BitsTarget(5, 0),),
        lambda x: gap_inequality_check(expand(BitsTarget(5, 0), 12), x[0], 10),
    ),
}


@pytest.mark.parametrize("name", sorted(_CERTIFYING_CALLS))
def test_certified_results_depend_only_on_the_arguments(name):
    # targets first refined to 1024 bits give what fresh ones give, and the
    # call leaves the passed targets as they were
    make, call = _CERTIFYING_CALLS[name]
    refined = make()
    for t in refined:
        t.enclosure(1024)
    fresh = make()
    assert call(refined) == call(fresh)
    assert [t._best_bits for t in refined] == [1024] * len(refined)
    assert [t._best_bits for t in fresh] == [-1] * len(fresh)
