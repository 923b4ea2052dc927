import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heightlab.approx_search import (
    ApproxRecord,
    Budget,
    ErrVal,
    _BestTable,
    _cmp_atoms,
    _coord_float_bounds,
    _coord_options,
    _filter_bounds,
    _lcm_bounds,
    _tuple_best,
    brute_force_best,
    fast_best,
    record_csv_rows,
    records,
    solutions_count,
)
from heightlab.errors import CapExceededError, UnboundedSearchError
from heightlab.heights import HeightKind, HeightValue, height
from heightlab.numerics import (
    RationalTarget,
    golden_target,
    liouville_target,
    sample_uniform,
    sqrt2_target,
)

X27 = (RationalTarget(Fraction(2, 7)), RationalTarget(Fraction(3, 7)))


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


def test_enumeration_cap_guard():
    x = sample_uniform(5, 3)
    with pytest.raises(CapExceededError):
        brute_force_best(x, Budget(HeightKind.MAX, HeightValue(300)), enum_cap=10 ** 6)


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
            assert ErrVal(x, below.point).compare(ErrVal(x, rec.point)) > 0


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
            assert ErrVal(x, rec.point).certified_interval() == rec.error
            assert brute_force_best(x, Budget(kind, rec.height)).error == rec.error
            if rec.height == HeightValue(1):
                continue
            below = brute_force_best(x, Budget(kind, HeightValue(rec.height.base - 1)))
            assert ErrVal(x, below.point).compare(ErrVal(x, rec.point)) > 0


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
                if got is not None and (group_best is None or got[1].compare(group_best) < 0):
                    group_best = got[1]
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
                for _, atom in _coord_options(t, divisors[dd][oi]):
                    if best is None or _cmp_atoms(atom, best) < 0:
                        best = atom
            point.append(best.frac)
        ev = ErrVal(targets, point)
        if math.lcm(*(f.denominator for f in ev.point)) != dd:
            continue
        if cur is None or ev.compare(cur) < 0:
            cur = ev
            cur_hi = ev.champion().float_bounds()[1]
            chain.append(ApproxRecord(ev.point, ev.certified_interval(), HeightValue(dd)))
    return chain


@pytest.mark.parametrize("cap", [50, 3000])
@pytest.mark.parametrize("d", [2, 3])
def test_lcm_chain_matches_divisor_walk(d, cap):
    for seed in range(40):
        x = sample_uniform(seed, d)
        assert records(x, HeightKind.LCM, HeightValue(cap)) == _divisor_walk_records(x, cap)


def test_lcm_scan_reaches_a_million_and_counts_against_the_cap():
    x = sample_uniform(3, 2)
    chain = records(x, HeightKind.LCM, HeightValue(10 ** 6))
    assert chain[-1].height <= HeightValue(10 ** 6)
    with pytest.raises(CapExceededError):
        records(x, HeightKind.LCM, HeightValue(10 ** 6), enum_cap=10 ** 6 - 1)


TINY = Fraction(1, 2 ** 70)


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
    ds = np.arange(1, 2001, dtype=np.int64)
    lo, hi = _lcm_bounds(tuple(RationalTarget(f) for f in coords), ds)
    for D, l, h in zip(ds.tolist(), lo, hi):
        exact = max(abs(x - Fraction(round(D * x), D)) for x in coords)
        assert Fraction(l) <= exact <= Fraction(h), (D, exact, l, h)


def test_fast_prod_tie_sweep_stays_within_the_frontier_tuple():
    # the tie sweep scans 200^3 denominators per coordinate without the
    # bound from the optimum's own denominators
    x = sample_uniform(0, 3)
    rec = fast_best(x, Budget(HeightKind.PROD_ROOT, HeightValue(200)), enum_cap=10 ** 5)
    assert rec.point == (Fraction(341, 375), Fraction(9, 77), Fraction(17, 226))


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
    for x in [(g, g), sample_uniform(9, 3)]:
        chain = records(x, HeightKind.PROD, HeightValue(10 ** 6))
        assert records(x, HeightKind.PROD, HeightValue(10 ** 6), enum_cap=len(chain)) == chain


def test_record_walk_cap_guard():
    with pytest.raises(CapExceededError):
        records(sample_uniform(5, 2), HeightKind.PROD, HeightValue(10 ** 6), enum_cap=3)


def test_records_reject_rational_coordinates():
    with pytest.raises(ValueError):
        records((RationalTarget(Fraction(1, 3)),), HeightKind.MAX, HeightValue(10))


def test_record_csv_rows_shape():
    chain = records((golden_target(),), HeightKind.MAX, HeightValue(5))
    rows = record_csv_rows(chain)
    assert len(rows) == len(chain)
    assert rows[0][:2] == (1, 1)
    assert len(rows[0]) == 4 + 2


def test_golden_cubic_solution_count_stagnates():
    x = (golden_target(),)
    c3 = solutions_count(x, HeightKind.MAX, Fraction(3), HeightValue(10 ** 3))
    c4 = solutions_count(x, HeightKind.MAX, Fraction(3), HeightValue(10 ** 4))
    # 0/1 and 1/1 trivially qualify at q=1, and so does the convergent 1/2
    assert c3 == c4 == 3


def test_liouville_quintic_count_is_trivial_below_huge_caps():
    # genuine tau=5 witnesses need denominators around 10^120
    x = (liouville_target(),)
    assert solutions_count(x, HeightKind.MAX, Fraction(5), HeightValue(10 ** 7)) == 2


def test_min_kind_witness_counts():
    tau = Fraction(5)
    a = (liouville_target(), golden_target())
    for cap in (10 ** 3, 10 ** 5):
        assert solutions_count(a, HeightKind.MIN, tau, HeightValue(cap)) == 4
    b = (golden_target(), sqrt2_target())
    assert solutions_count(b, HeightKind.MIN, tau, HeightValue(10 ** 3)) == 4


def test_count_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        solutions_count((golden_target(),), HeightKind.MAX, Fraction(0), HeightValue(10))


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
