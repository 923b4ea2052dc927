"""The integer comparison kernels against pure ``Fraction`` arithmetic.

``_cmp_atoms``, ``ConvergentCursor._certified_quotient`` and
``_err_beats_power`` decide on integer cross-products of enclosure ends.  The
references below are the ``Fraction`` versions they replaced, kept here
only.  Results must be equal, a reference ``PrecisionExhaustedError`` must
come back with the same message, and the enclosure requests, the
(target.key, bits) of every ``RealTarget.enclosure`` call, must be the same
sequence: records certify on their walk's own targets, so a change in
refinement history would move certificates.  The integer-keyed record walk
is held the same way against the walk that built an ``ErrVal`` per step,
the break-even index of ``_best_entries``, read off the quotient's parity,
against the bisection it replaced, ``_best_at``, read off the cap's family,
against the table it replaced, and the lcm pass on the atoms it compared
against its round trip through reduced ``Fraction``s.

``iroot`` seeds Newton's method from a float root, and ``floor_pow`` is
floor(x**e) through it; both are checked against the Newton iteration it
replaced, seeded at 2**ceil(bits/k).
"""

import hashlib
import math
import random
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice, product, takewhile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from heightlab import approx_search
from heightlab.approx_search import (
    DEFAULT_ENUM_CAP,
    ApproxRecord,
    Budget,
    ErrVal,
    _Atom,
    _BestTable,
    _best_at,
    _best_entries,
    _cmp_atoms,
    _den_cap,
    _err_beats_power,
    _lcm_scan,
    _lex_min,
    _nearest_multiples,
    _record_err,
    _record_height,
    fast_best,
    records,
    solutions_count,
)
from heightlab.cf_engine import ConvergentCursor
from heightlab.errors import CapExceededError, PrecisionExhaustedError
from heightlab.exponents import omega_estimate
from heightlab.heights import HeightKind, HeightValue, floor_pow, height, iroot
from heightlab.numerics import (
    BitsTarget,
    CFTarget,
    Interval,
    RationalTarget,
    RealTarget,
    precisions,
    refine,
    sample_uniform,
)
from test_approx_search import _table_best_at

# ---------------------------------------------------------------------------
# references: the Fraction arithmetic of the kernels


def _ref_interval(atom: _Atom, bits: int) -> Interval:
    if atom.exact is not None:
        return Interval(atom.exact, atom.exact)
    return refine(atom.target, min(bits, atom.target.budget)).distance(atom.frac)


def _ref_cmp_atoms(u: _Atom, v: _Atom) -> int:
    if u.exact is not None and v.exact is not None:
        return (u.exact > v.exact) - (u.exact < v.exact)
    if u.exact is None and v.exact is None and u.target.key == v.target.key:
        if u.frac == v.frac:
            return 0
        u_low = u.frac < v.frac
        m = (u.frac + v.frac) / 2
        target = u.target
        for bits in precisions(64, target.budget):
            e = refine(target, bits)
            if e.upper < m:
                return -1 if u_low else 1
            if e.lower > m:
                return 1 if u_low else -1
        raise PrecisionExhaustedError(
            f"cannot separate errors of {u.frac} and {v.frac} against {target.key}"
        )
    for bits in precisions(128, max(u.budget, v.budget)):
        iu = _ref_interval(u, bits)
        iv = _ref_interval(v, bits)
        if iu.upper < iv.lower:
            return -1
        if iv.upper < iu.lower:
            return 1
    raise PrecisionExhaustedError(
        "refinement race undecided between "
        f"|{u.target.key} - {u.frac}| and |{v.target.key} - {v.frac}|"
    )


def _ref_certified_quotient(self: ConvergentCursor) -> int:
    p_prev, p, q_prev, q = self._p_prev, self._p, self._q_prev, self._q
    for bits in precisions(self._bits, self.target.budget):
        e = refine(self.target, bits)
        num_lo = p - q * e.upper
        num_hi = p - q * e.lower
        den_lo = q_prev * e.lower - p_prev
        den_hi = q_prev * e.upper - p_prev
        if num_lo > 0 or num_hi < 0:
            if den_lo > 0 or den_hi < 0:
                quotients = [
                    den_lo / num_lo,
                    den_lo / num_hi,
                    den_hi / num_lo,
                    den_hi / num_hi,
                ]
                lo, hi = min(quotients), max(quotients)
                a_lo, a_hi = math.floor(lo), math.floor(hi)
                if a_lo == a_hi and a_lo >= 1:
                    self._bits = bits
                    return a_lo
    raise PrecisionExhaustedError(
        f"cannot certify partial quotient a_{self._n + 1} of {self.target.key}"
        f" within {self.target.budget} bits"
    )


def _ref_err_beats_power(atom: _Atom, base: int, tau: Fraction, r: int) -> bool:
    # r = floor(base**tau) is the kernel's shortcut; the reference ignores it
    a, b = tau.numerator, tau.denominator
    target = atom.target
    for bits in precisions(64, target.budget):
        iv = _ref_interval(atom, bits)
        if iv.upper ** b * base ** a < 1:
            return True
        if iv.lower ** b * base ** a >= 1:
            return False
    raise PrecisionExhaustedError(
        f"cannot decide |{target.key} - {atom.frac}| vs {base}^(-{tau})"
    )


class _RefCursor(ConvergentCursor):
    _certified_quotient = _ref_certified_quotient


# ---------------------------------------------------------------------------
# targets and recording


class _Near(RealTarget):
    """A chosen rational v behind dyadic enclosures, with no exact value, so
    that every comparison goes through refinement: v may sit at 2^-k, at an
    enclosure end, or where q*v is nearly an integer.

    The key names v by a digest of its numerator and denominator: equal
    values share a key, as ``_cmp_atoms`` needs, and a v of more than 4300
    digits can still be printed into a ``PrecisionExhaustedError`` message."""

    def __init__(self, value: Fraction, budget: int) -> None:
        n, d = value.numerator, value.denominator
        num = n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True)
        den = d.to_bytes(d.bit_length() // 8 + 1, "big")
        digest = hashlib.sha256(len(num).to_bytes(8, "big") + num + den).hexdigest()
        super().__init__(("near", digest), budget)
        self._value = value

    def _raw_enclosure(self, bits: int) -> Interval:
        k = math.floor(self._value * (1 << bits))
        return Interval(Fraction(k, 1 << bits), Fraction(k + 1, 1 << bits))


def _build(spec):
    kind, value, budget = spec
    if kind == "seed":
        return BitsTarget(value, 0, budget)
    if kind == "near":
        return _Near(value, budget)
    return RationalTarget(value)


def _atom(target, frac):
    return _Atom(target, frac.numerator, frac.denominator)


@contextmanager
def _recorded():
    """The (target.key, bits) of every enclosure request made in the block."""
    log = []
    enclosure = RealTarget.enclosure

    def logged(self, bits):
        log.append((self.key, bits))
        return enclosure(self, bits)

    with mock.patch.object(RealTarget, "enclosure", logged):
        yield log


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except PrecisionExhaustedError as exc:
        return "raises", str(exc)


budgets = st.sampled_from([64, 128, 256, 1024])


@st.composite
def target_specs(draw, rational=True):
    kind = draw(st.sampled_from(["seed", "pow2", "qx", "rational"] if rational
                                else ["seed", "pow2", "qx"]))
    budget = draw(budgets)
    if kind == "seed":
        return "seed", draw(st.integers(0, 10 ** 6)), budget
    if kind == "pow2":
        # x at 2^-k or just off it
        k = draw(st.integers(1, 60))
        off = draw(st.integers(-3, 3)) * Fraction(1, 2 ** draw(st.integers(k + 2, k + 400)))
        return "near", Fraction(1, 2 ** k) + off, budget
    if kind == "qx":
        # q*x within 2^-j of an integer
        q = draw(st.integers(2, 10 ** 9))
        n = draw(st.integers(1, q - 1))
        off = draw(st.integers(-3, 3)) * Fraction(1, 2 ** draw(st.integers(1, 400)))
        return "near", (n + off) / q, budget
    num = draw(st.integers(0, 10 ** 12))
    return "rational", Fraction(num, draw(st.integers(num + 1, 10 ** 12 + 1))), budget


@st.composite
def fracs_for(draw, spec):
    """A fraction near the spec's target: a close p/q, or an end of one of
    its enclosures, where the distance interval straddles 0."""
    x = _build(spec)
    if draw(st.booleans()) and x.exact_value is None:
        e = x.enclosure(min(draw(st.sampled_from([64, 128, 256])), spec[2]))
        return e.lower if draw(st.booleans()) else e.upper
    q = draw(st.integers(1, 10 ** 12))
    approx = x.exact_value if x.exact_value is not None else x.enclosure(64).lower
    return Fraction(math.floor(approx * q) + draw(st.integers(-1, 2)), q)


@st.composite
def atom_pairs(draw):
    u_spec = draw(target_specs())
    fu = draw(fracs_for(u_spec))
    same = u_spec[0] != "rational" and draw(st.booleans())
    if same and draw(st.booleans()):
        # mirror ties: the midpoint is an end of the 64-bit enclosure, and x
        # itself when x is dyadic
        fv = 2 * _build(u_spec).enclosure(64).lower - fu
        if fv != fu:
            return u_spec, fu, u_spec, fv, same
    v_spec = u_spec if same else draw(target_specs())
    return u_spec, fu, v_spec, draw(fracs_for(v_spec)), same


def _atoms(case):
    u_spec, fu, v_spec, fv, same = case
    tu = _build(u_spec)
    tv = tu if same else _build(v_spec)
    return _atom(tu, fu), _atom(tv, fv)


# ---------------------------------------------------------------------------
# the kernels against their references


@settings(max_examples=400, deadline=None)
@given(case=atom_pairs())
def test_cmp_atoms_matches_fraction_reference(case):
    with _recorded() as log:
        got = _outcome(_cmp_atoms, *_atoms(case))
    with _recorded() as ref_log:
        want = _outcome(_ref_cmp_atoms, *_atoms(case))
    assert got == want
    assert log == ref_log


@settings(max_examples=100, deadline=None)
@given(case=atom_pairs(), bits=st.sampled_from([64, 128, 192, 256]))
def test_atom_ends_match_interval_distance(case, bits):
    u, v = _atoms(case)
    for atom in (u, v):
        ln, ld, un, ud = atom.interval(bits)
        assert Interval(Fraction(ln, ld), Fraction(un, ud)) == _ref_interval(atom, bits)
    ivs = [_ref_interval(a, bits) for a in (u, v)]
    assert ErrVal((u, v)).interval(bits) == Interval(
        max(i.lower for i in ivs), max(i.upper for i in ivs))


@settings(max_examples=200, deadline=None)
@given(case=atom_pairs(), ku=st.integers(1, 10 ** 6), kv=st.integers(1, 10 ** 6))
def test_unreduced_atoms_keep_the_errval(case, ku, kv):
    # an lcm pass certifies its points on atoms (k*p, k*q) at a common
    # denominator: they must decide, certify and refine as (p, q) does
    def run(k, m):
        u, v = _atoms(case)
        su, sv = _Atom(u.target, k * u.p, k * u.q), _Atom(v.target, m * v.p, m * v.q)
        return (_outcome(ErrVal((su, sv)).certified_interval),
                _outcome(ErrVal((su,)).compare, ErrVal((sv,))))

    with _recorded() as log:
        got = run(ku, kv)
    with _recorded() as ref_log:
        want = run(1, 1)
    assert got == want
    assert log == ref_log


def _quotients(cursor, n):
    rows = []
    try:
        for _ in range(n):
            row = cursor.advance()
            if row is None:
                break
            rows.append((row.a, row.p, row.q))
    except PrecisionExhaustedError as exc:
        rows.append(str(exc))
    return rows


@settings(max_examples=150, deadline=None)
@given(spec=target_specs(rational=False), n=st.integers(1, 60))
def test_certified_quotient_matches_fraction_reference(spec, n):
    with _recorded() as log:
        got = _quotients(ConvergentCursor(_build(spec)), n)
    with _recorded() as ref_log:
        want = _quotients(_RefCursor(_build(spec)), n)
    assert got == want
    assert log == ref_log


@st.composite
def power_cases(draw):
    spec = draw(target_specs())
    base = draw(st.one_of(st.integers(1, 60), st.sampled_from([2, 4, 8])))
    if draw(st.booleans()):
        tau = Fraction(draw(st.integers(1, 400)), draw(st.integers(1, 100)))
    else:
        # long terms, up to the counting bounds
        tau = Fraction(draw(st.integers(1, 10 ** 4)), draw(st.integers(1, 1000)))
    mode = draw(st.sampled_from(["plain", "power", "window"]))
    kind = "rational" if spec[0] == "rational" else "near"
    if mode == "power":
        # the error is base^-a exactly, an end of the enclosures of a dyadic
        # x: an exact atom is decided false, and an inexact one never
        a = draw(st.integers(1, 8))
        frac = draw(fracs_for(spec))
        x = frac + draw(st.sampled_from([-1, 1])) * Fraction(1, base ** a)
        if 0 <= x < 1:
            return (kind, x, spec[2]), frac, base, Fraction(a)
    if mode == "window":
        # the error 1/(r + u) lies strictly inside (1/(r+1), 1/r), where only
        # the powers of the ends decide
        u = Fraction(draw(st.integers(1, 999)), 1000)
        frac = draw(fracs_for(spec))
        x = frac + draw(st.sampled_from([-1, 1])) / (floor_pow(base, tau) + u)
        if 0 <= x < 1:
            return (kind, x, spec[2]), frac, base, tau
    return spec, draw(fracs_for(spec)), base, tau


def _check_power_case(case):
    spec, frac, base, tau = case
    r = floor_pow(base, tau)
    with _recorded() as log:
        got = _outcome(_err_beats_power, _atom(_build(spec), frac), base, tau, r)
    with _recorded() as ref_log:
        want = _outcome(_ref_err_beats_power, _atom(_build(spec), frac), base, tau, r)
    assert got == want
    assert log == ref_log


@settings(max_examples=200, deadline=None)
@given(case=power_cases())
def test_err_beats_power_matches_fraction_reference(case):
    _check_power_case(case)


def test_err_beats_power_on_a_value_past_4300_digits():
    # the "window" draw that --hypothesis-seed=3 makes at a long tau: x has
    # about 4800 digits, so its target key must not print x.  It is not an
    # @example, because Hypothesis prints an explicit example's arguments.
    x = 1 / (floor_pow(4, Fraction(7919)) + Fraction(89, 500))
    _check_power_case((("near", x, 128), Fraction(0), 4, Fraction(7919)))


# ---------------------------------------------------------------------------
# the float-seeded root against the old seed


def _ref_iroot(n: int, k: int) -> int:
    if k == 1 or n < 2:
        return n
    if k >= n.bit_length():
        return 1
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


@st.composite
def root_cases(draw):
    """n up to 40 000 bits and k up to 2000: random n, all-ones and powers
    of two (the top word at its extremes), and exact powers +-1."""
    k = draw(st.sampled_from([2, 3, 63, 64, 65, 1999, 2000]) | st.integers(1, 2000))
    bits = draw(st.sampled_from([63, 64, 65, 128, 4000, 39999, 40000]) | st.integers(1, 40000))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    shape = draw(st.sampled_from(["random", "ones", "pow2", "power"]))
    if shape == "ones":
        return (1 << bits) - 1, k
    if shape == "pow2":
        return 1 << (bits - 1), k
    if shape == "power":
        r = rng.getrandbits(max(bits // k, 1))
        return max(r ** k + draw(st.integers(-1, 1)), 0), k
    return rng.getrandbits(bits), k


@settings(max_examples=200, deadline=None)
@given(case=root_cases())
def test_iroot_matches_newton_from_power_of_two_seed(case):
    n, k = case
    assert iroot(n, k) == _ref_iroot(n, k)


@st.composite
def pow_cases(draw):
    """x**e with tau-like terms, up to 40 000 bits."""
    x = draw(st.integers(0, 10 ** 6))
    num = draw(st.integers(1, min(10 ** 4, 40000 // max(x.bit_length(), 1))))
    return x, Fraction(num, draw(st.integers(1, 1000)))


@settings(max_examples=100, deadline=None)
@given(case=pow_cases())
def test_floor_pow_matches_newton_from_power_of_two_seed(case):
    x, e = case
    assert floor_pow(x, e) == _ref_iroot(x ** e.numerator, e.denominator)


# ---------------------------------------------------------------------------
# refinement history of whole calls


HISTORY_CALLS = {
    "omega_max_d3": lambda: omega_estimate(
        sample_uniform(42003, 3), HeightKind.MAX, HeightValue(10 ** 6)),
    "omega_prod_root_d3": lambda: omega_estimate(
        sample_uniform(42003, 3), HeightKind.PROD_ROOT, HeightValue(10 ** 6)),
    "records_prod_d2": lambda: records(
        sample_uniform(7, 2), HeightKind.PROD, HeightValue(10 ** 9)),
    "fast_best_prod_d2": lambda: fast_best(
        sample_uniform(21, 2), Budget(HeightKind.PROD, HeightValue(10 ** 5))),
    "count_max_d2": lambda: solutions_count(
        sample_uniform(1, 2), HeightKind.MAX, Fraction(3, 2), HeightValue(25)),
}


@pytest.mark.parametrize("name", sorted(HISTORY_CALLS))
def test_kernels_keep_refinement_history(name, monkeypatch):
    call = HISTORY_CALLS[name]
    with _recorded() as log:
        got = call()
    used = []

    def counted(fn):
        def wrapper(*args):
            used.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(approx_search, "_cmp_atoms", counted(_ref_cmp_atoms))
    monkeypatch.setattr(approx_search, "_err_beats_power", counted(_ref_err_beats_power))
    monkeypatch.setattr(ConvergentCursor, "_certified_quotient", counted(_ref_certified_quotient))
    with _recorded() as ref_log:
        want = call()
    assert got == want
    assert log == ref_log
    # the references really ran in place of the kernels
    if name.startswith("count"):
        assert "_ref_err_beats_power" in used
    else:
        assert "_ref_cmp_atoms" in used and "_ref_certified_quotient" in used


# ---------------------------------------------------------------------------
# the integer-keyed record walk against the walk of one ErrVal per step


def _errval_frontier(targets, kind, cap, enum_cap):
    """The frontier walk as it was when it yielded an ``ErrVal`` per step:
    an atom for every table entry, made before the walk starts."""
    tables = [_BestTable(t) for t in targets]
    for tb in tables:
        tb.extend_to(cap)
    atoms = [[_Atom(t, p, q) for q, p in tb.entries] for t, tb in zip(targets, tables)]
    den_lists = [[q for q, _ in tb.entries] for tb in tables]
    product = kind in (HeightKind.PROD, HeightKind.PROD_ROOT)
    idx = [0] * len(tables)
    steps = 0
    while all(k < len(ds) for k, ds in zip(idx, den_lists)):
        dens = [ds[k] for k, ds in zip(idx, den_lists)]
        if product:
            if math.prod(dens) > cap:
                return
        else:
            idx = [bisect_right(ds, max(dens)) - 1 for ds in den_lists]
        steps += 1
        if steps > enum_cap:
            raise CapExceededError("frontier walk exceeds enumeration cap")
        ev = ErrVal([a[k] for k, a in zip(idx, atoms)])
        tied = [0]
        for i in range(1, len(ev.atoms)):
            c = _cmp_atoms(ev.atoms[i], ev.atoms[tied[0]])
            if c > 0:
                tied = [i]
            elif c == 0:
                tied.append(i)
        yield ev
        for i in tied:
            idx[i] += 1


def _per_target(log):
    out = {}
    for key, bits in log:
        out.setdefault(key, []).append(bits)
    return out


WALK_CASES = [
    (1, HeightKind.MAX),
    (2, HeightKind.MAX),
    (3, HeightKind.MAX),
    (2, HeightKind.PROD),
    (3, HeightKind.PROD),
    (3, HeightKind.PROD_ROOT),
]


@pytest.mark.parametrize("d, kind", WALK_CASES)
def test_integer_walk_keeps_the_errval_walk_and_its_refinement_history(d, kind):
    # records certifies each record as the walk reaches it, so the walk's
    # later comparisons run on targets that certification refined
    cap = HeightValue(10 ** 6)
    for seed in range(20):
        x = sample_uniform(seed, d)
        with _recorded() as log:
            got = records(x, kind, cap)
        with _recorded() as ref_log:
            targets = tuple(t.clone() for t in x)
            want = [
                ApproxRecord(ev.point, ev.certified_interval(), height(ev.point, kind))
                for ev in _errval_frontier(
                    targets, kind, _den_cap(kind, cap, d), DEFAULT_ENUM_CAP)
            ]
        assert len(got) >= 20
        assert got == want, (d, kind, seed)
        assert _per_target(log) == _per_target(ref_log), (d, kind, seed)


# ---------------------------------------------------------------------------
# the break-even index from the quotient's parity against the bisection


def _bisected_entries(target):
    """``_best_entries`` as it was when it bisected each family's break-even
    index over k in [1, a], one new atom and one comparison per probe."""
    cursor = ConvergentCursor(target)
    seeded = False
    while True:
        pa, pb, qa, qb = cursor.state
        row = cursor.advance()
        if row is None:
            if not seeded:
                yield 1, 0
            return
        base = _Atom(target, pb, qb)
        lo, hi = 1, row.a
        while lo < hi:
            mid = (lo + hi) // 2
            if _cmp_atoms(_Atom(target, pa + mid * pb, qa + mid * qb), base) < 0:
                hi = mid
            else:
                lo = mid + 1
        if not seeded:
            seeded = True
            if lo >= 2:
                yield 1, 0
        for k in range(lo, row.a + 1):
            yield qa + k * qb, pa + k * pb


def _entries_up_to(entries, cap):
    return list(takewhile(lambda e: e[0] <= cap, entries))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_parity_break_even_matches_bisection_on_bits_targets(seed):
    cap = 10 ** 12
    got = _entries_up_to(_best_entries(BitsTarget(seed, 0)), cap)
    assert got == _entries_up_to(_bisected_entries(BitsTarget(seed, 0)), cap)


# small quotients, and large even and odd ones whose families hold up to 10^15
# entries: the comparison stops inside the first large family it reaches
quotients = st.one_of(
    st.integers(1, 12), st.integers(10 ** 6, 10 ** 6 + 3), st.integers(10 ** 15, 10 ** 15 + 3))


@settings(max_examples=100, deadline=None)
@given(period=st.lists(quotients, min_size=1, max_size=8))
def test_parity_break_even_matches_bisection_on_large_quotients(period):
    def target():
        return CFTarget(repr(period), lambda n: period[(n - 1) % len(period)])

    got = list(islice(_best_entries(target()), 300))
    assert got == list(islice(_bisected_entries(target()), 300))


def test_parity_break_even_matches_bisection_on_rationals(monkeypatch):
    # every p/q with q < 80, whose last quotients give the terminal ties
    # 2k = alpha - s, as 3/4 = [0; 1, 2, 1] does at 1/2 against 1/1; the rule
    # compares once per even quotient and never for an odd one
    calls = []

    def counted(u, v):
        calls.append(1)
        return _cmp_atoms(u, v)

    for q in range(1, 80):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            want = list(_bisected_entries(RationalTarget(x)))
            with monkeypatch.context() as m:
                m.setattr(approx_search, "_cmp_atoms", counted)
                calls.clear()
                got = list(_best_entries(RationalTarget(x)))
            assert got == want, x
            cursor = ConvergentCursor(RationalTarget(x))
            evens = 0
            while (row := cursor.advance()) is not None:
                evens += row.a % 2 == 0
            assert len(calls) == evens, x
    assert (2, 1) not in list(_best_entries(RationalTarget(Fraction(3, 4))))


# ---------------------------------------------------------------------------
# the best entry at a cap, read off the cap's family, against the table


def _assert_best_at_is_the_table(make_target, cap):
    with _recorded() as log:
        got = _outcome(_best_at, make_target(), cap)
    with _recorded() as ref_log:
        want = _outcome(_table_best_at, _BestTable(make_target()), cap)
    assert got == want, cap
    assert log == ref_log, cap


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10 ** 6), cap=st.one_of(st.integers(1, 100), st.integers(1, 10 ** 12)))
def test_best_at_matches_the_table_on_bits_targets(seed, cap):
    _assert_best_at_is_the_table(lambda: BitsTarget(seed, 0), cap)


@settings(max_examples=200, deadline=None)
@given(period=st.lists(quotients, min_size=1, max_size=8),
       j=st.integers(0, 299), off=st.integers(0, 10 ** 40))
def test_best_at_matches_the_table_on_large_quotients(period, j, off):
    # a cap in [q_j, q_{j+1}) for the j-th and next entries, so the table
    # holds at most 301 entries even inside a family of 10^15: with j at a
    # convergent the cap falls below the next family's break-even index
    def target():
        return CFTarget(repr(period), lambda n: period[(n - 1) % len(period)])

    entries = list(islice(_best_entries(target()), j + 2))
    lo, hi = entries[j][0], entries[j + 1][0]
    _assert_best_at_is_the_table(target, lo + off % (hi - lo))


def test_best_at_matches_the_table_on_rationals():
    # every p/q with q < 80 at every cap where the answer or the families
    # read can change: each entry's denominator, the one below it, and past q
    for q in range(1, 80):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            x = Fraction(p, q)
            dens = [d for d, _ in _best_entries(RationalTarget(x))]
            for cap in sorted({c for d in dens for c in (d - 1, d)} - {0} | {q + 1}):
                _assert_best_at_is_the_table(lambda: RationalTarget(x), cap)
    assert _best_at(RationalTarget(Fraction(0)), 5) == (1, 0)


# ---------------------------------------------------------------------------
# the lcm pass on compared atoms against the Fraction round trip


def _fraction_lcm_opt(targets, lcm_cap, enum_cap):
    """``_lcm_opt`` as it was when each kept D's nearest multiples came back
    as reduced ``Fraction``s and the point's error was built on fresh atoms."""
    chain, last, ties = [], None, set()
    for dd in _lcm_scan(targets, lcm_cap, enum_cap):
        near = [[a.frac for a in _nearest_multiples(t, dd)] for t in targets]
        ev = ErrVal([_atom(t, m[0]) for t, m in zip(targets, near)])
        c = ev.compare(last) if last is not None else -1
        if c < 0:
            last = ev
            chain.append(tuple((a.q, a.p) for a in ev.atoms))
            ties = set()
        if c <= 0:
            ties.update(product(*near))
        if ev.champion().exact == 0:
            break
    return chain, ties


def _certified_lcm(route, x, cap):
    """A pass's records as ``records`` certifies them, and its tie set."""
    targets = tuple(t.clone() for t in x)
    chain, ties = route(targets, cap, DEFAULT_ENUM_CAP)
    recs = []
    for rec in chain:
        ev = _record_err(targets, rec)
        recs.append((ev.point, ev.certified_interval(), _record_height(rec, HeightKind.LCM)))
    return recs, ties


LCM_CASES = [
    (sample_uniform(seed, d), cap)
    for seed in range(40) for d in (2, 3) for cap in (50, 3000, 10 ** 5)
] + [((RationalTarget(Fraction(1, 3)), RationalTarget(Fraction(2, 7) + Fraction(1, 10 ** 9))),
      10 ** 4)]


def test_lcm_pass_on_compared_atoms_keeps_the_fraction_round_trip():
    for x, cap in LCM_CASES:
        with _recorded() as log:
            got = _certified_lcm(approx_search._lcm_opt, x, cap)
        with _recorded() as ref_log:
            want = _certified_lcm(_fraction_lcm_opt, x, cap)
        assert got == want, (x, cap)
        assert log == ref_log, (x, cap)
        recs, ties = got
        assert recs[-1][2] <= HeightValue(cap)
        assert fast_best(x, Budget(HeightKind.LCM, HeightValue(cap))).point == _lex_min(ties)
