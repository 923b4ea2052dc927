"""Best rational approximation under a height budget.

Two independent routes compute the same answer: a certified brute-force
enumeration over denominator tuples, and a fast route built on per-coordinate
best-approximation tables.  Both resolve every comparison exactly: floating
point only prefilters, and the winner set plus tie-break order come from
interval refinement or rational arithmetic.  Every search checks its
arguments in one front door, ``_search``.

The exact phase has one candidate rule and one tie rule.  A coordinate's
candidates at q are the reduced fractions p/q with p one of the two integers
nearest q*x (``_coord_options``).  Over tuples within the budget, the ties of
the optimum E* are every point of candidates within E*: such a point is
admissible, so it cannot beat E* (``_collect_ties``).

Record chains under max, prod and prod_root, and every one-coordinate chain,
come from one frontier walk over the per-coordinate tables, which moves the
coordinates that tie the max-norm error; ``fast_best``'s product optimum is
that walk's last record.  The walks run on integers: a table entry is a pair
(q, p), a record is each coordinate's (q, p) plus the index of its champion,
and a certified error (``ErrVal``) is built only for a record that a caller
returns or certifies.

``fast_best`` returns the lex-min tie, so under max, and under every kind
at d = 1, it needs no tie set: its answer is each coordinate's simplest
fraction within the optimum's error E* of x_i, found by a continued-fraction
descent and certified against the optimum, at a cost independent of the cap.
Product ties still come from a float scan over each coordinate's
denominators.

Under the lcm height a point whose height divides D has coordinates in
(1/D)Z, so its best choice at D is the nearest multiples round(D*x_i)/D.  One
pass certifies those points at the D that a chunked float scan over
D = 1..cap keeps; it yields the lcm records, hence the optimum, and the set of
points that tie the optimum, from which ``fast_best`` takes its answer.

Tie-break of ``fast_best`` and ``brute_force_best``: smallest numerator
vector (lexicographic), then smallest denominator vector.  A point of
``records`` is not tie-broken: it is a witness of the record's certified
error at the record's height.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

from .cf_engine import ConvergentCursor
from .errors import CapExceededError, PrecisionExhaustedError, UnboundedSearchError
from .heights import HeightKind, HeightValue, floor_pow, height, height_of_dens
from .numerics import Interval, RealTarget, precisions, refine

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ENUM_CAP = 10 ** 7
_CHUNK = 500_000
# certified record errors: relative width <= 2^-40 and bounded away from 0
_REL_WIDTH_BITS = 40
# absorb float rounding slop in prefilters; exact phase re-decides everything
_SLOP = 1e-13
# start precision of certified error intervals and of the float prefilters
_CERT_BITS = 192
# largest denominator and numerator of a counting tau: exact powers grow with
# its terms, and past these bounds a count at cap 10 or a box probe can hang
TAU_MAX_DEN, TAU_MAX_NUM = 1000, 10 ** 4
# a record of a walk as integer keys: each coordinate's (q, p), and the index
# of the coordinate whose error is the record's max-norm error (its champion)
_Record = Tuple[Tuple[Tuple[int, int], ...], int]


@dataclass(frozen=True)
class Budget:
    kind: HeightKind
    bound: HeightValue

    def __post_init__(self) -> None:
        _check_budget(self.kind, self.bound)


@dataclass(frozen=True)
class ApproxRecord:
    point: Tuple[Fraction, ...]
    error: Interval
    height: HeightValue


# ---------------------------------------------------------------------------
# certified error atoms


class _Atom:
    """|target - p/q| as a refinable certified quantity, for integers p and
    q > 0; p/q need not be in lowest terms.

    ``interval(bits)`` gives the distance interval as integer ends
    (ln, ld, un, ud), the error lying in [ln/ld, un/ud] with ld, ud > 0, so
    comparisons cross-multiply and never normalise by a gcd.  The ends are
    cached against the identity of the target's enclosure they were computed
    from: ``RealTarget.enclosure`` returns the same object until it refines.
    """

    __slots__ = ("target", "p", "q", "exact", "_enc", "_ends")

    def __init__(self, target: RealTarget, p: int, q: int) -> None:
        self.target = target
        self.p, self.q = p, q
        ev = target.exact_value
        self.exact = abs(ev - Fraction(p, q)) if ev is not None else None
        self._enc: Optional[Interval] = None
        if self.exact is not None:
            n, d = self.exact.numerator, self.exact.denominator
            self._ends = (n, d, n, d)

    @property
    def frac(self) -> Fraction:
        return Fraction(self.p, self.q)

    def interval(self, bits: int) -> Tuple[int, int, int, int]:
        if self.exact is not None:
            return self._ends
        enc = refine(self.target, min(bits, self.target.budget))
        if enc is not self._enc:
            self._enc = enc
            self._ends = _distance_ends(enc, self.p, self.q)
        return self._ends

    def float_bounds(self) -> Tuple[float, float]:
        ln, ld, un, ud = self.interval(_CERT_BITS)
        # int / int is correctly rounded, as float() of the Fraction is
        lo = max(0.0, math.nextafter(ln / ld, -math.inf))
        return lo, math.nextafter(un / ud, math.inf)

    @property
    def budget(self) -> int:
        return 0 if self.exact is not None else self.target.budget


def _distance_ends(enc: Interval, p: int, q: int) -> Tuple[int, int, int, int]:
    """Integer ends of ``enc.distance(p/q)``: for enc = [a/b, c/d] the signed
    ends are (a*q - p*b)/(b*q) and (c*q - p*d)/(d*q), split into the same
    three cases."""
    a, b = enc.lower.numerator, enc.lower.denominator
    c, d = enc.upper.numerator, enc.upper.denominator
    lo, hi = a * q - p * b, c * q - p * d
    if lo >= 0:
        return lo, b * q, hi, d * q
    if hi <= 0:
        return -hi, d * q, -lo, b * q
    # straddling: [0, max(-lo, hi)], the common factor q cancelling
    if -lo * d >= hi * b:
        return 0, 1, -lo, b * q
    return 0, 1, hi, d * q


def _cmp_atoms(u: _Atom, v: _Atom) -> int:
    """Certified three-way comparison of two error atoms, on integer
    cross-products of their ends."""
    if u.exact is not None and v.exact is not None:
        return (u.exact > v.exact) - (u.exact < v.exact)
    if u.exact is None and v.exact is None and u.target.key == v.target.key:
        p, q, r, s = u.p, u.q, v.p, v.q
        ps, rq = p * s, r * q
        if ps == rq:
            return 0
        # |x-a| vs |x-b| for a != b is decided by x against the midpoint
        # m = (p*s + r*q) / (2*q*s) of a = p/q and b = r/s
        u_low = ps < rq
        m_num, m_den = ps + rq, 2 * q * s
        target = u.target
        for bits in precisions(64, target.budget):
            e = refine(target, bits)
            if e.upper.numerator * m_den < m_num * e.upper.denominator:
                return -1 if u_low else 1
            if e.lower.numerator * m_den > m_num * e.lower.denominator:
                return 1 if u_low else -1
        raise PrecisionExhaustedError(
            f"cannot separate errors of {u.frac} and {v.frac} against {target.key}"
        )
    # distinct underlying reals: refinement race
    for bits in precisions(128, max(u.budget, v.budget)):
        uln, uld, uun, uud = u.interval(bits)
        vln, vld, vun, vud = v.interval(bits)
        if uun * vld < vln * uud:
            return -1
        if vun * uld < uln * vud:
            return 1
    raise PrecisionExhaustedError(
        "refinement race undecided between "
        f"|{u.target.key} - {u.frac}| and |{v.target.key} - {v.frac}|"
    )


def _tied(atoms: Sequence[_Atom]) -> List[int]:
    """Coordinates whose error equals the max-norm error of ``atoms``,
    champion first."""
    tied = [0]
    for i in range(1, len(atoms)):
        c = _cmp_atoms(atoms[i], atoms[tied[0]])
        if c > 0:
            tied = [i]
        elif c == 0:
            tied.append(i)
    return tied


class ErrVal:
    """Certified max-norm error of one candidate point."""

    __slots__ = ("atoms", "_champ")

    def __init__(self, targets: Sequence[RealTarget], point: Sequence[Fraction]) -> None:
        self.atoms = tuple(_Atom(t, f.numerator, f.denominator) for t, f in zip(targets, point))
        self._champ: Optional[int] = None

    @classmethod
    def from_atoms(cls, atoms: Sequence[_Atom], champ: Optional[int] = None) -> "ErrVal":
        """The error of the point of ``atoms``, reusing their cached ends;
        ``champ`` is the champion's index, when a walk already certified it."""
        ev = cls.__new__(cls)
        ev.atoms = tuple(atoms)
        ev._champ = champ
        return ev

    @property
    def point(self) -> Tuple[Fraction, ...]:
        return tuple(a.frac for a in self.atoms)

    def champion(self) -> _Atom:
        if self._champ is None:
            self._champ = _tied(self.atoms)[0]
        return self.atoms[self._champ]

    def record(self) -> "_Record":
        """This error's point as a walk record."""
        self.champion()
        return tuple((a.q, a.p) for a in self.atoms), self._champ

    def interval(self, bits: int) -> Interval:
        ends = [a.interval(bits) for a in self.atoms]
        ln, ld, un, ud = ends[0]
        for a, b, c, d in ends[1:]:
            if a * ld > ln * b:
                ln, ld = a, b
            if c * ud > un * d:
                un, ud = c, d
        return Interval(Fraction(ln, ld), Fraction(un, ud))

    def compare(self, other: "ErrVal") -> int:
        return _cmp_atoms(self.champion(), other.champion())

    def certified_interval(self) -> Interval:
        budget = max((a.budget for a in self.atoms), default=0)
        for bits in precisions(_CERT_BITS, budget):
            iv = self.interval(bits)
            if iv.lower == iv.upper:
                return iv
            if iv.lower > 0 and iv.width <= iv.lower / (1 << _REL_WIDTH_BITS):
                return iv
        if iv.lower > 0:
            return iv  # the budget ran out: the last interval, bounded away from 0
        raise PrecisionExhaustedError(
            f"error interval at {self.point} still touches 0 at {budget} bits"
        )


def _neighbours(target: RealTarget, q: int) -> Tuple[int, int]:
    """The two integers nearest q*x, certified.

    When q*x is an exact integer k the pair is (k-1, k): k is nearest and the
    tied second place goes to the smaller integer.
    """
    ev = target.exact_value
    if ev is not None:
        t = ev * q
        if t.denominator == 1:
            return t.numerator - 1, t.numerator
        f = t.numerator // t.denominator
        return f, f + 1
    for bits in precisions(64, target.budget):
        e = refine(target, bits)
        flo = math.floor(e.lower * q)
        if flo == math.floor(e.upper * q):
            return flo, flo + 1
    raise PrecisionExhaustedError(f"cannot certify floor({q} * {target.key})")


def _nearest_multiples(target: RealTarget, q: int) -> List[Fraction]:
    """The multiples of 1/q nearest x, certified: both when q*x is a half-integer."""
    lower, upper = (_Atom(target, p, q) for p in _neighbours(target, q))
    c = _cmp_atoms(lower, upper)
    return [a.frac for a, near in ((lower, c <= 0), (upper, c >= 0)) if near]


# ---------------------------------------------------------------------------
# per-coordinate best-approximation table


def _best_entries(target: RealTarget) -> Iterator[Tuple[int, int]]:
    """Best approximations p/q of one coordinate as pairs (q, p), in
    increasing q.

    Each family of intermediate fractions (pa + k*pb)/(qa + k*qb), k <= a,
    between the convergents pa/qa = p_{n-1}/q_{n-1} and pb/qb = p_n/q_n
    starts at the break-even index k*: the smallest k whose fraction is
    strictly closer to x than pb/qb.

    k* follows from the parity of a = a_{n+1} (the half-quotient rule,
    Khinchin, *Continued Fractions*, ch. II).  Let alpha = x_{n+1} be the
    complete quotient, so a = floor(alpha), let s = qa/qb in [0, 1] and
    delta = |qb*x - pb|.  Then |qa*x - pa| = alpha*delta, so the fraction at
    k has |q*x - p| = (alpha - k)*delta with q = qa + k*qb, and it beats
    pb/qb exactly when (alpha - k)*qb < qa + k*qb, that is when
    2k > alpha - s.  As alpha - s lies in [a - 1, a + 1), every k >= (a+1)/2
    beats and every k <= (a-1)/2 does not:

    - odd a: k* = (a + 1)/2, with no comparison;
    - even a: k* = a/2 if the fraction at a/2 beats pb/qb, else a/2 + 1,
      decided by one certified comparison.

    A tie 2k = alpha - s needs a rational alpha, so a rational x (as for
    3/4 = [0; 1, 2, 1], whose 1/2 lies as far from it as 1/1), and counts as
    not beating: the comparison is strict.

    The 0/1 seed is a best approximation unless the first family's 1/1
    already is one (k* = 1); the target 0 has no partial quotient, and 0/1
    is its only entry.
    """
    cursor = ConvergentCursor(target)
    seeded = False
    while True:
        pa, pb, qa, qb = cursor.state
        row = cursor.advance()
        if row is None:
            if not seeded:
                yield 1, 0
            return
        a = row.a
        k_star = (a + 1) // 2
        if a % 2 == 0:
            half = _Atom(target, pa + k_star * pb, qa + k_star * qb)
            if _cmp_atoms(half, _Atom(target, pb, qb)) >= 0:
                k_star += 1
        if not seeded:
            seeded = True
            if k_star >= 2:
                yield 1, 0
        # consecutive convergents have pa*qb - pb*qa = +-1, so these are reduced
        for k in range(k_star, a + 1):
            yield qa + k * qb, pa + k * pb


_END = (math.inf, None)


class _BestTable:
    """The entries of ``_best_entries`` read so far, up to the largest cap asked.

    Entries (q, p) of reduced fractions p/q have strictly increasing
    denominators and strictly decreasing certified errors; every best
    approximation of the first kind appears.
    """

    def __init__(self, target: RealTarget) -> None:
        self.entries: List[Tuple[int, int]] = []
        self.dens: List[int] = []  # the entries' denominators, for bisection
        self._source = _best_entries(target)
        self._ahead: Optional[Tuple] = None  # the first entry past the cap, once read

    def extend_to(self, den_cap: int) -> None:
        if self._ahead is None:
            self._ahead = next(self._source, _END)
        while self._ahead[0] <= den_cap:
            self.entries.append(self._ahead)
            self.dens.append(self._ahead[0])
            self._ahead = next(self._source, _END)

    def best_at(self, den_cap: int) -> Tuple[int, int]:
        self.extend_to(den_cap)
        idx = bisect_right(self.dens, den_cap) - 1
        if idx < 0:
            raise ValueError("no entry at denominator cap >= 1")
        return self.entries[idx]

    def dens_up_to(self, den_cap: int) -> List[int]:
        self.extend_to(den_cap)
        return self.dens[:bisect_right(self.dens, den_cap)]


# ---------------------------------------------------------------------------
# budget plumbing


def _validate_targets(x: Sequence[RealTarget]) -> Tuple[RealTarget, ...]:
    """Fresh copies of the targets: a certified interval then depends only on
    the call's arguments, and the caller's targets are never refined."""
    targets = tuple(x)
    if not targets:
        raise ValueError("need at least one coordinate")
    for t in targets:
        if not isinstance(t, RealTarget):
            raise TypeError("coordinates must be RealTarget instances")
    return tuple(t.clone() for t in targets)


def _check_budget(kind: HeightKind, bound: HeightValue) -> None:
    if not isinstance(kind, HeightKind):
        raise TypeError("kind must be a HeightKind")
    if not isinstance(bound, HeightValue):
        raise TypeError("bound must be a HeightValue")


def _den_cap(kind: HeightKind, bound: HeightValue, d: int) -> int:
    """Largest admissible scalar cap implied by the height bound.

    max/lcm and every d=1 case bound single denominators; prod bounds the
    product; prod with the d-th root comparison bounds the product by
    base**(d/root).
    """
    _check_budget(kind, bound)
    return floor_pow(bound.base, Fraction(d if kind is HeightKind.PROD_ROOT else 1, bound.root))


def _search(x: Sequence[RealTarget], kind: HeightKind, bound: HeightValue):
    """The checked arguments of a search: fresh copies of the targets, and
    the scalar cap of ``_den_cap``."""
    targets = _validate_targets(x)
    if kind is HeightKind.MIN:
        raise UnboundedSearchError("min height bounds only one coordinate")
    return targets, _den_cap(kind, bound, len(targets))


# ---------------------------------------------------------------------------
# denominator grids (brute force)


def _grid_for(kind: HeightKind, d: int, cap: int, enum_cap: int) -> np.ndarray:
    """Every denominator tuple that the budget admits, in lexicographic order.

    The grid grows one column at a time: a row whose running key is k takes
    each next denominator in 1..cap // k.  Under prod and prod_root the key is
    the row's running product, so the rows are the tuples with product
    <= cap.  Under max and lcm the key is 1, so the rows are the tuples with
    every denominator <= cap, and under lcm a final mask keeps those with
    lcm <= cap.  A column with more than enum_cap rows raises
    CapExceededError.
    """
    import numpy as np

    if cap > enum_cap:
        raise CapExceededError(f"{cap} denominators exceed enumeration cap {enum_cap}")
    product = kind in (HeightKind.PROD, HeightKind.PROD_ROOT)
    rows = np.arange(1, cap + 1, dtype=np.int64).reshape(-1, 1)
    for _ in range(d - 1):
        keys = rows.prod(axis=1) if product else np.ones(len(rows), np.int64)
        counts = cap // keys
        total = int(counts.sum())
        if total > enum_cap:
            raise CapExceededError(f"denominator grid exceeds enumeration cap {enum_cap}")
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        new_col = np.arange(1, total + 1, dtype=np.int64) - starts
        rows = np.column_stack([np.repeat(rows, counts, axis=0), new_col])
    if kind is HeightKind.LCM:
        lcm = rows[:, 0]
        for j in range(1, d):
            lcm = np.lcm(lcm, rows[:, j])
        rows = rows[lcm <= cap]
    return rows


# ---------------------------------------------------------------------------
# float prefilter


def _coord_float_bounds(targets: Sequence[RealTarget]):
    lows, highs = [], []
    for t in targets:
        e = refine(t, min(_CERT_BITS, t.budget))
        lows.append(math.nextafter(float(e.lower), -math.inf))
        highs.append(math.nextafter(float(e.upper), math.inf))
    return lows, highs


def _filter_bounds(qcol: np.ndarray, x_lo: float, x_hi: float):
    """Outer float bounds on the best reduced-candidate error at each den.

    The candidates are p = f, f+1, f+2 with f = floor(fl(q*x_lo)); for x in
    [0, 1) and q < 2^48 the integers nearest q*x are among them.  The best
    reduced one need not be the nearest, so each candidate is bounded.
    Soundness (Goldberg 1991; u = 2^-53): p and q are exact floats, so
    a = fl(p/q) is within u*|p/q| of p/q, and fl(a - x_b) within u*|a - x_b|
    of a - x_b for an endpoint x_b.  A computed distance is thus off by u
    times itself, which _SLOP (about 900u) absorbs with the roundings of the
    slack arithmetic, plus (u + u^2)*|p/q| <= 2u*|a|.  That absolute term is
    about 1e-7 of an error of 1e-9 at |a| ~ 1/2, far beyond _SLOP, so it gets
    its own slack 2^-50*|a|.  1e-300 covers underflow.
    """
    import numpy as np

    f = np.floor(qcol * x_lo).astype(np.int64)
    qf = qcol.astype(np.float64)
    lo = np.full(len(qcol), np.inf)
    hi = np.full(len(qcol), np.inf)
    # one candidate at a time keeps the temporaries at n, not 3n, floats
    for p in (f, f + 1, f + 2):
        a = p / qf
        dlo = a - x_hi
        dhi = a - x_lo
        clo = np.where(dlo > 0, dlo, np.where(dhi < 0, -dhi, 0.0))
        chi = np.maximum(np.abs(dlo), np.abs(dhi))
        slack = np.abs(a) * 2.0 ** -50
        clo = np.maximum(clo * (1.0 - _SLOP) - slack - 1e-300, 0.0)
        chi = chi * (1.0 + _SLOP) + slack + 1e-300
        valid = np.gcd(p, qcol) == 1
        np.minimum(lo, np.where(valid, clo, np.inf), out=lo)
        np.minimum(hi, np.where(valid, chi, np.inf), out=hi)
    return lo, hi


def _lcm_bounds(targets: Sequence[RealTarget], ds: np.ndarray):
    """Outer float bounds on max_i ||D*x_i||/D, the error of D's nearest point.

    Soundness (Goldberg 1991; u = 2^-53), for x_i in [x_lo, x_hi] within
    [0, 1) and an integer D < 2^53: t = fl(D*x_lo) lies within
    D*(x_hi - x_lo) + u*D of D*x_i, and the distance to the nearest integer
    is 1-Lipschitz, so ||t|| lies within that bound of ||D*x_i||.  t - rint(t)
    is exact (Sterbenz), and dividing ||t|| <= 1/2 by D adds at most u/2.  So
    ||t||/D lies within (x_hi - x_lo) + 3u/2 of the error; the slack's 8u also
    covers the roundings of its own sum and of the final - and +, so hi stays
    strictly above every error, as ``_lcm_scan``'s keep rule needs.
    """
    import numpy as np

    lo = np.zeros(len(ds))
    hi = np.zeros(len(ds))
    for x_lo, x_hi in zip(*_coord_float_bounds(targets)):
        t = ds * x_lo
        err = np.abs(t - np.rint(t)) / ds
        slack = (x_hi - x_lo) + 2.0 ** -50
        np.maximum(lo, err - slack, out=lo)
        np.maximum(hi, err + slack, out=hi)
    return lo, hi


def _phase1(grid: np.ndarray, targets: Sequence[RealTarget]):
    """Outer float bounds on each grid row's error.  A coordinate's bound
    depends only on its denominator, so it is computed once per q and
    gathered by column."""
    import numpy as np

    qs = np.arange(1, int(grid.max()) + 1, dtype=np.int64)
    tuple_lo = np.full(len(grid), -np.inf)
    tuple_hi = np.full(len(grid), -np.inf)
    for j, (x_lo, x_hi) in enumerate(zip(*_coord_float_bounds(targets))):
        lo, hi = _filter_bounds(qs, x_lo, x_hi)
        col = grid[:, j] - 1
        np.maximum(tuple_lo, lo[col], out=tuple_lo)
        np.maximum(tuple_hi, hi[col], out=tuple_hi)
    return tuple_lo, tuple_hi


# ---------------------------------------------------------------------------
# exact phase


def _coord_options(target: RealTarget, q: int) -> List[_Atom]:
    """The reduced p/q with p one of the two integers nearest q*x, certified."""
    return [_Atom(target, p, q) for p in _neighbours(target, q) if math.gcd(p, q) == 1]


def _tuple_best(targets, dens) -> Optional[ErrVal]:
    """The error of each coordinate's better candidate; None if one has none."""
    best = []
    for t, q in zip(targets, dens):
        opts = _coord_options(t, q)
        if not opts:
            return None
        # the two nearest integers give at most two candidates
        best.append(opts[1] if len(opts) == 2 and _cmp_atoms(opts[1], opts[0]) < 0 else opts[0])
    return ErrVal.from_atoms(best)


def _collect_ties(targets, den_tuples: Iterable[Sequence[int]], opt: ErrVal):
    """Every candidate point over the den tuples with opt's error E*: the
    product, per tuple, of each coordinate's candidates within E*.  Both
    callers pass only tuples within the budget (the oracle's grid survivors,
    ``_fast_ties``' product-bounded tuples), and candidates are reduced, so
    these points are admissible; opt is the certified optimum over every
    admissible point, so each of them has error exactly E*.

    A coordinate's kept candidates at q depend only on (coordinate, q), so
    each is certified once and kept for every later tuple that takes q."""
    champ = opt.champion()
    kept_at = [{} for _ in targets]
    points = set()
    for dens in den_tuples:
        kept = []
        for t, q, cache in zip(targets, dens, kept_at):
            fracs = cache.get(q)
            if fracs is None:
                fracs = cache[q] = [
                    a.frac for a in _coord_options(t, q) if _cmp_atoms(a, champ) <= 0
                ]
            if not fracs:
                break
            kept.append(fracs)
        else:
            points.update(iter_product(*kept))
    return points


def _lex_min(points: Iterable[Tuple[Fraction, ...]]) -> Tuple[Fraction, ...]:
    return min(
        points,
        key=lambda pt: (
            tuple(f.numerator for f in pt),
            tuple(f.denominator for f in pt),
        ),
    )


def _finish(targets, kind: HeightKind, point) -> ApproxRecord:
    """The answer's record, certified on fresh copies of the targets: its
    interval depends only on (targets, point), not on the search's refinement."""
    ev = ErrVal([t.clone() for t in targets], point)
    return ApproxRecord(ev.point, ev.certified_interval(), height(ev.point, kind))


# ---------------------------------------------------------------------------
# brute force route


def brute_force_best(
    x: Sequence[RealTarget], budget: Budget, enum_cap: int = DEFAULT_ENUM_CAP
) -> ApproxRecord:
    """Certified exhaustive minimizer of the max-norm error under the budget."""
    targets, cap = _search(x, budget.kind, budget.bound)
    grid = _grid_for(budget.kind, len(targets), cap, enum_cap)
    tuple_lo, tuple_hi = _phase1(grid, targets)
    opt_hi = tuple_hi.min()
    if not math.isfinite(opt_hi):
        raise PrecisionExhaustedError("no admissible candidate point")
    survivors = grid[tuple_lo <= opt_hi].tolist()

    best: Optional[ErrVal] = None
    for dens in survivors:
        ev = _tuple_best(targets, dens)
        if ev is not None and (best is None or ev.compare(best) < 0):
            best = ev
    if best is None:
        raise PrecisionExhaustedError("no admissible candidate point")
    ties = _collect_ties(targets, survivors, best)
    return _finish(targets, budget.kind, _lex_min(ties))


# ---------------------------------------------------------------------------
# fast route


def _qualifying_dens(
    den_cap: int, x_lo: float, x_hi: float, opt_hi_f: float, enum_cap: int
) -> List[int]:
    """Dens <= den_cap whose best candidate might reach error <= opt (floats)."""
    import numpy as np

    if den_cap > enum_cap:
        raise CapExceededError(f"tie scan over {den_cap} denominators exceeds cap")
    qs = np.arange(1, den_cap + 1, dtype=np.int64)
    lo, _ = _filter_bounds(qs, x_lo, x_hi)
    return [int(q) for q in qs[lo <= opt_hi_f * (1.0 + _SLOP) + 1e-300]]


def _fast_ties(targets, cap, opt: ErrVal, enum_cap):
    """Every point whose certified error equals opt's, under prod or prod_root.

    A float scan over each coordinate's denominators keeps those that may
    reach opt, and ``_collect_ties`` certifies the points over their tuples.
    """
    opt_hi_f = opt.champion().float_bounds()[1]
    # opt is the frontier walk's last tuple, so each of its denominators q_i
    # is the smallest one reaching error <= opt in its coordinate.  A tuple
    # tying opt therefore takes at least q_j in every coordinate j, which
    # leaves at most cap * q_i // prod(q) for coordinate i.
    qs = [a.q for a in opt.atoms]
    caps = [cap * q // math.prod(qs) for q in qs]
    xl, xh = _coord_float_bounds(targets)
    den_sets = [
        _qualifying_dens(c, lo, hi, opt_hi_f, enum_cap) for c, lo, hi in zip(caps, xl, xh)
    ]
    d = len(targets)
    tuples: List[Tuple[int, ...]] = []
    visits = 0

    def rec(j: int, prefix: Tuple[int, ...], left: int) -> None:
        nonlocal visits
        visits += 1
        if visits > enum_cap:
            raise CapExceededError("tie candidate tuples exceed enumeration cap")
        if j == d:
            tuples.append(prefix)
            return
        for q in den_sets[j]:
            if q > left:
                break
            rec(j + 1, prefix + (q,), left // q)

    rec(0, (), cap)
    return _collect_ties(targets, tuples, opt)


def _simplest(lo: Fraction, hi: Fraction) -> Fraction:
    """The simplest fraction in [lo, hi], for 0 <= lo <= hi: the smallest
    integer >= lo if it is <= hi, else floor(lo) + 1/s with s the simplest
    fraction in [1/(hi - floor(lo)), 1/(lo - floor(lo))].  It runs as a loop
    on integers: no recursion limit and no gcd per step."""
    a, b, c, e = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    terms: List[int] = []
    while -(-a // b) * e > c:
        f = a // b
        terms.append(f)
        a, b, c, e = e, c - f * e, b, a - f * b
    p, q = -(-a // b), 1
    for f in reversed(terms):
        p, q = f * p + q, p
    return Fraction(p, q)


def _simplest_point(targets, opt: ErrVal) -> Tuple[Fraction, ...]:
    """Each coordinate's simplest fraction within opt's error E* of x_i: the
    lex-min point tying opt when the cap bounds each denominator (the
    argument is in ``fast_best``'s docstring)."""
    champ = opt.champion()
    point = []
    for t in targets:
        for bits in precisions(_CERT_BITS, max(t.budget, champ.budget)):
            x = refine(t, min(bits, t.budget))
            _, _, un, ud = champ.interval(bits)
            e = Fraction(un, ud)
            c = _simplest(max(x.lower - e, Fraction(0)), x.upper + e)
            if _cmp_atoms(_Atom(t, c.numerator, c.denominator), champ) <= 0:
                point.append(c)
                break
        else:
            raise PrecisionExhaustedError(f"cannot certify the simplest tie of {t.key}")
    return tuple(point)


def fast_best(
    x: Sequence[RealTarget], budget: Budget, enum_cap: int = DEFAULT_ENUM_CAP
) -> ApproxRecord:
    """Table-driven minimizer; same contract and output as brute_force_best.

    Under max, and under every kind at d = 1, the optimum takes each
    coordinate's best table entry at the cap, with error E*, and the answer
    is each coordinate's simplest fraction in W_i = [x_i - E*, x_i + E*]:

    - no point beats E*, so the ties are exactly the points whose every
      coordinate lies within E* of x_i, with denominators within the cap;
    - that set is a product over the coordinates, and the lex-min of a
      product is each coordinate's (numerator, denominator) minimum;
    - in a window of nonnegative reals the simplest fraction minimises both
      p and q (Stern-Brocot; Graham, Knuth and Patashnik, section 4.5), so
      its q is at most the optimum's q_i <= cap, and it is admissible;
    - targets lie in [0, 1) and E* <= 1/(cap + 1) (Dirichlet), so no fraction
      with a negative numerator and q <= cap lies within E*, and clamping
      the window at 0 drops nothing;
    - the window taken from enclosures, widened by E*'s upper bound, contains
      W_i, so once its simplest fraction c certifiably lies within E*,
      nothing simpler than c lies in W_i: c is W_i's simplest fraction.

    Product ties at d >= 2 come from a float scan (``_fast_ties``) over the
    frontier walk's optimum, and lcm ties from ``_lcm_opt``.

    Each call works on fresh copies of the targets, so its result depends
    only on its arguments.
    """
    kind = budget.kind
    targets, cap = _search(x, kind, budget.bound)
    if kind is HeightKind.MAX or len(targets) == 1:
        best = [_BestTable(t).best_at(cap) for t in targets]
        opt = ErrVal.from_atoms([_Atom(t, p, q) for t, (q, p) in zip(targets, best)])
        return _finish(targets, kind, _simplest_point(targets, opt))
    if kind is HeightKind.LCM:
        _, ties = _lcm_opt(targets, cap, enum_cap)
    else:
        # the staircase ends at the cheapest tuple reaching the optimum
        opt = _last_record(targets, _frontier(targets, kind, cap, enum_cap))
        ties = _fast_ties(targets, cap, opt, enum_cap)
    if not ties:
        # the optimum's own point must be in the tie set; missing it means a
        # candidate sweep lost a point that the certified comparison keeps
        raise AssertionError("certified optimum lost during tie collection")
    return _finish(targets, kind, _lex_min(ties))


# ---------------------------------------------------------------------------
# record chains


def records(
    x: Sequence[RealTarget],
    kind: HeightKind,
    height_cap: HeightValue,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> List[ApproxRecord]:
    """Maximal chain of best-approximation records up to the height cap.

    Each returned record strictly improves the certified error of everything
    at smaller or equal height; heights strictly increase along the chain.
    A record's point has the record's height and error, but among tied points
    it need not be the lex-min one that ``fast_best`` returns.  Lcm records
    are nearest-multiple points: at height D every coordinate is the multiple
    of 1/D nearest x_i.  They come from the same single pass (``_lcm_opt``)
    that gives ``fast_best`` its lcm optimum and tie set.

    Each call works on fresh copies of the targets, so its result depends
    only on its arguments.
    """
    targets, walk = _record_walk(x, kind, height_cap, enum_cap)
    chain = []
    # each record is certified as the walk reaches it, before its next step
    for rec in walk:
        ev = _record_err(targets, rec)
        chain.append(ApproxRecord(ev.point, ev.certified_interval(), _record_height(rec, kind)))
    return chain


def _record_walk(
    x: Sequence[RealTarget], kind: HeightKind, height_cap: HeightValue, enum_cap: int
) -> Tuple[Tuple[RealTarget, ...], Iterable[_Record]]:
    """The fresh targets of ``records`` and its records, uncertified, as
    ``_Record`` keys; heights (``_record_height``) strictly increase.

    The arguments are checked on the call, before the walk starts; a frontier
    walk runs as it is read.  A record's error (``_record_err``) must be
    taken on the returned targets, which the walk refined.
    """
    targets, cap = _search(x, kind, height_cap)
    for t in targets:
        if t.exact_value is not None:
            raise ValueError(f"record chains need irrational coordinates, got {t.key}")
    if kind is HeightKind.LCM and len(targets) >= 2:
        chain, _ = _lcm_opt(targets, cap, enum_cap)
        return targets, chain
    return targets, _frontier(targets, kind, cap, enum_cap)


def _record_height(rec: _Record, kind: HeightKind) -> HeightValue:
    """A record's height: its fractions are reduced, so it is its point's."""
    return height_of_dens([q for q, _ in rec[0]], kind)


def _record_err(targets, rec: _Record) -> ErrVal:
    """The error of a record's point, its champion as the walk certified it."""
    keys, champ = rec
    return ErrVal.from_atoms([_Atom(t, p, q) for t, (q, p) in zip(targets, keys)], champ)


def _last_record(targets, walk: Iterable[_Record]) -> ErrVal:
    """Error of a record walk's last record: the optimum within its cap."""
    last: Optional[_Record] = None
    for last in walk:
        pass
    if last is None:
        raise PrecisionExhaustedError("no admissible candidate point")
    return _record_err(targets, last)


def _frontier(
    targets, kind: HeightKind, cap: int, enum_cap: int
) -> Iterator[_Record]:
    """Record walk over the per-coordinate ``_BestTable``s.

    Under prod and prod_root the cap bounds the product of the denominators;
    under max, and under lcm at d = 1, it bounds each denominator.  Every
    coordinate starts at its first entry, whose denominator is 1.  Each step
    yields the current tuple as a record, its entries' (q, p) and the index
    of its champion, then moves every coordinate whose error ties the
    max-norm error E to its next entry; under max it then moves every
    coordinate to its best entry at H', the largest denominator now reached.
    The walk stops when the product passes the cap or when a table has no
    entry left within the cap.  An exact zero error ends the walk too: it
    ties every coordinate, and an exact hit is the last entry of its table.
    The ``enum_cap`` guard bounds the steps.

    Only the ties need certified errors: an entry gets an ``_Atom`` when a
    step first compares it, and later steps reuse that atom's cached ends.
    At d = 1 nothing is compared, and the walk is the table up to the cap.

    A table entry is a best approximation of the first kind, so its fraction
    is the nearest reduced fraction at its denominator, and table errors
    strictly decrease.  Entries are reduced, so a step's height is its
    point's (``_record_height``).

    Products: by induction every yielded tuple takes, in each coordinate, the
    smallest table denominator whose error is below the previous tuple's
    error E: coordinates below E stay put, and the tied ones need their next
    entry.  Any tuple with error < E takes at least these denominators in
    every coordinate, so it costs a larger product unless it is this very
    tuple.  Hence each step is the unique cheapest tuple that strictly beats
    its predecessor, i.e. the next record, and the walk lists the
    (product, error) Pareto staircase of the tuples (Kung, Luccio and
    Preparata 1975) in O(sum of table sizes) steps.

    Max: the tuple at height H takes every coordinate's best entry at H, so
    each next entry lies above H, and H' is the largest next denominator
    among the tied coordinates.  Below H' some tied coordinate keeps its
    entry, so the error stays E.  At H' every tied coordinate beats E, since
    table errors strictly decrease, and the others can only improve.  So H'
    is the next record height (Lagarias 1982), and its point is the best
    entry at H' in every coordinate.
    """
    tables = [_BestTable(t) for t in targets]
    for tb in tables:
        tb.extend_to(cap)
    if len(tables) == 1:
        for steps, key in enumerate(tables[0].entries, 1):
            if steps > enum_cap:
                raise CapExceededError("frontier walk exceeds enumeration cap")
            yield (key,), 0
        return
    entries = [tb.entries for tb in tables]
    # a past-the-end denominator of inf stops the walk at an exhausted table
    den_lists = [tb.dens + [math.inf] for tb in tables]
    atoms = [[None] * len(e) for e in entries]
    coords = range(len(tables))
    product = kind in (HeightKind.PROD, HeightKind.PROD_ROOT)
    idx = [0] * len(tables)
    steps = 0
    while True:
        dens = [ds[k] for k, ds in zip(idx, den_lists)]
        if product:
            if math.prod(dens) > cap:
                return
        else:
            top = max(dens)
            if top > cap:
                return
            idx = [bisect_right(ds, top) - 1 for ds in den_lists]
        steps += 1
        if steps > enum_cap:
            raise CapExceededError("frontier walk exceeds enumeration cap")
        for i in coords:
            if atoms[i][idx[i]] is None:
                q, p = entries[i][idx[i]]
                atoms[i][idx[i]] = _Atom(targets[i], p, q)
        tied = _tied([a[k] for k, a in zip(idx, atoms)])
        yield tuple([e[k] for k, e in zip(idx, entries)]), tied[0]
        for i in tied:
            idx[i] += 1


def _lcm_scan(targets, lcm_cap: int, enum_cap: int) -> List[int]:
    """Common denominators D <= cap that may beat every smaller one.

    A D whose lower bound reaches the upper bound of a smaller D cannot beat
    it.  Every other D is kept, which includes every record and every D that
    ties the optimum: upper bounds lie strictly above the errors they bound.
    """
    import numpy as np

    if lcm_cap > enum_cap:
        raise CapExceededError(f"lcm scan over {lcm_cap} denominators exceeds cap {enum_cap}")
    kept = []
    best_hi = math.inf
    for start in range(1, lcm_cap + 1, _CHUNK):
        ds = np.arange(start, min(start + _CHUNK, lcm_cap + 1), dtype=np.int64)
        lo, hi = _lcm_bounds(targets, ds)
        below = np.minimum.accumulate(np.concatenate(([best_hi], hi[:-1])))
        kept.append(ds[lo < below])
        best_hi = min(best_hi, float(hi.min()))
    return np.concatenate(kept).tolist()


def _lcm_opt(targets, lcm_cap: int, enum_cap: int):
    """Lcm-height records up to the cap, and every point that ties the last.

    The best point whose lcm height divides D takes the nearest multiples of
    1/D (Lagarias 1982).  If its lcm is L < D it was already L's best point,
    so each improvement over the denominators that ``_lcm_scan`` keeps is a
    record of lcm height exactly D.

    Ties: let E* be the last record's error and D* its height.  A point of
    error E* has some lcm L <= cap, and E* <= 1/(2*cap) <= 1/(2L), cap's own
    nearest point being that close.  So every coordinate of the point is a
    nearest multiple of 1/L, either neighbour where L*x_i is a half-integer,
    and L's nearest point has error E* too.  The scan keeps L, since
    lo(L) <= E* lies below the upper bound of every smaller D, and L >= D*,
    or D* would not be a strict record.  Hence the ties are the products of
    ``_nearest_multiples`` over D* and over each later D whose point compares
    equal to D*'s: values the walk computes anyway.  An exact zero error ends
    the walk, as nothing beats it and every multiple of D repeats x; its one
    tie is x itself.  The chain holds the records as ``_Record`` keys.
    """
    chain: List[_Record] = []
    last: Optional[ErrVal] = None
    ties = set()
    for dd in _lcm_scan(targets, lcm_cap, enum_cap):
        near = [_nearest_multiples(t, dd) for t in targets]
        ev = ErrVal(targets, [m[0] for m in near])
        c = ev.compare(last) if last is not None else -1
        if c < 0:
            last = ev
            chain.append(ev.record())
            ties = set()
        if c <= 0:
            ties.update(iter_product(*near))
        if ev.champion().exact == 0:
            break
    return chain, ties


def record_csv_rows(chain: Sequence[ApproxRecord]) -> List[Tuple]:
    rows = []
    for rec in chain:
        row = [rec.height.base, rec.height.root, str(rec.error.lower), str(rec.error.upper)]
        for f in rec.point:
            row.extend([f.numerator, f.denominator])
        rows.append(tuple(row))
    return rows


# ---------------------------------------------------------------------------
# solution counting


def _err_beats_power(atom: _Atom, base: int, tau: Fraction, r: int) -> bool:
    """Certified check of |x - p/q| < base**(-tau), given r = floor(base**tau).

    With the error in [n/m, n'/m'], an end at most 1/(r+1) lies below
    base**(-tau) and an end at least 1/r does not.  Only an end whose
    reciprocal lies strictly between r and r+1 is raised to b for tau = a/b:
    true once n'**b * base**a < m'**b, false once n**b * base**a >= m**b."""
    a, b = tau.numerator, tau.denominator
    target = atom.target
    for bits in precisions(64, target.budget):
        ln, ld, un, ud = atom.interval(bits)
        if ud >= (r + 1) * un or (ud > r * un and un ** b * base ** a < ud ** b):
            return True
        if ld <= r * ln or (ld < (r + 1) * ln and ln ** b * base ** a >= ld ** b):
            return False
    raise PrecisionExhaustedError(
        f"cannot decide |{target.key} - {atom.frac}| vs {base}^(-{tau})"
    )


def _legendre_threshold(tau: Fraction) -> int:
    """Smallest q with q^(tau-2) >= 2; above it solutions are convergents."""
    e = tau - 2
    t = floor_pow(2, 1 / e)
    return t if t ** e.numerator >= 2 ** e.denominator else t + 1


def _convergents(target: RealTarget, q_lo: int, q_hi: int) -> Iterator[Fraction]:
    """The convergents p/q of the target with q_lo <= q <= q_hi, in order."""
    cursor = ConvergentCursor(target)
    while True:
        row = cursor.advance()
        if row is None or row.q > q_hi:
            return
        if row.q >= q_lo:
            yield Fraction(row.p, row.q)


def _count_d1(target: RealTarget, tau: Fraction, cap: int, enum_cap: int) -> List[Fraction]:
    sols: List[Fraction] = []
    q0 = _legendre_threshold(tau) if tau > 2 else cap + 1
    work = 0
    for q in range(1, min(q0, cap + 1)):
        got = _solution_ps(target, q, q, tau, floor_pow(q, tau))
        work += max(len(got), 1)
        if work > enum_cap:
            raise CapExceededError("direct window enumeration exceeds cap")
        sols.extend(Fraction(p, q) for p in got)
    if q0 <= cap:
        for c in _convergents(target, q0, cap):
            q = c.denominator
            if _err_beats_power(_Atom(target, c.numerator, q), q, tau, floor_pow(q, tau)):
                sols.append(c)
    return sols


def _min_witness_points(
    targets, tau: Fraction, cap: int, aux_cap: int, enum_cap: int
):
    """Lower-bound witness set for the min-height solution count.

    A witness at coordinate i is a d=1 solution with q <= cap; the other
    coordinates take their first convergent with denominator >= q that
    certifiably beats q**(-tau).  Witnesses without such partners are dropped,
    keeping the count an honest lower bound.
    """
    points = set()
    for i, t in enumerate(targets):
        for w in _count_d1(t, tau, cap, enum_cap):
            point = []
            for j, other in enumerate(targets):
                c = w if j == i else _aux_partner(other, w.denominator, tau, aux_cap)
                if c is None:
                    break
                point.append(c)
            else:
                points.add(tuple(point))
    return points


def _aux_partner(target: RealTarget, q_min: int, tau: Fraction, aux_cap: int):
    r = floor_pow(q_min, tau)
    for c in _convergents(target, q_min, aux_cap):
        if _err_beats_power(_Atom(target, c.numerator, c.denominator), q_min, tau, r):
            return c
    return None


def check_tau_terms(tau: Fraction) -> None:
    """Reject a counting tau whose denominator or numerator is past its bound."""
    if tau.denominator > TAU_MAX_DEN or tau.numerator > TAU_MAX_NUM:
        raise ValueError(
            f"tau must have denominator <= {TAU_MAX_DEN} and numerator <= {TAU_MAX_NUM}, got {tau}"
        )


def solutions_count(
    x: Sequence[RealTarget],
    kind: HeightKind,
    tau: Fraction,
    height_cap: HeightValue,
    aux_cap: Optional[int] = None,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> int:
    """Number of distinct points with height <= cap and error < height**(-tau).

    For kind=min the reported value is a certified lower bound built from
    per-coordinate witnesses; every other kind is counted exhaustively.
    """
    targets = _validate_targets(x)
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    check_tau_terms(tau)
    d = len(targets)
    cap = _den_cap(kind, height_cap, d)
    if d == 1:
        return len(set(_count_d1(targets[0], tau, cap, enum_cap)))
    if kind is HeightKind.MIN:
        if aux_cap is None:
            aux_cap = max(cap, 10 ** 9)
        return len(_min_witness_points(targets, tau, cap, aux_cap, enum_cap))
    grid = _grid_for(kind, d, cap, enum_cap)
    count = 0
    radii = {}  # one radius per distinct height, not per tuple
    for dens in grid.tolist():
        hv = height_of_dens(dens, kind)
        # error < (base^(1/root))^(-tau) = base^(-tau/root)
        htau = tau / hv.root
        r_den = radii.get(hv)
        if r_den is None:
            r_den = radii[hv] = floor_pow(hv.base, htau)
        n = 1
        for t, q in zip(targets, dens):
            n *= len(_solution_ps(t, q, hv.base, htau, r_den))
            if not n:
                break
        count += n
    return count


def _solution_ps(target: RealTarget, q: int, hbase: int, tau: Fraction, r_den: int) -> List[int]:
    """Numerators p coprime to q with |x - p/q| < hbase**(-tau), certified;
    ``r_den`` is ``floor_pow(hbase, tau)``."""
    e = refine(target, min(128, target.budget))
    # floor_pow rounds down, so r >= hbase**(-tau): a solution's p/q lies within r
    # of x, hence in (e.lower - r, e.upper + r), and p inside the scanned range
    r = Fraction(1, r_den)
    out = []
    for p in range(math.floor(q * (e.lower - r)), math.ceil(q * (e.upper + r)) + 1):
        if math.gcd(p, q) != 1:
            continue
        if _err_beats_power(_Atom(target, p, q), hbase, tau, r_den):
            out.append(p)
    return out
