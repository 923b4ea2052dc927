"""Best rational approximation under a height budget.

Two independent routes compute the same answer: a certified brute-force
enumeration over denominator tuples, and a fast route built on per-coordinate
best-approximation tables.  Both resolve every comparison exactly: floating
point only prefilters, and the winner set plus tie-break order come from
interval refinement or rational arithmetic.

Record chains under max, prod and prod_root, and every one-coordinate chain,
come from one frontier walk over the per-coordinate tables, which moves the
coordinates that tie the max-norm error; ``fast_best``'s product optimum is
that walk's last record.

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
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .cf_engine import ConvergentCursor
from .errors import CapExceededError, PrecisionExhaustedError, UnboundedSearchError
from .heights import HeightKind, HeightValue, height, height_of_dens, iroot
from .numerics import Interval, RealTarget, precisions, refine

DEFAULT_ENUM_CAP = 10 ** 7
_CHUNK = 500_000
# certified record errors: relative width <= 2^-40 and bounded away from 0
_REL_WIDTH_BITS = 40
# absorb float rounding slop in prefilters; exact phase re-decides everything
_SLOP = 1e-13


@dataclass(frozen=True)
class Budget:
    kind: HeightKind
    bound: HeightValue

    def __post_init__(self) -> None:
        if not isinstance(self.kind, HeightKind):
            raise TypeError("kind must be a HeightKind")
        if not isinstance(self.bound, HeightValue):
            raise TypeError("bound must be a HeightValue")


@dataclass(frozen=True)
class ApproxRecord:
    point: Tuple[Fraction, ...]
    error: Interval
    height: HeightValue


# ---------------------------------------------------------------------------
# certified error atoms


class _Atom:
    """|target - frac| as a refinable certified quantity."""

    __slots__ = ("target", "frac", "exact")

    def __init__(self, target: RealTarget, frac: Fraction) -> None:
        self.target = target
        self.frac = frac
        ev = target.exact_value
        self.exact = abs(ev - frac) if ev is not None else None

    def interval(self, bits: int) -> Interval:
        if self.exact is not None:
            return Interval(self.exact, self.exact)
        return refine(self.target, min(bits, self.target.budget)).distance(self.frac)

    def float_bounds(self, bits: int = 192) -> Tuple[float, float]:
        iv = self.interval(bits)
        lo = max(0.0, math.nextafter(float(iv.lower), -math.inf))
        return lo, math.nextafter(float(iv.upper), math.inf)

    @property
    def budget(self) -> int:
        return 0 if self.exact is not None else self.target.budget


def _cmp_atoms(u: _Atom, v: _Atom) -> int:
    """Certified three-way comparison of two error atoms."""
    if u.exact is not None and v.exact is not None:
        return (u.exact > v.exact) - (u.exact < v.exact)
    if u.exact is None and v.exact is None and u.target.key == v.target.key:
        if u.frac == v.frac:
            return 0
        # |x-a| vs |x-b| for a != b is decided by x against the midpoint
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
    # distinct underlying reals: refinement race
    for bits in precisions(128, max(u.budget, v.budget)):
        iu = u.interval(bits)
        iv = v.interval(bits)
        if iu.upper < iv.lower:
            return -1
        if iv.upper < iu.lower:
            return 1
    raise PrecisionExhaustedError(
        "refinement race undecided between "
        f"|{u.target.key} - {u.frac}| and |{v.target.key} - {v.frac}|"
    )


class ErrVal:
    """Certified max-norm error of one candidate point."""

    __slots__ = ("point", "atoms", "_champ")

    def __init__(self, targets: Sequence[RealTarget], point: Sequence[Fraction]) -> None:
        self.point = tuple(point)
        self.atoms = tuple(_Atom(t, f) for t, f in zip(targets, self.point))
        self._champ: Optional[int] = None

    def champion(self) -> _Atom:
        if self._champ is None:
            self.tied()
        return self.atoms[self._champ]

    def tied(self) -> List[int]:
        """Coordinates whose error equals the max-norm error, champion first."""
        tied = [0]
        for i in range(1, len(self.atoms)):
            c = _cmp_atoms(self.atoms[i], self.atoms[tied[0]])
            if c > 0:
                tied = [i]
            elif c == 0:
                tied.append(i)
        self._champ = tied[0]
        return tied

    def interval(self, bits: int) -> Interval:
        ivs = [a.interval(bits) for a in self.atoms]
        return Interval(max(i.lower for i in ivs), max(i.upper for i in ivs))

    def compare(self, other: "ErrVal") -> int:
        return _cmp_atoms(self.champion(), other.champion())

    def certified_interval(self) -> Interval:
        budget = max((a.budget for a in self.atoms), default=0)
        for bits in precisions(192, budget):
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


def _nearest_ps(target: RealTarget, q: int) -> List[int]:
    """Coprime numerators among the two integers nearest q*x, certified."""
    return [p for p in _neighbours(target, q) if math.gcd(p, q) == 1]


def _nearest_multiples(target: RealTarget, q: int) -> List[Fraction]:
    """The multiples of 1/q nearest x, certified: both when q*x is a half-integer."""
    lower, upper = (_Atom(target, Fraction(p, q)) for p in _neighbours(target, q))
    c = _cmp_atoms(lower, upper)
    return [a.frac for a, near in ((lower, c <= 0), (upper, c >= 0)) if near]


# ---------------------------------------------------------------------------
# per-coordinate best-approximation table


def _best_entries(target: RealTarget) -> Iterator[Tuple[int, Fraction]]:
    """Best approximations (den, frac) of one coordinate, in increasing den.

    Each family of intermediate fractions (pa + k*pb)/(qa + k*qb), k <= a,
    between consecutive convergents starts at the certified break-even index
    k*: the smallest k beating pb/qb, so the half-quotient rule is never
    assumed.  The 0/1 seed is a best approximation unless the first family's
    1/1 already is one (k* = 1); the target 0 has no partial quotient, and
    0/1 is its only entry.
    """
    cursor = ConvergentCursor(target)
    seeded = False
    while True:
        pa, pb, qa, qb = cursor.state
        row = cursor.advance()
        if row is None:
            if not seeded:
                yield 1, Fraction(0, 1)
            return
        base = _Atom(target, Fraction(pb, qb))
        lo, hi = 1, row.a
        while lo < hi:
            mid = (lo + hi) // 2
            m = Fraction(pa + mid * pb, qa + mid * qb)
            if _cmp_atoms(_Atom(target, m), base) < 0:
                hi = mid
            else:
                lo = mid + 1
        if not seeded:
            seeded = True
            if lo >= 2:
                yield 1, Fraction(0, 1)
        for k in range(lo, row.a + 1):
            yield qa + k * qb, Fraction(pa + k * pb, qa + k * qb)


_END = (math.inf, None)


class _BestTable:
    """The entries of ``_best_entries`` read so far, up to the largest cap asked.

    Entries (den, frac) have strictly increasing denominators and strictly
    decreasing certified errors; every best approximation of the first kind
    appears.
    """

    def __init__(self, target: RealTarget) -> None:
        self.entries: List[Tuple[int, Fraction]] = []
        self._source = _best_entries(target)
        self._ahead: Optional[Tuple] = None  # the first entry past the cap, once read

    def extend_to(self, den_cap: int) -> None:
        if self._ahead is None:
            self._ahead = next(self._source, _END)
        while self._ahead[0] <= den_cap:
            self.entries.append(self._ahead)
            self._ahead = next(self._source, _END)

    def best_at(self, den_cap: int) -> Tuple[int, Fraction]:
        self.extend_to(den_cap)
        idx = bisect_right(self.entries, den_cap, key=lambda e: e[0]) - 1
        if idx < 0:
            raise ValueError("no entry at denominator cap >= 1")
        return self.entries[idx]

    def dens_up_to(self, den_cap: int) -> List[int]:
        self.extend_to(den_cap)
        idx = bisect_right(self.entries, den_cap, key=lambda e: e[0])
        return [d for d, _ in self.entries[:idx]]


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


def _den_cap(budget: Budget, d: int) -> int:
    """Largest admissible scalar cap implied by the budget bound.

    max/lcm and every d=1 case bound single denominators; prod bounds the
    product; prod with the d-th root comparison bounds the product by
    base**(d/root).
    """
    base, root = budget.bound.base, budget.bound.root
    if budget.kind is HeightKind.PROD_ROOT:
        return iroot(base ** d, root)
    return iroot(base, root)


# ---------------------------------------------------------------------------
# denominator grids (brute force)


def _grid_max(d: int, cap: int, enum_cap: int) -> np.ndarray:
    if cap ** d > enum_cap:
        raise CapExceededError(f"{cap}^{d} denominator tuples exceed cap {enum_cap}")
    axes = np.meshgrid(*([np.arange(1, cap + 1, dtype=np.int64)] * d), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def _grid_prod(d: int, cap: int, enum_cap: int) -> np.ndarray:
    rows = np.arange(1, cap + 1, dtype=np.int64).reshape(-1, 1)
    prods = rows[:, 0].copy()
    for _ in range(d - 1):
        counts = cap // prods
        total = int(counts.sum())
        if total > enum_cap:
            raise CapExceededError(f"product grid exceeds enumeration cap {enum_cap}")
        rep = np.repeat(np.arange(len(rows)), counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        new_col = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + 1
        rows = np.column_stack([rows[rep], new_col])
        prods = prods[rep] * new_col
    return rows


def _grid_lcm(d: int, cap: int, enum_cap: int) -> np.ndarray:
    if cap ** d > enum_cap:
        raise CapExceededError(f"{cap}^{d} denominator tuples exceed cap {enum_cap}")
    grid = _grid_max(d, cap, enum_cap)
    mask = grid[:, 0]
    for j in range(1, d):
        mask = np.lcm(mask, grid[:, j])
    return grid[mask <= cap]


def _grid_for(kind: HeightKind, d: int, cap: int, enum_cap: int) -> np.ndarray:
    if kind is HeightKind.MAX or d == 1:
        return _grid_max(d, cap, enum_cap)
    if kind in (HeightKind.PROD, HeightKind.PROD_ROOT):
        return _grid_prod(d, cap, enum_cap)
    if kind is HeightKind.LCM:
        return _grid_lcm(d, cap, enum_cap)
    raise UnboundedSearchError("min height bounds only one coordinate")


# ---------------------------------------------------------------------------
# float prefilter


def _coord_float_bounds(targets: Sequence[RealTarget], bits: int = 192):
    lows, highs = [], []
    for t in targets:
        e = refine(t, min(bits, t.budget))
        lows.append(math.nextafter(float(e.lower), -math.inf))
        highs.append(math.nextafter(float(e.upper), math.inf))
    return lows, highs


def _filter_bounds(qcol: np.ndarray, x_lo: float, x_hi: float):
    """Outer float bounds on the best reduced-candidate error at each den.

    The candidates are p = f, f+1, f+2 with f = floor(fl(q*x_lo)).  Rounding
    p/q to a float is an absolute error of up to 2u*|p/q|, beyond the relative
    _SLOP at small errors, so the bounds carry the slack 2^-50*|p/q| that
    ``_lcm_bounds`` carries, by the argument written there (Goldberg 1991).
    """
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

    For x in [0, 1) and D < 2^48 the integer nearest D*x is among f, f+1, f+2
    with f = floor(fl(D*x_lo)).  Soundness (Goldberg 1991; u = 2^-53): p and D
    are exact floats, so a = fl(p/D) is within u*|p/D| of p/D, and
    fl(a - x_b) within u*|a - x_b| of a - x_b for an endpoint x_b.  A computed
    distance is thus off by u times itself, which _SLOP (about 900u) absorbs
    with the roundings of the slack arithmetic, plus (u + u^2)*|p/D| <= 2u*|a|.
    That absolute term is about 1e-7 of an error of 1e-9 at |a| ~ 1/2, far
    beyond _SLOP, so it gets its own slack 2^-50*|a|.  1e-300 covers underflow.
    """
    xl, xh = _coord_float_bounds(targets)
    lo = np.zeros(len(ds))
    hi = np.zeros(len(ds))
    for x_lo, x_hi in zip(xl, xh):
        a = (np.floor(ds * x_lo)[:, None] + np.arange(3.0)) / ds[:, None]
        dlo = a - x_hi
        dhi = a - x_lo
        clo = np.where(dlo > 0, dlo, np.where(dhi < 0, -dhi, 0.0))
        chi = np.maximum(np.abs(dlo), np.abs(dhi))
        slack = np.abs(a) * 2.0 ** -50
        clo = np.maximum(clo * (1.0 - _SLOP) - slack, 0.0)
        chi = chi * (1.0 + _SLOP) + slack + 1e-300
        lo = np.maximum(lo, clo.min(axis=1))
        hi = np.maximum(hi, chi.min(axis=1))
    return lo, hi


def _phase1(grid: np.ndarray, targets: Sequence[RealTarget]):
    """Outer float bounds on each grid row's error.  A coordinate's bound
    depends only on its denominator, so it is computed once per q and
    gathered by column."""
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


def _coord_options(target: RealTarget, q: int) -> List[Tuple[int, _Atom]]:
    return [(p, _Atom(target, Fraction(p, q))) for p in _nearest_ps(target, q)]


def _tuple_best(targets, dens) -> Optional[Tuple[Tuple[Fraction, ...], "ErrVal"]]:
    point = []
    for t, q in zip(targets, dens):
        opts = _coord_options(t, int(q))
        if not opts:
            return None
        best = opts[0]
        for cand in opts[1:]:
            if _cmp_atoms(cand[1], best[1]) < 0:
                best = cand
        point.append(best[1].frac)
    ev = ErrVal(targets, point)
    return ev.point, ev


def _collect_ties(targets, den_tuples: Iterable[Sequence[int]], opt: ErrVal):
    """All candidate points over the given den tuples with error == opt."""
    champ = opt.champion()
    points = set()
    for dens in den_tuples:
        kept: List[List[Tuple[Fraction, bool]]] = []
        any_eq_possible = False
        ok = True
        for t, q in zip(targets, dens):
            opts = []
            for p, atom in _coord_options(t, int(q)):
                c = _cmp_atoms(atom, champ)
                if c <= 0:
                    opts.append((atom.frac, c == 0))
                    any_eq_possible = any_eq_possible or c == 0
            if not opts:
                ok = False
                break
            kept.append(opts)
        if not ok or not any_eq_possible:
            continue
        for combo in iter_product(*kept):
            if any(eq for _, eq in combo):
                points.add(tuple(f for f, _ in combo))
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
    ev = ErrVal(targets, point)
    return ApproxRecord(ev.point, ev.certified_interval(), height(ev.point, kind))


# ---------------------------------------------------------------------------
# brute force route


def brute_force_best(
    x: Sequence[RealTarget], budget: Budget, enum_cap: int = DEFAULT_ENUM_CAP
) -> ApproxRecord:
    """Certified exhaustive minimizer of the max-norm error under the budget."""
    targets = _validate_targets(x)
    if budget.kind is HeightKind.MIN:
        raise UnboundedSearchError("min height bounds only one coordinate")
    d = len(targets)
    cap = _den_cap(budget, d)
    grid = _grid_for(budget.kind, d, cap, enum_cap)
    tuple_lo, tuple_hi = _phase1(grid, targets)
    opt_hi = tuple_hi.min()
    if not np.isfinite(opt_hi):
        raise PrecisionExhaustedError("no admissible candidate point")
    survivors = grid[tuple_lo <= opt_hi]

    best: Optional[ErrVal] = None
    for dens in survivors:
        got = _tuple_best(targets, dens)
        if got is None:
            continue
        _, ev = got
        if best is None or ev.compare(best) < 0:
            best = ev
    if best is None:
        raise PrecisionExhaustedError("no admissible candidate point")
    ties = _collect_ties(targets, survivors.tolist(), best)
    return _finish(targets, budget.kind, _lex_min(ties))


# ---------------------------------------------------------------------------
# fast route


def _qualifying_dens(
    den_cap: int, x_lo: float, x_hi: float, opt_hi_f: float, enum_cap: int
) -> List[int]:
    """Dens <= den_cap whose best candidate might reach error <= opt (floats)."""
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
    qs = [f.denominator for f in opt.point]
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
    # certified intervals start from 192-bit enclosures (``_finish``); taking
    # them first keeps a comparison they decide from refining past them,
    # which would narrow the interval that ``_finish`` certifies
    for t in targets:
        refine(t, min(192, t.budget))
    point = []
    for t in targets:
        for bits in precisions(192, max(t.budget, champ.budget)):
            x = refine(t, min(bits, t.budget))
            e = champ.interval(bits).upper
            c = _simplest(max(x.lower - e, Fraction(0)), x.upper + e)
            if _cmp_atoms(_Atom(t, c), champ) <= 0:
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
    targets = _validate_targets(x)
    kind = budget.kind
    if kind is HeightKind.MIN:
        raise UnboundedSearchError("min height bounds only one coordinate")
    d = len(targets)
    cap = _den_cap(budget, d)
    if kind is HeightKind.MAX or d == 1:
        opt = ErrVal(targets, [_BestTable(t).best_at(cap)[1] for t in targets])
        return _finish(targets, kind, _simplest_point(targets, opt))
    if kind is HeightKind.LCM:
        _, ties = _lcm_opt(targets, cap, enum_cap)
    else:
        # the staircase ends at the cheapest tuple reaching the optimum
        opt = _last_record(_frontier(targets, kind, cap, enum_cap))
        ties = _fast_ties(targets, cap, opt, enum_cap)
    if not ties:
        # the optimum's own point must be in the tie set; missing it means a
        # candidate sweep lost a point that the certified comparison keeps
        raise AssertionError("certified optimum lost during tie collection")
    return _finish(targets, kind, _lex_min(ties))


# ---------------------------------------------------------------------------
# record chains


def _require_irrational(targets) -> None:
    for t in targets:
        if t.exact_value is not None:
            raise ValueError(f"record chains need irrational coordinates, got {t.key}")


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
    return [
        ApproxRecord(ev.point, ev.certified_interval(), hv)
        for hv, ev in _record_walk(x, kind, height_cap, enum_cap)
    ]


def _record_walk(
    x: Sequence[RealTarget], kind: HeightKind, height_cap: HeightValue, enum_cap: int
) -> Iterable[Tuple[HeightValue, ErrVal]]:
    """The records of ``records`` as uncertified (height, error) pairs.

    The arguments are checked on the call, before the walk starts; a frontier
    walk runs as it is read.
    """
    targets = _validate_targets(x)
    if kind is HeightKind.MIN:
        raise UnboundedSearchError("min height bounds only one coordinate")
    _require_irrational(targets)
    budget = Budget(kind, height_cap)
    d = len(targets)
    cap = _den_cap(budget, d)
    if kind is HeightKind.LCM and d >= 2:
        walk, _ = _lcm_opt(targets, cap, enum_cap)
        return walk
    return _frontier(targets, kind, cap, enum_cap)


def _last_record(walk: Iterable[Tuple[object, ErrVal]]) -> ErrVal:
    """Error of a record walk's last record: the optimum within its cap."""
    last: Optional[ErrVal] = None
    for _, last in walk:
        pass
    if last is None:
        raise PrecisionExhaustedError("no admissible candidate point")
    return last


def _frontier(
    targets, kind: HeightKind, cap: int, enum_cap: int
) -> Iterator[Tuple[HeightValue, ErrVal]]:
    """Record walk over the per-coordinate ``_BestTable``s.

    Under prod and prod_root the cap bounds the product of the denominators
    and the height is that product (its d-th root for prod_root).  Under max,
    and under lcm at d = 1, the cap bounds each denominator and the height is
    the largest one.  Every coordinate starts at its first entry, whose
    denominator is 1.  Each step yields the current tuple, then moves every
    coordinate whose error ties the max-norm error E to its next entry; under
    max it then moves every coordinate to its best entry at H', the largest
    denominator now reached.  The walk stops when the product passes the cap
    or when a table has no entry left within the cap.  An exact zero error
    ends the walk too: it ties every coordinate, and an exact hit is the last
    entry of its table.  The ``enum_cap`` guard bounds the steps.

    A table entry is a best approximation of the first kind, so its fraction
    is the nearest reduced fraction at its denominator, and table errors
    strictly decrease.

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
    product = kind in (HeightKind.PROD, HeightKind.PROD_ROOT)
    root = len(targets) if kind is HeightKind.PROD_ROOT else 1
    idx = [0] * len(tables)
    steps = 0
    while all(k < len(tb.entries) for k, tb in zip(idx, tables)):
        dens = [tb.entries[k][0] for k, tb in zip(idx, tables)]
        if product:
            base = math.prod(dens)
            if base > cap:
                return
        else:
            base = max(dens)
            idx = [bisect_right(tb.entries, base, key=lambda e: e[0]) - 1 for tb in tables]
        steps += 1
        if steps > enum_cap:
            raise CapExceededError("frontier walk exceeds enumeration cap")
        ev = ErrVal(targets, [tb.entries[k][1] for k, tb in zip(idx, tables)])
        tied = ev.tied()
        yield HeightValue(base, root), ev
        for i in tied:
            idx[i] += 1


def _lcm_scan(targets, lcm_cap: int, enum_cap: int) -> List[int]:
    """Common denominators D <= cap that may beat every smaller one.

    A D whose lower bound reaches the upper bound of a smaller D cannot beat
    it.  Every other D is kept, which includes every record and every D that
    ties the optimum: upper bounds lie strictly above the errors they bound.
    """
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
    tie is x itself.
    """
    chain: List[Tuple[HeightValue, ErrVal]] = []
    ties = set()
    for dd in _lcm_scan(targets, lcm_cap, enum_cap):
        near = [_nearest_multiples(t, dd) for t in targets]
        ev = ErrVal(targets, [m[0] for m in near])
        c = ev.compare(chain[-1][1]) if chain else -1
        if c < 0:
            chain.append((HeightValue(dd), ev))
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


def _err_beats_power(atom: _Atom, base: int, tau: Fraction) -> bool:
    """Certified check of |x - p/q| < base**(-tau)."""
    a, b = tau.numerator, tau.denominator
    if atom.exact is not None:
        return atom.exact ** b * base ** a < 1
    target = atom.target
    for bits in precisions(64, target.budget):
        iv = atom.interval(bits)
        if iv.upper ** b * base ** a < 1:
            return True
        if iv.lower ** b * base ** a >= 1:
            return False
    raise PrecisionExhaustedError(
        f"cannot decide |{target.key} - {atom.frac}| vs {base}^(-{tau})"
    )


def _legendre_threshold(tau: Fraction) -> int:
    """Smallest q with q^(tau-2) >= 2; above it solutions are convergents."""
    a, b = tau.numerator, tau.denominator
    e = a - 2 * b
    t = iroot(2 ** b, e)
    return t if t ** e >= 2 ** b else t + 1


def _count_d1(target: RealTarget, tau: Fraction, cap: int, enum_cap: int) -> List[Fraction]:
    sols: List[Fraction] = []
    q0 = _legendre_threshold(tau) if tau > 2 else cap + 1
    work = 0
    for q in range(1, min(q0, cap + 1)):
        got = _solution_ps(target, q, q, tau)
        work += max(len(got), 1)
        if work > enum_cap:
            raise CapExceededError("direct window enumeration exceeds cap")
        sols.extend(Fraction(p, q) for p in got)
    if q0 <= cap:
        cursor = ConvergentCursor(target)
        while True:
            row = cursor.advance()
            if row is None or row.q > cap:
                break
            if row.q < q0:
                continue
            if _err_beats_power(_Atom(target, Fraction(row.p, row.q)), row.q, tau):
                sols.append(Fraction(row.p, row.q))
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
    d = len(targets)
    points = set()
    for i, t in enumerate(targets):
        for w in _count_d1(t, tau, cap, enum_cap):
            q_i = w.denominator
            aux: List[Optional[Fraction]] = []
            ok = True
            for j, other in enumerate(targets):
                if j == i:
                    aux.append(w)
                    continue
                partner = _aux_partner(other, q_i, tau, aux_cap)
                if partner is None:
                    ok = False
                    break
                aux.append(partner)
            if ok:
                points.add(tuple(aux))
    return points


def _aux_partner(target: RealTarget, q_min: int, tau: Fraction, aux_cap: int):
    cursor = ConvergentCursor(target)
    while True:
        row = cursor.advance()
        if row is None or row.q > aux_cap:
            return None
        if row.q < q_min:
            continue
        if _err_beats_power(_Atom(target, Fraction(row.p, row.q)), q_min, tau):
            return Fraction(row.p, row.q)


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
    d = len(targets)
    budget = Budget(kind, height_cap)
    cap = _den_cap(budget, d)
    if d == 1:
        return len(set(_count_d1(targets[0], tau, cap, enum_cap)))
    if kind is HeightKind.MIN:
        if aux_cap is None:
            aux_cap = max(cap, 10 ** 9)
        return len(_min_witness_points(targets, tau, cap, aux_cap, enum_cap))
    grid = _grid_for(kind, d, cap, enum_cap)
    count = 0
    for dens in grid.tolist():
        hv = height_of_dens(dens, kind)
        # error < (base^(1/root))^(-tau) = base^(-tau/root)
        n = 1
        for t, q in zip(targets, dens):
            n *= len(_solution_ps(t, q, hv.base, tau / hv.root))
            if not n:
                break
        count += n
    return count


def _solution_ps(target: RealTarget, q: int, hbase: int, tau: Fraction) -> List[int]:
    """Numerators p coprime to q with |x - p/q| < hbase**(-tau), certified."""
    e = refine(target, min(128, target.budget))
    # iroot rounds down, so r >= hbase**(-tau): a solution's p/q lies within r
    # of x, hence in (e.lower - r, e.upper + r), and p inside the scanned range
    r = Fraction(1, iroot(hbase ** tau.numerator, tau.denominator))
    out = []
    for p in range(math.floor(q * (e.lower - r)), math.ceil(q * (e.upper + r)) + 1):
        if math.gcd(p, q) != 1:
            continue
        if _err_beats_power(_Atom(target, Fraction(p, q)), hbase, tau):
            out.append(p)
    return out
