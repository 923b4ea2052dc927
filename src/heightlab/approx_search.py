"""Best rational approximation under a height budget.

Two independent routes compute the same answer: a certified brute-force
enumeration over denominator tuples, and a fast route built on per-coordinate
best-approximation tables.  Both resolve every comparison exactly: floating
point only prefilters, and the winner set plus tie-break order come from
interval refinement or rational arithmetic.

Under the lcm height a point whose height divides D has coordinates in
(1/D)Z, so its best choice at D is the nearest multiples round(D*x_i)/D; the
lcm records and ``fast_best`` certify those points at the D that one chunked
float scan over D = 1..cap keeps.

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
from .heights import HeightKind, HeightValue, height, iroot
from .numerics import Interval, RealTarget, refine

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
        e = refine(self.target, min(bits, self.target.budget))
        lo = e.lower - self.frac
        hi = e.upper - self.frac
        if lo >= 0:
            return Interval(lo, hi)
        if hi <= 0:
            return Interval(-hi, -lo)
        return Interval(Fraction(0), max(-lo, hi))

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
        bits = 64
        while True:
            e = refine(target, bits)
            if e.upper < m:
                return -1 if u_low else 1
            if e.lower > m:
                return 1 if u_low else -1
            if bits >= target.budget:
                raise PrecisionExhaustedError(
                    f"cannot separate errors of {u.frac} and {v.frac} against {target.key}"
                )
            bits = min(bits * 2, target.budget)
    # distinct underlying reals: refinement race
    cap = max(u.budget, v.budget)
    bits = 128
    while True:
        iu = u.interval(bits)
        iv = v.interval(bits)
        if iu.upper < iv.lower:
            return -1
        if iv.upper < iu.lower:
            return 1
        if bits >= cap:
            raise PrecisionExhaustedError(
                "refinement race undecided between "
                f"|{u.target.key} - {u.frac}| and |{v.target.key} - {v.frac}|"
            )
        bits = min(bits * 2, cap)


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
        bits = 192
        while True:
            iv = self.interval(bits)
            if iv.lower == iv.upper:
                return iv
            if iv.lower > 0 and iv.width <= iv.lower / (1 << _REL_WIDTH_BITS):
                return iv
            if bits >= budget:
                if iv.lower > 0:
                    return iv
                raise PrecisionExhaustedError(
                    f"error interval at {self.point} still touches 0 at {budget} bits"
                )
            bits = min(bits * 2, budget)


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
    bits = 64
    while True:
        e = refine(target, bits)
        flo = math.floor(e.lower * q)
        if flo == math.floor(e.upper * q):
            return flo, flo + 1
        if bits >= target.budget:
            raise PrecisionExhaustedError(f"cannot certify floor({q} * {target.key})")
        bits = min(bits * 2, target.budget)


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


class _BestTable:
    """Strictly improving best-approximation entries for one coordinate.

    Entries (den, frac) have strictly increasing denominators and strictly
    decreasing certified errors; every best approximation of the first kind
    appears.  Families of intermediate fractions between consecutive
    convergents are cut at the certified break-even index, so the classical
    half-quotient rule is never assumed.
    """

    def __init__(self, target: RealTarget) -> None:
        self.target = target
        self._cursor = ConvergentCursor(target)
        self.entries: List[Tuple[int, Fraction]] = []
        self._done = False
        self._fam: Optional[dict] = None
        self._seed_decided = False

    def _next_family(self) -> Optional[dict]:
        pa, pb, qa, qb = self._cursor.state
        row = self._cursor.advance()
        if row is None:
            self._done = True
            return None
        return {"pa": pa, "qa": qa, "pb": pb, "qb": qb, "a": row.a, "k": 0}

    def _kstar(self, fam: dict) -> int:
        base = _Atom(self.target, Fraction(fam["pb"], fam["qb"]))
        lo, hi = 1, fam["a"]
        while lo < hi:
            mid = (lo + hi) // 2
            m = Fraction(fam["pa"] + mid * fam["pb"], fam["qa"] + mid * fam["qb"])
            if _cmp_atoms(_Atom(self.target, m), base) < 0:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def extend_to(self, den_cap: int) -> None:
        while True:
            if self._fam is None:
                if self._done:
                    return
                fam = self._next_family()
                if fam is None:
                    # the target 0 has no partial quotient: 0/1 is its only entry
                    if not self._seed_decided:
                        self._seed_decided = True
                        self.entries.append((1, Fraction(0, 1)))
                    return
                fam["k"] = self._kstar(fam)
                if not self._seed_decided:
                    self._seed_decided = True
                    if fam["k"] >= 2:
                        self.entries.append((1, Fraction(0, 1)))
                self._fam = fam
            fam = self._fam
            while fam["k"] <= fam["a"]:
                den = fam["qa"] + fam["k"] * fam["qb"]
                if den > den_cap:
                    return
                num = fam["pa"] + fam["k"] * fam["pb"]
                self.entries.append((den, Fraction(num, den)))
                fam["k"] += 1
            self._fam = None

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
    targets = tuple(x)
    if not targets:
        raise ValueError("need at least one coordinate")
    for t in targets:
        if not isinstance(t, RealTarget):
            raise TypeError("coordinates must be RealTarget instances")
    return targets


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
    """Outer float bounds on the best reduced-candidate error at each den."""
    f = np.floor(qcol * x_lo).astype(np.int64)
    ps = f[:, None] + np.arange(3, dtype=np.int64)
    valid = np.gcd(ps, qcol[:, None]) == 1
    a = ps / qcol[:, None].astype(np.float64)
    dlo = a - x_hi
    dhi = a - x_lo
    lo = np.where(dlo > 0, dlo, np.where(dhi < 0, -dhi, 0.0))
    hi = np.maximum(np.abs(dlo), np.abs(dhi))
    lo = np.maximum(lo * (1.0 - _SLOP) - 1e-300, 0.0)
    hi = hi * (1.0 + _SLOP) + 1e-300
    lo = np.where(valid, lo, np.inf)
    hi = np.where(valid, hi, np.inf)
    return lo.min(axis=1), hi.min(axis=1)


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
    n, d = grid.shape
    tuple_lo = np.empty(n)
    tuple_hi = np.empty(n)
    xl, xh = _coord_float_bounds(targets)
    for start in range(0, n, _CHUNK):
        sl = slice(start, min(start + _CHUNK, n))
        lo = np.full(sl.stop - sl.start, -np.inf)
        hi = np.full(sl.stop - sl.start, -np.inf)
        for j in range(d):
            clo, chi = _filter_bounds(grid[sl, j], xl[j], xh[j])
            lo = np.maximum(lo, clo)
            hi = np.maximum(hi, chi)
        tuple_lo[sl] = lo
        tuple_hi[sl] = hi
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


def _mirror_candidates(target: RealTarget, frac: Fraction, cap: int):
    """Equal-error partner of a table entry for an exact target, if admissible."""
    ev = target.exact_value
    if ev is None:
        return []
    m = 2 * ev - frac
    if m == frac or m.denominator > cap:
        return []
    if m.numerator not in _nearest_ps(target, m.denominator):
        return []
    return [m]


def _fast_d1(targets, budget: Budget) -> ApproxRecord:
    cap = _den_cap(budget, 1)
    table = _BestTable(targets[0])
    _, frac = table.best_at(cap)
    cands = [(frac,)] + [(m,) for m in _mirror_candidates(targets[0], frac, cap)]
    return _finish(targets, budget.kind, _lex_min(cands))


def _qualifying_dens(
    den_cap: int, x_lo: float, x_hi: float, opt_hi_f: float, enum_cap: int
) -> List[int]:
    """Dens <= den_cap whose best candidate might reach error <= opt (floats)."""
    if den_cap > enum_cap:
        raise CapExceededError(f"tie scan over {den_cap} denominators exceeds cap")
    qs = np.arange(1, den_cap + 1, dtype=np.int64)
    lo, _ = _filter_bounds(qs, x_lo, x_hi)
    return [int(q) for q in qs[lo <= opt_hi_f * (1.0 + _SLOP) + 1e-300]]


def _fast_ties(targets, kind, cap, opt: ErrVal, enum_cap):
    opt_hi_f = opt.champion().float_bounds()[1]
    caps = [cap] * len(targets)
    if kind in (HeightKind.PROD, HeightKind.PROD_ROOT):
        # opt is the frontier walk's last tuple, so each of its denominators
        # q_i is the smallest one reaching error <= opt in its coordinate.  A
        # tuple tying opt therefore takes at least q_j in every coordinate j,
        # which leaves at most cap * q_i // prod(q) for coordinate i.
        qs = [f.denominator for f in opt.point]
        caps = [cap * q // math.prod(qs) for q in qs]
    xl, xh = _coord_float_bounds(targets)
    den_sets = [
        _qualifying_dens(c, lo, hi, opt_hi_f, enum_cap) for c, lo, hi in zip(caps, xl, xh)
    ]
    d = len(targets)
    tuples: List[Tuple[int, ...]] = []
    visits = 0

    def rec(j: int, prefix: Tuple[int, ...], state: int) -> None:
        nonlocal visits
        visits += 1
        if visits > enum_cap:
            raise CapExceededError("tie candidate tuples exceed enumeration cap")
        if j == d:
            tuples.append(prefix)
            return
        for q in den_sets[j]:
            if kind in (HeightKind.PROD, HeightKind.PROD_ROOT):
                if q > state:
                    break
                rec(j + 1, prefix + (q,), state // q)
            else:
                rec(j + 1, prefix + (q,), state)

    rec(0, (), cap)
    return _collect_ties(targets, tuples, opt)


def fast_best(
    x: Sequence[RealTarget], budget: Budget, enum_cap: int = DEFAULT_ENUM_CAP
) -> ApproxRecord:
    """Table-driven minimizer; same contract and output as brute_force_best."""
    targets = _validate_targets(x)
    kind = budget.kind
    if kind is HeightKind.MIN:
        raise UnboundedSearchError("min height bounds only one coordinate")
    d = len(targets)
    if d == 1:
        return _fast_d1(targets, budget)

    cap = _den_cap(budget, d)

    if kind is HeightKind.LCM:
        ties = _lcm_ties(targets, cap, enum_cap)
    else:
        if kind is HeightKind.MAX:
            opt = ErrVal(targets, [_BestTable(t).best_at(cap)[1] for t in targets])
        else:
            opt = _prod_opt(targets, cap, enum_cap)
        ties = _fast_ties(targets, kind, cap, opt, enum_cap)
    if not ties:
        # the optimum's own point must be in the tie set; missing it means the
        # float prefilter and the certified comparison disagree
        raise AssertionError("certified optimum lost during tie collection")
    return _finish(targets, kind, _lex_min(ties))


def _prod_opt(targets, prod_cap: int, enum_cap: int) -> ErrVal:
    """Best error over table denominator tuples within the product cap.

    It is the error of the last record of the frontier walk: the staircase
    ends at the cheapest tuple reaching the smallest error within the cap.
    """
    return _last_record(_prod_frontier(targets, prod_cap, enum_cap))


def _lcm_opt(targets, dens: Sequence[int]) -> ErrVal:
    """Best error over the scanned common denominators: the last lcm record."""
    return _last_record(_lcm_walk(targets, dens))


def _lcm_ties(targets, lcm_cap: int, enum_cap: int):
    """All points of lcm height <= cap whose error equals the optimum E*.

    E* <= max_i ||cap*x_i||/cap <= 1/(2*cap), so a tie of lcm L <= cap lies
    within 1/(2L) of x in every coordinate: it takes nearest multiples of 1/L,
    either neighbour where L*x_i is a half-integer.  The scan keeps that L, and
    its lower bound is <= E*, so the denominators of those multiples cover it.
    """
    dens, lo = _lcm_scan(targets, lcm_cap, enum_cap)
    opt = _lcm_opt(targets, dens.tolist())
    if opt.champion().exact == 0:
        return {opt.point}  # only x itself is at error 0
    opt_hi_f = opt.champion().float_bounds()[1]
    tuples = set()
    for dd in dens[lo <= opt_hi_f].tolist():
        per_coord = [{f.denominator for f in _nearest_multiples(t, dd)} for t in targets]
        tuples.update(iter_product(*per_coord))
    return _collect_ties(targets, tuples, opt)


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
    of 1/D nearest x_i.
    """
    targets = _validate_targets(x)
    if kind is HeightKind.MIN:
        raise UnboundedSearchError("min height bounds only one coordinate")
    _require_irrational(targets)
    budget = Budget(kind, height_cap)
    d = len(targets)
    cap = _den_cap(budget, d)
    if d == 1:
        walk = _walk_d1(targets, cap)
    elif kind is HeightKind.MAX:
        walk = _walk_max(targets, cap)
    elif kind in (HeightKind.PROD, HeightKind.PROD_ROOT):
        root = d if kind is HeightKind.PROD_ROOT else 1
        walk = (
            (HeightValue(prod, root), ev)
            for prod, ev in _prod_frontier(targets, cap, enum_cap)
        )
    else:
        walk = _lcm_walk(targets, _lcm_scan(targets, cap, enum_cap)[0].tolist())
    return [ApproxRecord(ev.point, ev.certified_interval(), hv) for hv, ev in walk]


def _last_record(walk: Iterable[Tuple[object, ErrVal]]) -> ErrVal:
    """Error of a record walk's last record: the optimum within its cap."""
    last: Optional[ErrVal] = None
    for _, last in walk:
        pass
    if last is None:
        raise PrecisionExhaustedError("no admissible candidate point")
    return last


def _walk_d1(targets, cap: int) -> Iterator[Tuple[HeightValue, ErrVal]]:
    """Records of one coordinate: its table entries up to the cap."""
    table = _BestTable(targets[0])
    table.extend_to(cap)
    for den, frac in table.entries:
        yield HeightValue(den), ErrVal(targets, (frac,))


def _walk_max(targets, cap: int) -> Iterator[Tuple[HeightValue, ErrVal]]:
    """Max-height records: improvements at the merged table denominators."""
    tables = [_BestTable(t) for t in targets]
    breakpoints = sorted({q for tb in tables for q in tb.dens_up_to(cap)})
    cur: Optional[ErrVal] = None
    cur_hi = math.inf
    for bp in breakpoints:
        ev = ErrVal(targets, [tb.best_at(bp)[1] for tb in tables])
        if ev.interval(192).lower > cur_hi:
            continue
        if cur is None or ev.compare(cur) < 0:
            cur = ev
            # rounded outward, so never below the incumbent's true error; a
            # float of the certified upper bound rounds to nearest and can sit
            # one ulp below it, pruning an improvement within that ulp
            cur_hi = ev.champion().float_bounds()[1]
            yield HeightValue(bp), ev


def _prod_frontier(targets, prod_cap: int, enum_cap: int) -> Iterator[Tuple[int, ErrVal]]:
    """Record staircase (product, error) over table denominator tuples.

    Every coordinate starts at its first ``_BestTable`` entry.  Each step
    yields the current tuple, then moves every coordinate whose error ties
    the max-norm error to its next entry.  The walk stops when the product
    passes ``prod_cap`` or when a table has no entry left within the cap.
    An exact zero error ends the walk too: it ties every coordinate, and an
    exact hit is the last entry of its table.

    A table entry is a best approximation of the first kind, so its fraction
    is the nearest reduced fraction at its denominator, and table errors
    strictly decrease.  By induction every yielded tuple takes, in each
    coordinate, the smallest table denominator whose error is below the
    previous tuple's error E: coordinates below E stay put, and the tied ones
    need their next entry.  Any tuple with error < E takes at least these
    denominators in every coordinate, so it costs a larger product unless it
    is this very tuple.  Hence each step is the unique cheapest tuple that
    strictly beats its predecessor, i.e. the next record, and the walk lists
    the (product, error) Pareto staircase of the tuples (Kung, Luccio and
    Preparata 1975) in O(sum of table sizes) steps.
    """
    tables = [_BestTable(t) for t in targets]
    for tb in tables:
        tb.extend_to(prod_cap)
    idx = [0] * len(tables)
    steps = 0
    while all(k < len(tb.entries) for k, tb in zip(idx, tables)):
        entries = [tb.entries[k] for k, tb in zip(idx, tables)]
        prod = math.prod(q for q, _ in entries)
        if prod > prod_cap:
            return
        steps += 1
        if steps > enum_cap:
            raise CapExceededError("frontier walk exceeds enumeration cap")
        ev = ErrVal(targets, [f for _, f in entries])
        tied = ev.tied()
        yield prod, ev
        for i in tied:
            idx[i] += 1


def _lcm_scan(targets, lcm_cap: int, enum_cap: int) -> Tuple[np.ndarray, np.ndarray]:
    """Common denominators D <= cap that may beat every smaller one, with
    the float lower bounds of their nearest-point errors.

    A D whose lower bound reaches the upper bound of a smaller D cannot beat
    it.  Every other D is kept, which includes every record and every D that
    ties the optimum: upper bounds lie strictly above the errors they bound.
    """
    if lcm_cap > enum_cap:
        raise CapExceededError(f"lcm scan over {lcm_cap} denominators exceeds cap {enum_cap}")
    kept_d, kept_lo = [], []
    best_hi = math.inf
    for start in range(1, lcm_cap + 1, _CHUNK):
        ds = np.arange(start, min(start + _CHUNK, lcm_cap + 1), dtype=np.int64)
        lo, hi = _lcm_bounds(targets, ds)
        below = np.minimum.accumulate(np.concatenate(([best_hi], hi[:-1])))
        keep = lo < below
        kept_d.append(ds[keep])
        kept_lo.append(lo[keep])
        best_hi = min(best_hi, float(hi.min()))
    return np.concatenate(kept_d), np.concatenate(kept_lo)


def _lcm_walk(targets, dens: Sequence[int]) -> Iterator[Tuple[HeightValue, ErrVal]]:
    """Lcm-height records among the scanned common denominators.

    The best point whose lcm height divides D takes the nearest multiples of
    1/D (Lagarias 1982).  If its lcm is L < D it was already L's best point,
    so each improvement is a record of lcm height exactly D.
    """
    cur: Optional[ErrVal] = None
    for dd in dens:
        ev = ErrVal(targets, [_nearest_multiples(t, dd)[0] for t in targets])
        if cur is None or ev.compare(cur) < 0:
            cur = ev
            yield HeightValue(dd), ev
            if ev.champion().exact == 0:
                return  # nothing beats 0, and every multiple of dd repeats x


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
    bits = 64
    target = atom.target
    while True:
        iv = atom.interval(bits)
        if iv.upper ** b * base ** a < 1:
            return True
        if iv.lower ** b * base ** a >= 1:
            return False
        if bits >= target.budget:
            raise PrecisionExhaustedError(
                f"cannot decide |{target.key} - {atom.frac}| vs {base}^(-{tau})"
            )
        bits = min(bits * 2, target.budget)


def _window_solutions(target: RealTarget, q: int, tau: Fraction) -> List[Fraction]:
    """All reduced p/q with |x - p/q| < q**(-tau), certified."""
    return [Fraction(p, q) for p in _solution_ps(target, q, q, tau)]


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
        got = _window_solutions(target, q, tau)
        work += max(len(got), 1)
        if work > enum_cap:
            raise CapExceededError("direct window enumeration exceeds cap")
        sols.extend(got)
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
    for dens in grid:
        dens = [int(q) for q in dens]
        if kind is HeightKind.MAX:
            hbase, hroot = max(dens), 1
        elif kind is HeightKind.PROD:
            hbase, hroot = math.prod(dens), 1
        elif kind is HeightKind.PROD_ROOT:
            hbase, hroot = math.prod(dens), d
        else:
            hbase, hroot = math.lcm(*dens), 1
        # error < (hbase^(1/hroot))^(-tau) = hbase^(-tau/hroot)
        t_eff = tau / hroot
        per_coord = []
        empty = False
        for t, q in zip(targets, dens):
            ps = []
            for p in _solution_ps(t, q, hbase, t_eff):
                ps.append(p)
            if not ps:
                empty = True
                break
            per_coord.append(ps)
        if empty:
            continue
        count += math.prod(len(ps) for ps in per_coord)
    return count


def _solution_ps(target: RealTarget, q: int, hbase: int, tau: Fraction) -> List[int]:
    e = refine(target, min(128, target.budget))
    mid = float((e.lower + e.upper) / 2)
    center = mid * q
    rad = q * float(hbase) ** (-float(tau)) + 2
    out = []
    for p in range(math.floor(center - rad), math.ceil(center + rad) + 1):
        if math.gcd(p, q) != 1:
            continue
        if _err_beats_power(_Atom(target, Fraction(p, q)), hbase, tau):
            out.append(p)
    return out
