"""Exact rationals and certified enclosures of the real targets.

Every real number the package touches is either an exact ``Fraction`` or a
``RealTarget``: an oracle that emits nested interval enclosures on demand.
Downstream comparisons reduce to interval comparisons here, refined until
decisive, so floating point never influences a search result.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Tuple, Union

from .errors import PrecisionExhaustedError

DEFAULT_PRECISION_BUDGET = 4096

_FIXTURE_NAMES = ("golden", "sqrt2", "e", "liouville")


def reduce(p: int, q: int) -> Fraction:
    """Lowest-terms fraction p/q.  The denominator must be a positive integer."""
    if not isinstance(p, int) or not isinstance(q, int):
        raise TypeError("reduce expects integers")
    if q < 1:
        raise ValueError(f"denominator must be >= 1, got {q}")
    return Fraction(p, q)


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"empty interval: {self.lower} > {self.upper}")

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lower, other.lower), min(self.upper, other.upper))

    def distance(self, v: Fraction) -> "Interval":
        """The interval {|y - v| : y in self}."""
        lo, hi = self.lower - v, self.upper - v
        if lo >= 0:
            return Interval(lo, hi)
        if hi <= 0:
            return Interval(-hi, -lo)
        return Interval(Fraction(0), max(-lo, hi))

    def __str__(self) -> str:
        return f"[{self.lower}, {self.upper}]"


class RealTarget:
    """A real number in [0, 1) revealed through nested enclosures.

    ``enclosure(bits)`` returns an interval of width at most 2**-bits that
    contains the target.  Enclosures are nested: a later call never returns a
    wider interval than an earlier one.  Requests beyond ``budget`` bits raise
    ``PrecisionExhaustedError`` instead of silently degrading.
    """

    def __init__(self, key: tuple, budget: int = DEFAULT_PRECISION_BUDGET) -> None:
        self.key = key
        self.budget = budget
        self._raw: dict[int, Interval] = {}
        self._best: Optional[Interval] = None
        self._best_bits = -1

    def _raw_enclosure(self, bits: int) -> Interval:
        """An enclosure of width <= 2**-bits that is a function of (target,
        bits) alone, so ``enclosure`` computes it once per bits and caches it."""
        raise NotImplementedError

    @property
    def exact_value(self) -> Optional[Fraction]:
        """The exact value when the target is rational, else None."""
        return None

    def enclosure(self, bits: int) -> Interval:
        if bits > self.budget:
            raise PrecisionExhaustedError(
                f"target {self.key}: {bits} bits requested, budget is {self.budget}"
            )
        if self._best is not None and bits <= self._best_bits:
            return self._best
        raw = self._raw.get(bits)
        if raw is None:
            raw = self._raw[bits] = self._raw_enclosure(bits)
        self._best = raw if self._best is None else self._best.intersect(raw)
        self._best_bits = bits
        return self._best

    def clone(self) -> "RealTarget":
        """The same target with no enclosure refined yet.  A copy shares only
        the raw-enclosure cache, whose entries depend on (target, bits) alone,
        so its enclosures equal a new object's."""
        c = copy.copy(self)
        c._best, c._best_bits = None, -1
        return c

    def __repr__(self) -> str:
        return f"{type(self).__name__}(key={self.key!r})"


def precisions(bits: int, budget: int) -> Iterator[int]:
    """Refinement schedule of a certified decision: ``bits``, then doubling,
    clamped at ``budget``; the last value yielded is the first one >= budget.

    The first value is ``bits`` even above the budget, so a target whose
    budget is below the start precision fails in ``RealTarget.enclosure``.
    The caller raises its own error when the schedule runs out undecided.
    """
    yield bits
    while bits < budget:
        bits = min(bits * 2, budget)
        yield bits


def refine(target: RealTarget, bits: int) -> Interval:
    """Enclosure of the target with width <= 2**-bits."""
    return target.enclosure(bits)


class RationalTarget(RealTarget):
    def __init__(self, value: Fraction, budget: int = DEFAULT_PRECISION_BUDGET) -> None:
        value = Fraction(value)
        if not 0 <= value < 1:
            raise ValueError(f"target must lie in [0, 1), got {value}")
        super().__init__(("rational", value), budget)
        self._value = value

    @property
    def exact_value(self) -> Fraction:
        return self._value

    def _raw_enclosure(self, bits: int) -> Interval:
        return Interval(self._value, self._value)


class CFTarget(RealTarget):
    """Irrational target defined by an infinite partial-quotient stream.

    ``quotient_fn(n)`` must return the n-th partial quotient (n >= 1) of the
    expansion [0; a_1, a_2, ...].  An infinite stream makes the target
    irrational by construction.
    """

    def __init__(
        self,
        name: str,
        quotient_fn: Callable[[int], int],
        budget: int = DEFAULT_PRECISION_BUDGET,
    ) -> None:
        super().__init__(("cf", name), budget)
        self._name = name
        self._quotient_fn = quotient_fn

    def partial_quotient(self, n: int) -> int:
        if n < 1:
            raise ValueError("partial quotients are indexed from 1")
        a = self._quotient_fn(n)
        if not isinstance(a, int) or a < 1:
            raise ValueError(f"partial quotient a_{n} must be a positive integer, got {a!r}")
        return a

    def _raw_enclosure(self, bits: int) -> Interval:
        # Consecutive convergents bracket the value; widen the depth until
        # the bracket width 1/(q_{n-1} q_n) is small enough.
        goal = 1 << bits
        p_prev, p, q_prev, q = 1, 0, 0, 1
        n = 0
        while q_prev * q < goal:
            n += 1
            a = self.partial_quotient(n)
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        lo = Fraction(p, q)
        hi = Fraction(p_prev, q_prev)
        if lo > hi:
            lo, hi = hi, lo
        return Interval(lo, hi)


class BitsTarget(RealTarget):
    """Uniform draw from [0, 1) whose bits come from a keyed hash counter."""

    def __init__(self, seed: int, index: int = 0, budget: int = DEFAULT_PRECISION_BUDGET) -> None:
        super().__init__(("seed", seed, index), budget)
        self._seed = seed
        self._index = index

    def _prefix(self, bits: int) -> int:
        nblocks = -(-bits // 256)
        raw = b"".join(hashlib.sha256(f"{self._seed}:{self._index}:{j}".encode()).digest()
                       for j in range(nblocks))
        value = int.from_bytes(raw, "big")
        return value >> (nblocks * 256 - bits)

    def _raw_enclosure(self, bits: int) -> Interval:
        if bits < 1:
            bits = 1
        k = self._prefix(bits)
        den = 1 << bits
        return Interval(Fraction(k, den), Fraction(k + 1, den))


class LiouvilleTarget(RealTarget):
    """The classical rapidly-converging series sum(10**-factorial(n))."""

    def __init__(self, budget: int = DEFAULT_PRECISION_BUDGET) -> None:
        super().__init__(("liouville",), budget)

    def _raw_enclosure(self, bits: int) -> Interval:
        n = 1
        while Fraction(2, 10 ** math.factorial(n + 1)) > Fraction(1, 1 << bits):
            n += 1
        partial = liouville_truncation(n)
        tail = Fraction(2, 10 ** math.factorial(n + 1))
        return Interval(partial, partial + tail)


def liouville_truncation(n: int) -> Fraction:
    """Partial sum of the Liouville series through the 10**-factorial(n) term."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum((Fraction(1, 10 ** math.factorial(k)) for k in range(1, n + 1)), Fraction(0))


def _e_minus_2_quotient(n: int) -> int:
    # [0; 1, 2, 1, 1, 4, 1, 1, 6, 1, 1, 8, ...]
    if n % 3 == 2:
        return 2 * ((n + 1) // 3)
    return 1


def golden_target(budget: int = DEFAULT_PRECISION_BUDGET) -> CFTarget:
    return CFTarget("golden", lambda n: 1, budget)


def sqrt2_target(budget: int = DEFAULT_PRECISION_BUDGET) -> CFTarget:
    return CFTarget("sqrt2", lambda n: 2, budget)


def e_target(budget: int = DEFAULT_PRECISION_BUDGET) -> CFTarget:
    return CFTarget("e", _e_minus_2_quotient, budget)


def liouville_target(budget: int = DEFAULT_PRECISION_BUDGET) -> LiouvilleTarget:
    return LiouvilleTarget(budget)


def sample_uniform(seed: int, d: int, budget: int = DEFAULT_PRECISION_BUDGET) -> Tuple[BitsTarget, ...]:
    """Deterministic vector of d uniform targets keyed by (seed, coordinate)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return tuple(BitsTarget(seed, i, budget) for i in range(d))


def parse_target(spec: str, budget: int = DEFAULT_PRECISION_BUDGET) -> RealTarget:
    """Build a target from its command-line form.

    Accepted forms: ``golden``, ``sqrt2``, ``e``, ``liouville``,
    ``dec:<decimal literal>`` and ``seed:<int>``.
    """
    if spec == "golden":
        return golden_target(budget)
    if spec == "sqrt2":
        return sqrt2_target(budget)
    if spec == "e":
        return e_target(budget)
    if spec == "liouville":
        return liouville_target(budget)
    if spec.startswith("dec:"):
        literal = spec[4:]
        try:
            value = Fraction(literal)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad decimal literal in {spec!r}") from exc
        return RationalTarget(value, budget)
    if spec.startswith("seed:"):
        try:
            seed = int(spec[5:])
        except ValueError as exc:
            raise ValueError(f"bad seed in {spec!r}") from exc
        return BitsTarget(seed, 0, budget)
    raise ValueError(
        f"unknown target {spec!r}; expected one of {_FIXTURE_NAMES}, dec:<literal>, seed:<int>"
    )


# ---------------------------------------------------------------------------
# Certified elementary functions.  They make the libmp calls that mpmath's
# interval context makes for iv.log(iv.mpf(p) / iv.mpf(q)) and for iv.exp:
# from_int, mpf_div, mpf_log and mpf_exp at the same precision, rounded floor
# for a lower bound and ceiling for an upper one.  So the endpoints are the
# same dyadic numbers bit for bit, and they enclose the true value as before.
# They import mpmath themselves, so that importing heightlab does not.


def _mpf_bound(value: Union[int, Fraction], bits: int, rnd: str) -> tuple:
    """The mpf bound of value rounded toward rnd (libmp's round_floor or
    round_ceiling), as ``mpi_div`` rounds that end of
    ``iv.mpf(p) / iv.mpf(q)`` at ``iv.prec = bits``."""
    from mpmath.libmp import (
        fzero, from_int, mpf_div, round_ceiling as _CEIL, round_floor as _FLOOR,
    )

    p, q = value.numerator, value.denominator
    if p == 0:
        return fzero
    # a positive quotient is smallest over the larger denominator
    q_rnd = rnd if p < 0 else (_CEIL if rnd == _FLOOR else _FLOOR)
    return mpf_div(from_int(p, bits, rnd), from_int(q, bits, q_rnd), bits, rnd)


def _mpf_to_fraction(t: tuple) -> Fraction:
    sign, man, exp, _ = t
    if man == 0 and exp != 0:  # fzero is (0, 0, 0, 0); inf and nan have exp != 0
        raise ValueError("nonfinite interval endpoint")
    man = -man if sign else man
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def ln_enclosure(value: Union[int, Fraction, Interval], bits: int = 128) -> Interval:
    """Certified enclosure of ln(value), value > 0, or of ln over an
    exact-rational interval of positive reals: from the log of the lower end's
    floor bound to the log of the upper end's ceiling bound."""
    from mpmath.libmp import mpf_log, round_ceiling as _CEIL, round_floor as _FLOOR

    lower, upper = (value.lower, value.upper) if isinstance(value, Interval) else (value, value)
    if lower <= 0:
        raise ValueError("ln requires a positive argument")
    lo, hi = _mpf_bound(lower, bits, _FLOOR), _mpf_bound(upper, bits, _CEIL)
    return Interval(
        _mpf_to_fraction(mpf_log(lo, bits, _FLOOR)), _mpf_to_fraction(mpf_log(hi, bits, _CEIL))
    )


def exp_enclosure(x: Interval, bits: int = 128) -> Interval:
    """Certified enclosure of exp over an exact-rational interval."""
    from mpmath.libmp import mpf_exp, round_ceiling as _CEIL, round_floor as _FLOOR

    lo, hi = _mpf_bound(x.lower, bits, _FLOOR), _mpf_bound(x.upper, bits, _CEIL)
    return Interval(
        _mpf_to_fraction(mpf_exp(lo, bits, _FLOOR)), _mpf_to_fraction(mpf_exp(hi, bits, _CEIL))
    )


def pow_enclosure(base: Union[int, Fraction], exponent: Fraction, bits: int = 128) -> Interval:
    """Certified enclosure of base**exponent for base > 0."""
    base = Fraction(base)
    if base <= 0:
        raise ValueError("pow requires a positive base")
    if exponent == 0 or base == 1:
        return Interval(Fraction(1), Fraction(1))
    if exponent.denominator == 1 and abs(exponent.numerator) <= 64:
        exact = base ** exponent.numerator
        return Interval(exact, exact)
    ln = ln_enclosure(base, bits)
    return exp_enclosure(Interval(*sorted((ln.lower * exponent, ln.upper * exponent))), bits)
