"""Height functions on reduced rational points and their exponent constants.

A height value is base**(1/root) with integer base and root.  Values are kept
exact: the pair is canonicalized (smallest possible root) and all ordering is
done by cross-powering, never through floating point.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .numerics import Interval, ln_enclosure, pow_enclosure

RationalPoint = Sequence[Fraction]


class HeightKind(enum.Enum):
    MAX = "max"
    MIN = "min"
    PROD = "prod"
    PROD_ROOT = "prodroot"
    LCM = "lcm"

    def __str__(self) -> str:
        return self.value


def iroot(n: int, k: int) -> int:
    """Largest integer r with r**k <= n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1 or n < 2:
        return n
    if k >= n.bit_length():  # n < 2**k
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


def _canonical(base: int, root: int) -> tuple:
    if base == 1:
        return 1, 1
    # a perfect m-th power c**m with c >= 2 has m < bit_length, so the scan
    # stops after O(log base) steps however large root is
    m = 2
    while m <= root and m < base.bit_length():
        if root % m == 0:
            c = iroot(base, m)
            if c ** m == base:
                base, root = c, root // m
                continue
        m += 1
    return base, root


@functools.total_ordering
@dataclass(frozen=True)
class HeightValue:
    """Exact height base**(1/root), canonicalized to the smallest root."""

    base: int
    root: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or not isinstance(self.root, int):
            raise TypeError("base and root must be int")
        if self.base < 1 or self.root < 1:
            raise ValueError("base and root must be >= 1")
        base, root = _canonical(self.base, self.root)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "root", root)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeightValue):
            return NotImplemented
        return self.base == other.base and self.root == other.root

    def __hash__(self) -> int:
        return hash((self.base, self.root))

    def __lt__(self, other: "HeightValue") -> bool:
        if not isinstance(other, HeightValue):
            return NotImplemented
        # base**(1/root) < other.base**(1/other.root)
        # <=> base**other.root < other.base**root; a b-bit base gives
        # 2**((b-1)*other.root) <= base**other.root < 2**(b*other.root), and
        # only overlapping ranges need the cross powers
        b, ob = self.base.bit_length(), other.base.bit_length()
        if b * other.root <= (ob - 1) * self.root:
            return True
        if (b - 1) * other.root >= ob * self.root:
            return False
        return self.base ** other.root < other.base ** self.root

    def __str__(self) -> str:
        return str(self.base) if self.root == 1 else f"{self.base}^(1/{self.root})"

    def __float__(self) -> float:
        return self.base ** (1.0 / self.root)

    def log_height(self, bits: int = 128) -> Interval:
        """Certified interval for (1/root) * ln(base)."""
        e = ln_enclosure(self.base, bits)
        return Interval(e.lower / self.root, e.upper / self.root)


def height(r: RationalPoint, kind: HeightKind) -> HeightValue:
    """Height of a reduced rational point under the given kind."""
    dens = [coord.denominator for coord in r]
    if not dens:
        raise ValueError("point must have at least one coordinate")
    if kind is HeightKind.MAX:
        return HeightValue(max(dens))
    if kind is HeightKind.MIN:
        return HeightValue(min(dens))
    if kind is HeightKind.PROD:
        return HeightValue(math.prod(dens))
    if kind is HeightKind.PROD_ROOT:
        return HeightValue(math.prod(dens), len(dens))
    if kind is HeightKind.LCM:
        return HeightValue(math.lcm(*dens))
    raise ValueError(f"unknown height kind {kind!r}")


def fs_exponent(kind: HeightKind, d: int) -> Interval:
    """Closed-form critical exponent for the kind in dimension d.

    Exact kinds come back as degenerate intervals; max needs interval
    arithmetic and is returned at width <= 1e-9 (d >= 2 only).
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")
    if kind is HeightKind.MIN or kind is HeightKind.PROD_ROOT:
        two = Fraction(2)
        return Interval(two, two)
    if kind is HeightKind.PROD:
        v = Fraction(2, d)
        return Interval(v, v)
    if kind is HeightKind.LCM:
        v = 1 + Fraction(1, d)
        return Interval(v, v)
    if kind is HeightKind.MAX:
        if d == 1:
            raise ValueError("max exponent is undefined for d = 1")
        bits = 160
        while True:
            denom = pow_enclosure(d - 1, Fraction(d - 1, d), bits)
            out = Interval(d / denom.upper, d / denom.lower)
            if out.width <= Fraction(1, 10 ** 9):
                return out
            bits *= 2
    raise ValueError(f"unknown height kind {kind!r}")
