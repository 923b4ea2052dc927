"""Continued-fraction expansion with certified partial quotients.

The expansion of a target x in [0, 1) is [0; a_1, a_2, ...] with convergents
p_n/q_n built from the seeds p_-1 = 1, p_0 = 0, q_-1 = 0, q_0 = 1.  Rational
targets run the Euclidean algorithm exactly; stream-defined fixtures read
their quotients directly; every other target goes through interval Moebius
steps whose floors are certified before being accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import PrecisionExhaustedError
from .numerics import CFTarget, Interval, RealTarget, precisions, refine

STATUS_COMPLETE = "complete"
STATUS_TERMINATED = "terminated"
STATUS_PRECISION = "precision"

_SEEDS = (1, 0, 0, 1)  # p_-1, p_0, q_-1, q_0


@dataclass(frozen=True)
class ConvergentRow:
    n: int
    a: int
    p: int
    q: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


@dataclass
class ConvergentTable:
    """Partial quotients and convergents of one target, indexed from n = 1."""

    rows: List[ConvergentRow]
    status: str

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, n: int) -> ConvergentRow:
        if not 1 <= n <= len(self.rows):
            raise ValueError(f"row {n} outside table of length {len(self.rows)}")
        return self.rows[n - 1]

    def convergent(self, n: int) -> Fraction:
        return self.row(n).value

    def quotients(self) -> List[int]:
        return [r.a for r in self.rows]

    def denominators(self) -> List[int]:
        return [r.q for r in self.rows]

    @property
    def terminated(self) -> bool:
        return self.status == STATUS_TERMINATED

    def pair(self, n: int) -> Tuple[int, int, int, int]:
        """(p_{n-1}, q_{n-1}, p_n, q_n) including the seed column for n = 0."""
        if n == 0:
            return _SEEDS[0], _SEEDS[2], _SEEDS[1], _SEEDS[3]
        prev = self.rows[n - 2] if n >= 2 else None
        cur = self.row(n)
        if prev is None:
            return _SEEDS[1], _SEEDS[3], cur.p, cur.q
        return prev.p, prev.q, cur.p, cur.q

    def csv_rows(self) -> List[Tuple[int, int, int, int]]:
        return [(r.n, r.a, r.p, r.q) for r in self.rows]


class ConvergentCursor:
    """Incremental expansion of one target.

    ``advance()`` yields the next ConvergentRow, or None once a rational
    target terminates.  Quotients of oracle-backed targets are certified:
    the enclosure is refined until the floor of the reciprocal tail is
    unambiguous, and PrecisionExhaustedError propagates if the budget ends
    before that happens.
    """

    def __init__(self, target: RealTarget) -> None:
        self.target = target
        self._p_prev, self._p, self._q_prev, self._q = _SEEDS
        self._n = 0
        self._bits = 64
        exact = target.exact_value
        # Euclidean state: the current tail equals _num/_den in [0, 1).
        self._num: Optional[int] = exact.numerator if exact is not None else None
        self._den: Optional[int] = exact.denominator if exact is not None else None

    @property
    def state(self) -> Tuple[int, int, int, int]:
        return self._p_prev, self._p, self._q_prev, self._q

    def _next_quotient(self) -> Optional[int]:
        if self._num is not None:
            if self._num == 0:
                return None
            a = self._den // self._num
            self._num, self._den = self._den - a * self._num, self._num
            return a
        if isinstance(self.target, CFTarget):
            return self.target.partial_quotient(self._n + 1)
        return self._certified_quotient()

    def _certified_quotient(self) -> int:
        # tail t_n = (p_n - q_n x) / (q_{n-1} x - p_{n-1}); a_{n+1} = floor(1/t_n).
        # For x in [A/B, C/D] the tail's numerator lies in [NL/D, NH/B] and
        # its denominator in [DL/B, DH/D]; where neither interval holds 0 the
        # reciprocal's extremes are the four end quotients, and floor is
        # monotone, so a_{n+1} is certified when their floors agree.
        p_prev, p, q_prev, q = self._p_prev, self._p, self._q_prev, self._q
        for bits in precisions(self._bits, self.target.budget):
            e = refine(self.target, bits)
            A, B = e.lower.numerator, e.lower.denominator
            C, D = e.upper.numerator, e.upper.denominator
            NL, NH = p * D - q * C, p * B - q * A
            DL, DH = q_prev * A - p_prev * B, q_prev * C - p_prev * D
            if (NL > 0 or NH < 0) and (DL > 0 or DH < 0):
                a = DL // NH
                if (a >= 1 and DH // NL == a
                        and DL * D // (B * NL) == a and DH * B // (D * NH) == a):
                    self._bits = bits
                    return a
        raise PrecisionExhaustedError(
            f"cannot certify partial quotient a_{self._n + 1} of {self.target.key}"
            f" within {self.target.budget} bits"
        )

    def advance(self) -> Optional[ConvergentRow]:
        a = self._next_quotient()
        if a is None:
            return None
        self._n += 1
        self._p, self._p_prev = a * self._p + self._p_prev, self._p
        self._q, self._q_prev = a * self._q + self._q_prev, self._q
        return ConvergentRow(self._n, a, self._p, self._q)


def expand(target: RealTarget, n: int, strict: bool = True) -> ConvergentTable:
    """Expansion of the target to depth n.

    Rational targets may terminate earlier; the table then carries the
    terminated status.  With strict=True an uncertifiable quotient raises
    PrecisionExhaustedError, otherwise the partial table is returned with
    the precision status.
    """
    if n < 1:
        raise ValueError("depth must be >= 1")
    cursor = ConvergentCursor(target)
    rows: List[ConvergentRow] = []
    status = STATUS_COMPLETE
    for _ in range(n):
        try:
            row = cursor.advance()
        except PrecisionExhaustedError:
            if strict:
                raise
            status = STATUS_PRECISION
            break
        if row is None:
            status = STATUS_TERMINATED
            break
        rows.append(row)
    return ConvergentTable(rows, status)


def evaluate_quotients(quotients: Sequence[int]) -> Fraction:
    """Value of the finite continued fraction [0; a_1, ..., a_n].

    Independent of the convergent recurrences: folds the fraction from the
    innermost level outward.
    """
    value = Fraction(0)
    for a in reversed(quotients):
        if a < 1:
            raise ValueError("partial quotients must be >= 1")
        value = Fraction(1, a + value)
    return value


def semiconvergents(table: ConvergentTable, n: int) -> List[Fraction]:
    """Intermediate fractions between convergents n-1 and n+1.

    Returns (p_{n-1} + k p_n) / (q_{n-1} + k q_n) for k = 1 .. a_{n+1} - 1;
    requires the table to extend to depth n + 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n + 1 > len(table):
        raise ValueError(f"need depth {n + 1}, table has {len(table)}")
    p_prev, q_prev, p_cur, q_cur = table.pair(n)
    a_next = table.row(n + 1).a
    return [Fraction(p_prev + k * p_cur, q_prev + k * q_cur) for k in range(1, a_next)]


@dataclass(frozen=True)
class GapCertificate:
    """Certified two-sided error bounds for one convergent.

    All three inequalities were verified with exact arithmetic before the
    certificate was produced:

        1/(3 a_{n+1} q_n^2)  <  |x - p_n/q_n|
        1/(2 q_n q_{n+1})    <= |x - p_n/q_n| <= 1/(q_n q_{n+1})
    """

    n: int
    a_next: int
    q: int
    q_next: int
    error: Interval
    strict_lower: Fraction
    band_lower: Fraction
    band_upper: Fraction


def gap_inequality_check(table: ConvergentTable, target: RealTarget, n: int) -> GapCertificate:
    """Certify the error gap around convergent n (needs row n + 1), on a fresh
    copy of the target, so the certified interval depends only on the
    arguments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n + 1 > len(table):
        raise ValueError(
            f"gap check at n={n} needs depth {n + 1}, table has {len(table)}"
            + (" (terminated)" if table.terminated else "")
        )
    cur = table.row(n)
    nxt = table.row(n + 1)
    value = cur.value
    strict_lower = Fraction(1, 3 * nxt.a * cur.q * cur.q)
    band_lower = Fraction(1, 2 * cur.q * nxt.q)
    band_upper = Fraction(1, cur.q * nxt.q)
    target = target.clone()
    for bits in precisions(64, target.budget):
        err = refine(target, bits).distance(value)
        if (
            err.lower > strict_lower
            and err.lower >= band_lower
            and err.upper <= band_upper
        ):
            return GapCertificate(
                n, nxt.a, cur.q, nxt.q, err, strict_lower, band_lower, band_upper
            )
    raise PrecisionExhaustedError(
        f"cannot certify the gap inequalities at n={n} for {target.key}"
    )
