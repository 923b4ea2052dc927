"""Growth-rate diagnostics read off record chains.

For a record at height H with certified error enclosure [e_lo, e_hi] the
quotient -log(err)/log(H) brackets the local approximation exponent.  A
trace's ``entries`` hold one such interval per record at height >= 2; the
reported estimate is either the last entry past the warm-up cutoff
(default) or the entry with the largest certified lower endpoint.

The default estimate reads the uncertified record walk
(``approx_search._record_walk``), whose records are integer keys: it bisects
their rising heights, read off the denominators, for the entries, and builds
a certified error, and takes logs, for the last record only.  That count is
exact, as every record at height H >= 2 has a usable quotient:

- Every walk starts at height 1, whose point takes the nearest integer of
  each coordinate in [0, 1): its error is at most 1/2.  A later record's
  certified comparison puts its error e strictly below that one, and e > 0
  as the coordinates are irrational.
- ``ErrVal.certified_interval`` returns an interval [e_lo, e_hi] around e
  with e_lo > 0, or raises.  Either its relative width is at most 2**-40,
  so e_hi <= e_lo * (1 + 2**-40) <= e * (1 + 2**-40) < 1, or the budget ran
  out and it returns the last interval: coordinate i's error then lies
  within the width 2**-budget_i <= 1/2 of its enclosure at its own budget
  of at least one bit, so e_hi <= e + 1/2 < 1.
- H >= 2 makes the certified lower end of ln(H) at least that of ln(2) > 0
  (``HeightValue.log_height``).

``_quotient`` raises ``AssertionError`` should a record break this.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, List, Optional, Sequence, Tuple

from .approx_search import DEFAULT_ENUM_CAP, _record_err, _record_height, _record_walk, records
from .errors import InsufficientDataError
from .heights import HeightKind, HeightValue
from .numerics import Interval, RealTarget, ln_enclosure, pow_enclosure

_REDUCERS = ("last", "running_max")
_LOG_BITS = 160
_TWO = HeightValue(2)


@dataclass(frozen=True)
class TraceEntry:
    height: HeightValue
    value: Interval


@dataclass(frozen=True)
class _Trace:
    """An estimate and the count of its entries, the records at height >= 2.

    ``entries`` are computed by ``_eager`` when first read.
    """

    kind: HeightKind
    cap: HeightValue
    estimate: Interval
    n_entries: int
    _eager: Callable[[], Tuple[TraceEntry, ...]] = field(repr=False, compare=False)

    @cached_property
    def entries(self) -> Tuple[TraceEntry, ...]:
        return self._eager()

    @property
    def value(self) -> float:
        return float(self.estimate.lower)


@dataclass(frozen=True)
class ExponentTrace(_Trace):
    @property
    def running_max(self) -> Tuple[Fraction, ...]:
        out: List[Fraction] = []
        cur: Optional[Fraction] = None
        for e in self.entries:
            cur = e.value.lower if cur is None else max(cur, e.value.lower)
            out.append(cur)
        return tuple(out)


@dataclass(frozen=True)
class ConstantTrace(_Trace):
    tau: Fraction


_Value = Callable[[HeightValue, Interval], Interval]


def _quotient(height: HeightValue, err: Interval) -> Interval:
    if err.lower <= 0 or err.upper >= 1:
        raise AssertionError(f"record at height {height} has error {err} outside (0, 1)")
    ln_err = ln_enclosure(err, bits=_LOG_BITS)
    den = height.log_height(_LOG_BITS)
    if den.lower <= 0:
        raise AssertionError(f"record height {height} has no positive log")
    return Interval(-ln_err.upper / den.upper, -ln_err.lower / den.lower)


def _tail(chain, key, warmup: int, lo: int = 0) -> int:
    """Bisect for the first record past the warm-up; an estimate needs 3 from it."""
    start = bisect_left(chain, HeightValue(warmup), lo, key=key)
    n = len(chain) - start
    if n < 3:
        raise InsufficientDataError(f"{n} usable records past height {warmup}, need at least 3")
    return start


def _eager_entries(x, kind, height_cap, enum_cap, value: _Value) -> Tuple[TraceEntry, ...]:
    chain = records(x, kind, height_cap, enum_cap=enum_cap)
    first = bisect_left(chain, _TWO, key=lambda r: r.height)
    return tuple(TraceEntry(r.height, value(r.height, r.error)) for r in chain[first:])


def _read(
    cls, x, walk_kind, height_cap, warmup, reducer, enum_cap, value: _Value, pick, **fields
):
    """A ``cls`` trace of the records of ``x`` under ``walk_kind``, with its
    estimate.

    ``last`` walks the records uncertified and certifies the last one only.
    The running reducers ``pick`` from every entry past the warm-up.
    """
    eager = partial(_eager_entries, kind=walk_kind, height_cap=height_cap,
                    enum_cap=enum_cap, value=value)
    if reducer == "last":
        targets, walk = _record_walk(x, walk_kind, height_cap, enum_cap)
        walk = list(walk)
        key = partial(_record_height, kind=walk_kind)
        first = bisect_left(walk, _TWO, key=key)
        _tail(walk, key, warmup, first)
        err = _record_err(targets, walk[-1]).certified_interval()
        return cls(
            estimate=value(key(walk[-1]), err),
            n_entries=len(walk) - first,
            _eager=partial(eager, x),
            **fields,
        )
    entries = eager(x)
    return cls(
        estimate=pick(e.value for e in entries[_tail(entries, lambda e: e.height, warmup):]),
        n_entries=len(entries),
        _eager=lambda: entries,
        **fields,
    )


def _check(reducer: str, reducers: Sequence[str], warmup: int) -> None:
    """The checks that run before any record walk."""
    if reducer not in reducers:
        raise ValueError(f"unknown reducer {reducer!r}")
    if not isinstance(warmup, int) or warmup < 1:
        raise ValueError(f"warmup must be an integer >= 1, got {warmup!r}")


def _omega_trace(x, kind, height_cap, warmup, reducer, enum_cap) -> ExponentTrace:
    kind_eff = HeightKind.MAX if kind is HeightKind.MIN else kind
    return _read(
        ExponentTrace, x, kind_eff, height_cap, warmup, reducer, enum_cap, _quotient,
        lambda ivs: max(ivs, key=lambda iv: iv.lower), kind=kind, cap=height_cap,
    )


def omega_estimate(
    x: Sequence[RealTarget],
    kind: HeightKind,
    height_cap: HeightValue,
    warmup: int = 100,
    reducer: str = "last",
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> ExponentTrace:
    """Estimate the best-approximation exponent from the record chain up to
    ``height_cap``.

    The min height admits arbitrarily good one-coordinate approximations, so
    its exponent is taken as the max over per-coordinate estimates instead of
    a joint record sweep.
    """
    _check(reducer, _REDUCERS, warmup)
    x = tuple(x)
    if kind is HeightKind.MIN and len(x) > 1:
        traces = [
            _omega_trace((t,), kind, height_cap, warmup, reducer, enum_cap) for t in x
        ]
        return max(traces, key=lambda tr: tr.estimate.lower)
    return _omega_trace(x, kind, height_cap, warmup, reducer, enum_cap)


def constant_estimate(
    x: Sequence[RealTarget],
    kind: HeightKind,
    tau: Fraction,
    height_cap: HeightValue,
    warmup: int = 100,
    reducer: str = "running_min",
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> ConstantTrace:
    """Estimate lim inf of err * H^tau along the record chain.

    tau = 0 collapses to the smallest record error itself.
    """
    tau = Fraction(tau)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    _check(reducer, ("running_min", "last"), warmup)

    def scaled(hv: HeightValue, err: Interval) -> Interval:
        hp = pow_enclosure(hv.base, tau / hv.root, bits=_LOG_BITS)
        return Interval(err.lower * hp.lower, err.upper * hp.upper)

    return _read(
        ConstantTrace, tuple(x), kind, height_cap, warmup, reducer, enum_cap, scaled,
        lambda ivs: min(ivs, key=lambda iv: (iv.lower, iv.upper)),
        kind=kind, cap=height_cap, tau=tau,
    )


def trace_csv_rows(trace) -> List[Tuple[int, int, Fraction, Fraction]]:
    return [
        (e.height.base, e.height.root, e.value.lower, e.value.upper)
        for e in trace.entries
    ]
