"""Growth-rate diagnostics read off record chains.

For a record at height H with certified error enclosure [e_lo, e_hi] the
quotient -log(err)/log(H) brackets the local approximation exponent.  The
trace keeps one such interval per record; the reported estimate is either
the last entry past the warm-up cutoff (default) or the entry with the
largest certified lower endpoint.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .approx_search import DEFAULT_ENUM_CAP, ApproxRecord, records
from .errors import InsufficientDataError
from .heights import HeightKind, HeightValue
from .numerics import Interval, RealTarget, ln_enclosure, pow_enclosure

_REDUCERS = ("last", "running_max")
_LOG_BITS = 160


@dataclass(frozen=True)
class TraceEntry:
    height: HeightValue
    value: Interval


@dataclass(frozen=True)
class ExponentTrace:
    kind: HeightKind
    cap: HeightValue
    entries: Tuple[TraceEntry, ...]
    estimate: Interval

    @property
    def value(self) -> float:
        return float(self.estimate.lower)

    @property
    def running_max(self) -> Tuple[Fraction, ...]:
        out: List[Fraction] = []
        cur: Optional[Fraction] = None
        for e in self.entries:
            cur = e.value.lower if cur is None else max(cur, e.value.lower)
            out.append(cur)
        return tuple(out)


@dataclass(frozen=True)
class ConstantTrace:
    kind: HeightKind
    tau: Fraction
    cap: HeightValue
    entries: Tuple[TraceEntry, ...]
    estimate: Interval

    @property
    def value(self) -> float:
        return float(self.estimate.lower)


def _quotient(rec: ApproxRecord) -> Optional[Interval]:
    e_lo, e_hi = rec.error.lower, rec.error.upper
    if e_lo <= 0 or e_hi >= 1:
        return None
    num_lo = -ln_enclosure(e_hi, bits=_LOG_BITS).upper
    num_hi = -ln_enclosure(e_lo, bits=_LOG_BITS).lower
    den = rec.height.log_height(_LOG_BITS)
    if den.lower <= 0:
        return None
    return Interval(num_lo / den.upper, num_hi / den.lower)


def _tail(entries: Sequence[TraceEntry], warmup: int) -> List[TraceEntry]:
    """Entries past the warm-up height; an estimate needs at least 3."""
    tail = [e for e in entries if e.height >= HeightValue(warmup)]
    if len(tail) < 3:
        raise InsufficientDataError(
            f"{len(tail)} usable records past height {warmup}, need at least 3"
        )
    return tail


def _entries_for(chain: Sequence[ApproxRecord]) -> Tuple[TraceEntry, ...]:
    out = []
    for rec in chain:
        if rec.height < HeightValue(2):
            continue
        q = _quotient(rec)
        if q is not None:
            out.append(TraceEntry(rec.height, q))
    return tuple(out)


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
    if reducer not in _REDUCERS:
        raise ValueError(f"unknown reducer {reducer!r}")
    x = tuple(x)
    if kind is HeightKind.MIN and len(x) > 1:
        traces = [
            omega_estimate((t,), HeightKind.MAX, height_cap, warmup, reducer, enum_cap)
            for t in x
        ]
        best = max(traces, key=lambda tr: tr.estimate.lower)
        return ExponentTrace(kind, height_cap, best.entries, best.estimate)
    if kind is HeightKind.MIN:
        kind_eff = HeightKind.MAX
    else:
        kind_eff = kind
    chain = records(x, kind_eff, height_cap, enum_cap=enum_cap)
    entries = _entries_for(chain)
    tail = _tail(entries, warmup)
    if reducer == "last":
        est = tail[-1].value
    else:
        est = max((e.value for e in tail), key=lambda iv: iv.lower)
    return ExponentTrace(kind, height_cap, entries, est)


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
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if reducer not in ("running_min", "last"):
        raise ValueError(f"unknown reducer {reducer!r}")
    chain = records(tuple(x), kind, height_cap, enum_cap=enum_cap)
    entries = []
    for rec in chain:
        if rec.height < HeightValue(2) or rec.error.lower <= 0:
            continue
        hp = pow_enclosure(rec.height.base, tau / rec.height.root, bits=_LOG_BITS)
        entries.append(
            TraceEntry(
                rec.height,
                Interval(rec.error.lower * hp.lower, rec.error.upper * hp.upper),
            )
        )
    entries = tuple(entries)
    tail = _tail(entries, warmup)
    if reducer == "last":
        est = tail[-1].value
    else:
        est = min((e.value for e in tail), key=lambda iv: (iv.lower, iv.upper))
    return ConstantTrace(kind, tau, height_cap, entries, est)


def trace_csv_rows(trace) -> List[Tuple[int, int, Fraction, Fraction]]:
    return [
        (e.height.base, e.height.root, e.value.lower, e.value.upper)
        for e in trace.entries
    ]
