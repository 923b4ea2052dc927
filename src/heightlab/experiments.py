"""Desk-scale experiments: Monte Carlo exponent statistics, covering-series
diagnostics, a box-counting probe, and the min-height growth census.

Every run is reproducible from its config alone: trial seeds are
``base_seed + index``, workers only parallelize an index-keyed map, and
aggregation folds rows in index order.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .approx_search import DEFAULT_ENUM_CAP, solutions_count
from .errors import CapExceededError, InsufficientDataError
from .exponents import omega_estimate
from .heights import HeightKind, HeightValue, iroot
from .numerics import (
    DEFAULT_PRECISION_BUDGET,
    golden_target,
    liouville_target,
    sample_uniform,
    sqrt2_target,
)

FORMAT_VERSION = 1

_SERIES_KINDS = (HeightKind.MAX, HeightKind.PROD_ROOT)
_CHECKPOINTS = (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)

# Monte Carlo acceptance bands around the almost-everywhere exponent 2.
MEDIAN_BAND = (Fraction(37, 20), Fraction(43, 20))
TRIAL_BAND = (Fraction(7, 4), Fraction(9, 4))
TRIAL_BAND_MIN_FRACTION = Fraction(9, 10)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_frac(s: str) -> Fraction:
    return Fraction(s)


@dataclass(frozen=True)
class RunConfig:
    name: str
    d: int
    kind: HeightKind
    tau: Optional[Fraction]
    base_seed: int
    trials: int
    height_cap: HeightValue
    precision_budget: int = DEFAULT_PRECISION_BUDGET
    enum_cap: int = DEFAULT_ENUM_CAP
    warmup: int = 100
    out: Optional[str] = None

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "d": self.d,
            "kind": self.kind.name.lower(),
            "tau": None if self.tau is None else _frac_str(self.tau),
            "base_seed": self.base_seed,
            "trials": self.trials,
            "height_cap": [self.height_cap.base, self.height_cap.root],
            "precision_budget": self.precision_budget,
            "enum_cap": self.enum_cap,
            "warmup": self.warmup,
            "out": self.out,
        }

    @staticmethod
    def from_json(obj: Dict) -> "RunConfig":
        return RunConfig(
            name=obj["name"],
            d=obj["d"],
            kind=HeightKind[obj["kind"].upper()],
            tau=None if obj["tau"] is None else _parse_frac(obj["tau"]),
            base_seed=obj["base_seed"],
            trials=obj["trials"],
            height_cap=HeightValue(*obj["height_cap"]),
            precision_budget=obj["precision_budget"],
            enum_cap=obj["enum_cap"],
            warmup=obj.get("warmup", 100),
            out=obj.get("out"),
        )


@dataclass(frozen=True)
class RunResult:
    config: RunConfig
    trials: Tuple[Dict, ...]
    aggregates: Dict
    wall_time: float
    format_version: int = FORMAT_VERSION

    def to_json(self) -> Dict:
        return {
            "config": self.config.to_json(),
            "format_version": self.format_version,
            "trials": list(self.trials),
            "aggregates": self.aggregates,
            "wall_time": self.wall_time,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
        stem, _ = os.path.splitext(path)
        with open(stem + "_trials.csv", "w") as fh:
            fh.write("trial,seed,status,estimate_lo,estimate_hi,records\n")
            for i, row in enumerate(self.trials):
                fh.write(
                    f"{i},{row['seed']},{row['status']},"
                    f"{row.get('estimate_lo', '')},{row.get('estimate_hi', '')},"
                    f"{row.get('records', '')}\n"
                )


def _omega_trial(args) -> Dict:
    seed, d, kind_name, cap, budget, enum_cap, warmup = args
    x = sample_uniform(seed, d, budget=budget)
    kind = HeightKind[kind_name]
    row: Dict = {"seed": seed}
    try:
        tr = omega_estimate(
            x, kind, HeightValue(*cap), warmup=warmup, enum_cap=enum_cap
        )
    except (InsufficientDataError, CapExceededError) as exc:
        row["status"] = type(exc).__name__
        return row
    row["status"] = "ok"
    row["estimate_lo"] = _frac_str(tr.estimate.lower)
    row["estimate_hi"] = _frac_str(tr.estimate.upper)
    row["records"] = len(tr.entries)
    return row


def khintchine_experiment(cfg: RunConfig, workers: Optional[int] = None) -> RunResult:
    """Sample ``cfg.trials`` points, estimate each exponent to the height cap,
    and report the distribution of final estimates."""
    if cfg.d < 2:
        raise ValueError("need d >= 2")
    if cfg.kind not in (HeightKind.MAX, HeightKind.PROD_ROOT, HeightKind.MIN):
        raise ValueError(f"unsupported kind {cfg.kind.name.lower()}")
    started = time.perf_counter()
    jobs = [
        (
            cfg.base_seed + i,
            cfg.d,
            cfg.kind.name,
            (cfg.height_cap.base, cfg.height_cap.root),
            cfg.precision_budget,
            cfg.enum_cap,
            cfg.warmup,
        )
        for i in range(cfg.trials)
    ]
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    if workers <= 1:
        rows = [_omega_trial(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_omega_trial, jobs, chunksize=4))
    result = RunResult(
        config=cfg,
        trials=tuple(rows),
        aggregates=_omega_aggregates(rows),
        wall_time=time.perf_counter() - started,
    )
    if cfg.out:
        result.save(cfg.out)
    return result


def _omega_aggregates(rows: Sequence[Dict]) -> Dict:
    values = [
        _parse_frac(r["estimate_lo"]) for r in rows if r.get("status") == "ok"
    ]
    failed = len(rows) - len(values)
    if not values:
        return {"ok": 0, "failed": failed, "passes": False}
    values.sort()
    med = median(values)
    lo, hi = TRIAL_BAND
    within = sum(1 for v in values if lo <= v <= hi)
    # failed trials count against the within-band quota, not the median
    passes = (
        MEDIAN_BAND[0] <= med <= MEDIAN_BAND[1]
        and within >= TRIAL_BAND_MIN_FRACTION * len(rows)
    )
    return {
        "ok": len(values),
        "failed": failed,
        "median": float(med),
        "q10": float(values[max(0, len(values) // 10 - 1)]),
        "q90": float(values[min(len(values) - 1, (9 * len(values)) // 10)]),
        "within_band": within,
        "passes": bool(passes),
    }


def critical_exponent(d: int, tau: Fraction) -> Fraction:
    return Fraction(2 * d) / Fraction(tau)


@dataclass(frozen=True)
class SeriesReport:
    kind: HeightKind
    d: int
    tau: Fraction
    s: Fraction
    term_exponent: Fraction
    critical: Fraction
    verdict: str
    partials: Tuple[Tuple[int, float], ...]

    def csv_rows(self) -> List[Tuple[int, float]]:
        return list(self.partials)


def series_diagnostic(
    kind: HeightKind, d: int, tau: Fraction, s: Fraction, q_max: int = 10 ** 5
) -> SeriesReport:
    """Partial sums of the covering series together with the exact verdict.

    The max height sums q^(2d-1-tau*s); the rooted product raises the inner
    sum over q^(1-tau*s/d) to the d-th power.  Both converge exactly when
    s > 2d/tau, decided in rational arithmetic independent of the sums.
    """
    if kind not in _SERIES_KINDS:
        raise ValueError(f"series is defined for max and prod_d_root, not {kind.name.lower()}")
    if d < 1:
        raise ValueError("need d >= 1")
    tau = Fraction(tau)
    s = Fraction(s)
    if tau < 2:
        raise ValueError("need tau >= 2")
    if s <= 0:
        raise ValueError("need s > 0")
    if q_max < _CHECKPOINTS[0]:
        raise ValueError(f"need q_max >= {_CHECKPOINTS[0]}")
    crit = critical_exponent(d, tau)
    if kind is HeightKind.MAX:
        exponent = 2 * d - 1 - tau * s
    else:
        exponent = 1 - tau * s / d
    if s > crit:
        verdict = "converges"
    elif s == crit:
        verdict = "diverges (boundary)"
    else:
        verdict = "diverges"
    marks = [c for c in _CHECKPOINTS if c <= q_max]
    if marks[-1] != q_max:
        marks.append(q_max)
    q = np.arange(1, q_max + 1, dtype=np.float64)
    csum = np.cumsum(q ** float(exponent))
    partials = []
    for m in marks:
        val = float(csum[m - 1])
        if kind is HeightKind.PROD_ROOT:
            val = val ** d
        partials.append((m, val))
    return SeriesReport(kind, d, tau, s, exponent, crit, verdict, tuple(partials))


@dataclass(frozen=True)
class BoxCountReport:
    kind: HeightKind
    tau: Fraction
    levels: Tuple[Tuple[int, int], ...]
    skipped: Tuple[int, ...]
    slope: float
    residual: float


def _band_heights_max(level: int, tau: Fraction) -> List[int]:
    # q in (B/2, B] with B = 2^(level/tau), checked as q^a vs 2^(level*b)
    a, b = tau.numerator, tau.denominator
    cap = 1 << (level * b)
    q_hi = 1
    while (q_hi + 1) ** a <= cap:
        q_hi += 1
    out = [q for q in range(1, q_hi + 1) if (2 * q) ** a > cap]
    return out


def _band_products(level: int, tau: Fraction) -> List[int]:
    # q1*q2 in (B^2/4, B^2] with B^2 = 2^(2*level/tau)
    a, b = tau.numerator, tau.denominator
    cap = 1 << (2 * level * b)
    p_hi = 1
    while (p_hi + 1) ** a <= cap:
        p_hi += 1
    return [p for p in range(1, p_hi + 1) if (4 * p) ** a > cap]


def _coprime_lists(n: int) -> List[int]:
    return [p for p in range(n) if math.gcd(p, n) == 1] or [0]


def _ball_points_max(q_values: Sequence[int]) -> List[Tuple[Fraction, Fraction, int]]:
    pts = []
    for q in q_values:
        for q1, q2 in {(q, t) for t in range(1, q + 1)} | {(t, q) for t in range(1, q + 1)}:
            for p1 in _coprime_lists(q1):
                for p2 in _coprime_lists(q2):
                    pts.append((Fraction(p1, q1), Fraction(p2, q2), q))
    return pts


def _ball_points_prod(products: Sequence[int]) -> List[Tuple[Fraction, Fraction, int]]:
    pts = []
    for prod in products:
        for q1 in range(1, prod + 1):
            if prod % q1:
                continue
            q2 = prod // q1
            for p1 in _coprime_lists(q1):
                for p2 in _coprime_lists(q2):
                    pts.append((Fraction(p1, q1), Fraction(p2, q2), prod))
    return pts


def _cell_span(center: Fraction, radius: Fraction, level: int) -> range:
    scale = 1 << level
    lo = (center - radius) * scale
    hi = (center + radius) * scale
    lo_i = max(0, lo.numerator // lo.denominator)
    hi_i = min(scale - 1, hi.numerator // hi.denominator)
    return range(lo_i, hi_i + 1)


def box_count_probe(
    kind: HeightKind,
    tau: Fraction,
    d: int = 2,
    grid_levels: Sequence[int] = tuple(range(6, 15)),
) -> BoxCountReport:
    """Count dyadic cells touched by the approximation balls whose height
    matches the cell scale, then fit log(count) against log(1/delta).

    Exploratory: finite scales only bracket the limsup set loosely.
    """
    if d != 2:
        raise ValueError("probe is implemented for d = 2")
    if kind not in _SERIES_KINDS:
        raise ValueError(f"probe is defined for max and prod_d_root, not {kind.name.lower()}")
    tau = Fraction(tau)
    if not 2 <= tau <= 8:
        raise ValueError("need 2 <= tau <= 8")
    counts: List[Tuple[int, int]] = []
    skipped: List[int] = []
    for level in grid_levels:
        if kind is HeightKind.MAX:
            band = _band_heights_max(level, tau)
            pts = _ball_points_max(band)
        else:
            band = _band_products(level, tau)
            pts = _ball_points_prod(band)
        if not band:
            skipped.append(level)
            continue
        cells = set()
        scale = 1 << level
        for c1, c2, theta in pts:
            if kind is HeightKind.MAX:
                radius = _theta_radius(theta, tau, 1)
            else:
                radius = _theta_radius(theta, tau, 2)
            for ix in _cell_span(c1, radius, level):
                base = ix * scale
                for iy in _cell_span(c2, radius, level):
                    cells.add(base + iy)
        counts.append((level, len(cells)))
    if len(counts) < 3:
        raise ValueError("fit needs at least 3 non-empty levels")
    xs = np.array([lv for lv, _ in counts], dtype=np.float64) * math.log(2.0)
    ys = np.log(np.array([c for _, c in counts], dtype=np.float64))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return BoxCountReport(kind, tau, tuple(counts), tuple(skipped), float(slope), resid)


def _theta_radius(theta: int, tau: Fraction, root: int) -> Fraction:
    """Upper bound on Theta^(-tau) where Theta = theta^(1/root).

    With k = iroot(theta^a, b * root) for tau = a/b, k^(b*root) <= theta^a,
    so k <= Theta^tau and 1/k >= Theta^(-tau); equality holds on exact roots.
    """
    return Fraction(1, iroot(theta ** tau.numerator, tau.denominator * root))


@dataclass(frozen=True)
class SplitRow:
    label: str
    caps: Tuple[HeightValue, ...]
    counts: Tuple[int, ...]
    verdict: str


@dataclass(frozen=True)
class SplitReport:
    tau: Fraction
    rows: Tuple[SplitRow, ...]

    def row(self, label: str) -> SplitRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def _growth_verdict(counts: Sequence[int]) -> str:
    if all(a < b for a, b in zip(counts, counts[1:])):
        return "growing"
    if counts[-1] == counts[-2]:
        return "stagnating"
    return "mixed"


def min_split_experiment(
    tau: Fraction,
    q_max_schedule: Sequence[HeightValue],
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> SplitReport:
    """Count min-height solutions for the fixture pairs at each cap.

    A pair with one well-approximable coordinate should keep acquiring
    witnesses; a badly-approximable pair should stall after the trivial ones.
    """
    tau = Fraction(tau)
    if tau <= 2:
        raise ValueError("need tau > 2")
    caps = tuple(q_max_schedule)
    fixtures = [
        ("liouville,golden", (liouville_target(), golden_target())),
        ("golden,liouville", (golden_target(), liouville_target())),
        ("golden,sqrt2", (golden_target(), sqrt2_target())),
    ]
    rows = []
    for label, point in fixtures:
        counts = tuple(
            solutions_count(point, HeightKind.MIN, tau, cap, enum_cap=enum_cap)
            for cap in caps
        )
        rows.append(SplitRow(label, caps, counts, _growth_verdict(counts)))
    return SplitReport(tau, tuple(rows))
