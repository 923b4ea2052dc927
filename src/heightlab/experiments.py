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
from dataclasses import dataclass, fields
from fractions import Fraction
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .approx_search import DEFAULT_ENUM_CAP, check_tau_terms, solutions_count
from .errors import CapExceededError, InsufficientDataError
from .exponents import omega_estimate
from .heights import HeightKind, HeightValue, floor_pow
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
_SERIES_CHUNK = 1 << 18  # terms summed per numpy pass: 2 MB of floats

# Monte Carlo acceptance bands around the almost-everywhere exponent 2.
MEDIAN_BAND = (Fraction(37, 20), Fraction(43, 20))
TRIAL_BAND = (Fraction(7, 4), Fraction(9, 4))
TRIAL_BAND_MIN_FRACTION = Fraction(9, 10)


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


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
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["kind"] = self.kind.name.lower()
        obj["tau"] = None if self.tau is None else _frac_str(self.tau)
        obj["height_cap"] = [self.height_cap.base, self.height_cap.root]
        return obj

    @staticmethod
    def from_json(obj: Dict) -> "RunConfig":
        """The config of ``to_json``; a field missing from ``obj`` (``warmup``
        and ``out`` in older run files) takes its default."""
        kw = {f.name: obj[f.name] for f in fields(RunConfig) if f.name in obj}
        kw["kind"] = HeightKind[obj["kind"].upper()]
        kw["tau"] = None if obj["tau"] is None else Fraction(obj["tau"])
        kw["height_cap"] = HeightValue(*obj["height_cap"])
        return RunConfig(**kw)


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
        run_json, trials_csv = run_files(path)
        with open(run_json, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
        with open(trials_csv, "w") as fh:
            fh.write("trial,seed,status,estimate_lo,estimate_hi,records\n")
            for i, row in enumerate(self.trials):
                fh.write(
                    f"{i},{row['seed']},{row['status']},"
                    f"{row.get('estimate_lo', '')},{row.get('estimate_hi', '')},"
                    f"{row.get('records', '')}\n"
                )


def run_files(path: str) -> Tuple[str, str]:
    """The files ``RunResult.save(path)`` writes: the run JSON and its trials CSV."""
    stem, _ = os.path.splitext(path)
    return path, stem + "_trials.csv"


def _omega_trial(job: Tuple[RunConfig, int]) -> Dict:
    cfg, seed = job
    x = sample_uniform(seed, cfg.d, budget=cfg.precision_budget)
    row: Dict = {"seed": seed}
    try:
        tr = omega_estimate(
            x, cfg.kind, cfg.height_cap, warmup=cfg.warmup, enum_cap=cfg.enum_cap
        )
    except (InsufficientDataError, CapExceededError) as exc:
        row["status"] = type(exc).__name__
        return row
    row["status"] = "ok"
    row["estimate_lo"] = _frac_str(tr.estimate.lower)
    row["estimate_hi"] = _frac_str(tr.estimate.upper)
    row["records"] = tr.n_entries
    return row


def khintchine_experiment(cfg: RunConfig, workers: Optional[int] = None) -> RunResult:
    """Sample ``cfg.trials`` points, estimate each exponent to the height cap,
    and report the distribution of final estimates."""
    if cfg.d < 2:
        raise ValueError("need d >= 2")
    if cfg.trials < 1:
        raise ValueError("need trials >= 1")
    if cfg.kind not in (HeightKind.MAX, HeightKind.PROD_ROOT, HeightKind.MIN):
        raise ValueError(f"unsupported kind {cfg.kind.name.lower()}")
    if cfg.out:
        # the run files are written once every trial has run: check them first
        for path in run_files(cfg.out):
            existed = os.path.exists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise ValueError(f"cannot write output {path!r}: {exc}")
            if not existed:
                os.remove(path)
    started = time.perf_counter()
    jobs = [(cfg, cfg.base_seed + i) for i in range(cfg.trials)]
    if workers is None:
        workers = min(8, os.cpu_count() or 1)
    if workers <= 1:
        rows = [_omega_trial(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

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
        Fraction(r["estimate_lo"]) for r in rows if r.get("status") == "ok"
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


def series_diagnostic(
    kind: HeightKind, d: int, tau: Fraction, s: Fraction, q_max: int = 10 ** 5
) -> SeriesReport:
    """Partial sums of the covering series together with the exact verdict.

    The max height sums q^(2d-1-tau*s); the rooted product raises the inner
    sum over q^(1-tau*s/d) to the d-th power.  Both converge exactly when
    s > 2d/tau, decided in rational arithmetic independent of the sums.
    """
    import numpy as np

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
    # the carried total heads each chunk's cumsum, so the additions run left
    # to right as in one cumsum over all q and the partial sums are the same
    partials = []
    total = 0.0
    for start in range(1, q_max + 1, _SERIES_CHUNK):
        q = np.arange(start, min(start + _SERIES_CHUNK, q_max + 1), dtype=np.float64)
        csum = np.cumsum(np.concatenate(([total], q ** float(exponent))))
        for m in marks:
            if start <= m < start + len(q):
                val = float(csum[m - start + 1])
                if kind is HeightKind.PROD_ROOT:
                    val = val ** d
                partials.append((m, val))
        total = csum[-1]
    return SeriesReport(kind, d, tau, s, exponent, crit, verdict, tuple(partials))


@dataclass(frozen=True)
class BoxCountReport:
    kind: HeightKind
    tau: Fraction
    levels: Tuple[Tuple[int, int], ...]
    skipped: Tuple[int, ...]  # always (): no band is empty, see _band
    slope: float
    residual: float


def _band(level: int, tau: Fraction, root: int) -> range:
    """Heights n in (B^root / 2^root, B^root] with B = 2^(level/tau).

    root = 1 gives the max heights q, root = 2 the products q1*q2.  With
    r = floor(B^root), n <= B^root iff n <= r, and n > B^root / 2^root iff
    2^root * n > r, i.e. n > r // 2^root.  The band is never empty: r >= 1,
    and r // 2^root + 1 <= r for every r >= 1.
    """
    r = floor_pow(1 << (root * level), 1 / tau)
    return range(r // 2 ** root + 1, r + 1)


def _den_pairs(kind: HeightKind, n: int) -> Iterator[Tuple[int, int]]:
    """Denominator pairs (q1, q2) of height n: max(q1, q2) = n under max,
    q1 * q2 = n under the rooted product."""
    if kind is HeightKind.MAX:
        yield n, n
        for t in range(1, n):
            yield n, t
            yield t, n
    else:
        for q1 in range(1, n + 1):
            if n % q1 == 0:
                yield q1, n // q1


def _cells(q: int, k: int, level: int) -> int:
    """Bitmask of the level-``level`` dyadic cells met by the balls
    [p/q - 1/k, p/q + 1/k] with 0 <= p < q and gcd(p, q) = 1.

    The ball's ends scaled by 2^level are (p*k -+ q) * 2^level / (q*k), so
    their floors, clipped to [0, 2^level - 1], bound the cells it meets.
    """
    top = (1 << level) - 1
    den = q * k
    out = 0
    for p in range(q):
        if math.gcd(p, q) == 1:
            lo = max(0, ((p * k - q) << level) // den)
            hi = min(top, ((p * k + q) << level) // den)
            out |= ((2 << (hi - lo)) - 1) << lo
    return out


def _bits(mask: int) -> List[int]:
    """Indices of the set bits of ``mask``."""
    import numpy as np

    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist()


def box_count_probe(
    kind: HeightKind,
    tau: Fraction,
    d: int = 2,
    grid_levels: Sequence[int] = tuple(range(6, 15)),
) -> BoxCountReport:
    """Count dyadic cells touched by the approximation balls whose height
    matches the cell scale, then fit log(count) against log(1/delta).

    The balls are centred at (p1/q1, p2/q2) in lowest terms with radius
    1/k at height n = Theta^root, where k = floor(Theta^tau) is
    ``floor_pow(n, tau / root)``, so 1/k >= Theta^(-tau) with equality on
    exact roots.  Radii and cells are exact integer arithmetic; only the fit
    uses floats.  The cells met by the balls of one denominator pair are the
    product of the cells met in each coordinate, so a level's count is the
    sum over x-cells of the y-cells met above them: each x-cell keeps one
    integer row, the OR of the y-masks of the partners q2 of every q1 whose
    balls meet it.

    Exploratory: finite scales only bracket the limsup set loosely.
    """
    import numpy as np

    if d != 2:
        raise ValueError("probe is implemented for d = 2")
    if kind not in _SERIES_KINDS:
        raise ValueError(f"probe is defined for max and prod_d_root, not {kind.name.lower()}")
    tau = Fraction(tau)
    if not 2 <= tau <= 8:
        raise ValueError("need 2 <= tau <= 8")
    check_tau_terms(tau)
    levels = list(grid_levels)
    if len(levels) < 3 or min(levels) < 0:
        raise ValueError(f"fit needs at least 3 grid levels, each >= 0, got {levels}")
    root = 1 if kind is HeightKind.MAX else 2
    counts: List[Tuple[int, int]] = []
    for level in levels:
        rows = [0] * (1 << level)
        for n in _band(level, tau, root):
            k = floor_pow(n, tau / root)
            pairs = list(_den_pairs(kind, n))
            masks = {q: _cells(q, k, level) for q in {q for pair in pairs for q in pair}}
            partners: Dict[int, int] = {}
            for q1, q2 in pairs:
                partners[q1] = partners.get(q1, 0) | masks[q2]
            for q1, ys in partners.items():
                for ix in _bits(masks[q1]):
                    rows[ix] |= ys
        counts.append((level, sum(row.bit_count() for row in rows)))
    xs = np.array([lv for lv, _ in counts], dtype=np.float64) * math.log(2.0)
    ys = np.log(np.array([c for _, c in counts], dtype=np.float64))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return BoxCountReport(kind, tau, tuple(counts), (), float(slope), resid)


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
