"""Full-scale acceptance runs for the whole package.

Each test exercises one end-to-end guarantee at production scale and records
a single PASS/FAIL summary line; conftest prints the collected lines after
the run.  The eight checks take about 30 s on 2 cores; run them alone with

    pytest tests/test_acceptance.py -v
"""

import random
import time
from fractions import Fraction
from math import gcd

from heightlab.approx_search import (
    Budget,
    brute_force_best,
    fast_best,
    records,
)
from heightlab.cf_engine import expand, gap_inequality_check
from heightlab.exponents import omega_estimate
from heightlab.experiments import (
    RunConfig,
    box_count_probe,
    critical_exponent,
    khintchine_experiment,
    min_split_experiment,
    series_diagnostic,
)
from heightlab.heights import HeightKind, HeightValue, fs_exponent
from heightlab.numerics import Interval, parse_target, sample_uniform

FIXTURE_DEPTH = 30
RANDOM_TARGETS = 1000
RANDOM_DEPTH = 15
INSTANCES_PER_CELL = 100
TRIALS = 200
OMEGA_CAP = HeightValue(10 ** 6)
SERIES_KINDS = (HeightKind.MAX, HeightKind.PROD_ROOT)
SERIES_TAUS = (2, 3, 4, 6, 8)
SERIES_S = [Fraction(k, 4) for k in range(1, 13)]

SUMMARY_LINES = []


def _report(tag, ok, budget_s, elapsed, detail):
    line = "[%s] %s (%.1fs/%ds): %s" % (
        tag,
        "PASS" if ok else "FAIL",
        elapsed,
        budget_s,
        detail,
    )
    SUMMARY_LINES.append(line)
    print(line)
    return line


def _check_table(target, depth):
    """Exact row invariants plus a certified error gap at every depth."""
    t = expand(target, depth + 1)
    prev_q = 0
    for n in range(1, depth + 2):
        row = t.row(n)
        assert gcd(row.p, row.q) == 1, (target.key, n, "common factor")
        assert row.q > prev_q, (target.key, n, "denominators not increasing")
        prev_q = row.q
    for n in range(1, depth + 1):
        cur, nxt = t.row(n), t.row(n + 1)
        det = cur.p * nxt.q - nxt.p * cur.q
        want = 1 if n % 2 == 1 else -1
        assert det == want, (target.key, n, "determinant", det)
        cert = gap_inequality_check(t, target, n)
        assert cert.strict_lower < cert.error.lower
        assert cert.error.upper <= cert.band_upper


def test_convergent_tables_certified():
    budget = 120
    start = time.monotonic()
    for key in ("golden", "sqrt2", "e"):
        _check_table(parse_target(key), FIXTURE_DEPTH)
    for seed in range(RANDOM_TARGETS):
        _check_table(sample_uniform(seed, 1)[0], RANDOM_DEPTH)
    elapsed = time.monotonic() - start
    ok = elapsed < budget
    line = _report(
        "1 convergent tables",
        ok,
        budget,
        elapsed,
        "3 fixtures at depth %d and %d random targets at depth %d certified"
        % (FIXTURE_DEPTH, RANDOM_TARGETS, RANDOM_DEPTH),
    )
    assert ok, line


def _draw_bound(rng, d, kind):
    if d == 1:
        return rng.randint(1, 200)
    if kind is HeightKind.PROD_ROOT and d == 3:
        # keep the product grid inside the enumeration cap
        return rng.randint(2, 35)
    return rng.randint(1, 60)


def route_cases():
    """Check 2's instances (d, kind, seed, bound), drawn cell by cell."""
    kinds = (HeightKind.MAX, HeightKind.PROD, HeightKind.PROD_ROOT, HeightKind.LCM)
    for d in (1, 2, 3):
        for kind in kinds:
            rng = random.Random("route-%d-%s" % (d, kind.name))
            for _ in range(INSTANCES_PER_CELL):
                seed = rng.randrange(10 ** 6)
                yield d, kind, seed, _draw_bound(rng, d, kind)


def test_fast_search_matches_exhaustive():
    budget = 600
    start = time.monotonic()
    mismatches = []
    total = 0
    for d, kind, seed, bound in route_cases():
        x = sample_uniform(seed, d)
        b = Budget(kind, HeightValue(bound))
        rb = brute_force_best(x, b)
        rf = fast_best(x, b)
        total += 1
        if (rb.point, rb.error, rb.height) != (rf.point, rf.error, rf.height):
            mismatches.append((d, kind.name, seed, bound))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < budget
    line = _report(
        "2 search routes",
        ok,
        budget,
        elapsed,
        "%d instances, %d mismatches%s"
        % (total, len(mismatches), " %r" % mismatches[:3] if mismatches else ""),
    )
    assert ok, line


def test_random_exponent_statistics():
    budget = 1800
    start = time.monotonic()
    cells = []
    for d in (2, 3):
        for kind in (HeightKind.MAX, HeightKind.PROD_ROOT, HeightKind.MIN):
            cfg = RunConfig("khintchine", d, kind, None, 42000 + d, TRIALS, OMEGA_CAP)
            res = khintchine_experiment(cfg)
            agg = res.aggregates
            cells.append(
                (
                    "d=%d %s: median=%.4f within=%d/%d failed=%d"
                    % (
                        d,
                        kind.name.lower(),
                        agg["median"],
                        agg["within_band"],
                        TRIALS,
                        agg["failed"],
                    ),
                    agg["passes"],
                )
            )
    elapsed = time.monotonic() - start
    bad = [text for text, passed in cells if not passed]
    ok = not bad and elapsed < budget
    line = _report(
        "3 exponent statistics",
        ok,
        budget,
        elapsed,
        "; ".join(text for text, _ in cells),
    )
    assert ok, line


def test_critical_exponent_closed_forms():
    tol = Fraction(1, 10 ** 9)
    cases = [
        (HeightKind.MAX, 3, Fraction(1889881575, 10 ** 9)),
        (HeightKind.MIN, 2, Fraction(2)),
        (HeightKind.MIN, 3, Fraction(2)),
        (HeightKind.PROD, 2, Fraction(1)),
        (HeightKind.PROD_ROOT, 2, Fraction(2)),
        (HeightKind.PROD_ROOT, 3, Fraction(2)),
        (HeightKind.LCM, 2, Fraction(3, 2)),
    ]
    bad = []
    for kind, d, want in cases:
        got = fs_exponent(kind, d)
        if not (want - tol <= got.lower and got.upper <= want + tol):
            bad.append((kind.name, d))
        if got.width > 2 * tol:
            bad.append((kind.name, d, "width"))
    ok = not bad
    line = _report(
        "4 closed forms",
        ok,
        1,
        0.0,
        "%d values checked to 1e-9%s" % (len(cases), " bad=%r" % bad if bad else ""),
    )
    assert ok, line


def test_series_verdicts_and_partial_sums():
    budget = 60
    start = time.monotonic()
    verdict_bad = []
    ratio_bad = []
    flat_bad = []
    cells = 0
    for kind in SERIES_KINDS:
        for d in (1, 2, 3, 4):
            for tau in SERIES_TAUS:
                for s in SERIES_S:
                    rep = series_diagnostic(kind, d, Fraction(tau), s)
                    cells += 1
                    crit = critical_exponent(d, Fraction(tau))
                    if (rep.verdict == "converges") != (s > crit):
                        verdict_bad.append((kind.name, d, tau, str(s)))
                        continue
                    p4 = rep.partials[2][1]
                    p5 = rep.partials[3][1]
                    if rep.verdict != "converges":
                        if not p5 > 10 * p4:
                            ratio_bad.append(
                                (kind.name, d, tau, str(s), round(p5 / p4, 2))
                            )
                    elif s >= crit + Fraction(1, 4):
                        if not p5 < 1.05 * p4:
                            flat_bad.append(
                                (kind.name, d, tau, str(s), round(p5 / p4 - 1, 3))
                            )
    elapsed = time.monotonic() - start
    ok = not verdict_bad and not ratio_bad and not flat_bad and elapsed < budget
    line = _report(
        "5 covering series",
        ok,
        budget,
        elapsed,
        "%d cells; verdict mismatches=%d; divergent cells below 10x growth=%d %r; "
        "convergent cells above 5%% growth=%d %r"
        % (
            cells,
            len(verdict_bad),
            len(ratio_bad),
            ratio_bad[:4],
            len(flat_bad),
            flat_bad[:4],
        ),
    )
    assert ok, line


def test_box_count_slope():
    budget = 1200
    start = time.monotonic()
    rep = box_count_probe(HeightKind.MAX, Fraction(4), grid_levels=tuple(range(6, 15)))
    elapsed = time.monotonic() - start
    ok = 0.7 <= rep.slope <= 1.3 and not rep.skipped and elapsed < budget
    line = _report(
        "6 box-count probe",
        ok,
        budget,
        elapsed,
        "slope=%.4f residual=%.3f levels=%d..%d counts %d..%d"
        % (
            rep.slope,
            rep.residual,
            rep.levels[0][0],
            rep.levels[-1][0],
            rep.levels[0][1],
            rep.levels[-1][1],
        ),
    )
    assert ok, line


def test_min_height_witness_growth():
    budget = 600
    start = time.monotonic()
    caps = (HeightValue(10 ** 3), HeightValue(10 ** 5), HeightValue(10 ** 7))
    rep = min_split_experiment(Fraction(5), caps)
    elapsed = time.monotonic() - start
    want = {
        "liouville,golden": "growing",
        "golden,liouville": "growing",
        "golden,sqrt2": "stagnating",
    }
    bad = []
    parts = []
    for row in rep.rows:
        parts.append("%s: counts=%r %s" % (row.label, row.counts, row.verdict))
        if row.verdict != want[row.label]:
            bad.append(row.label)
    ok = not bad and elapsed < budget
    line = _report(
        "7 min-height growth",
        ok,
        budget,
        elapsed,
        "; ".join(parts),
    )
    assert ok, line


def _rooted_product(hv):
    # rooted heights carry root 2 unless the product was a perfect
    # square and canonicalized down to root 1
    return hv.base if hv.root == 2 else hv.base ** 2


def test_rooted_product_quotient_scaling():
    budget = 120
    start = time.monotonic()
    slack = Fraction(1, 10 ** 20)
    checked = 0
    bad = []
    for k in range(50):
        x = sample_uniform(9000 + k, 2)
        plain = omega_estimate(x, HeightKind.PROD, HeightValue(10 ** 4), warmup=2)
        rooted = omega_estimate(
            x, HeightKind.PROD_ROOT, HeightValue(10 ** 4, 2), warmup=2
        )
        by_product = {e.height.base: e.value for e in plain.entries}
        for entry in rooted.entries:
            base = by_product.get(_rooted_product(entry.height))
            if base is None:
                continue
            doubled = Interval(2 * base.lower, 2 * base.upper)
            got = entry.value
            overlap = (
                doubled.lower <= got.upper and got.lower <= doubled.upper
            )
            tight = doubled.width + got.width < slack * max(1, got.upper)
            checked += 1
            if not (overlap and tight):
                bad.append((9000 + k, entry.height))
    elapsed = time.monotonic() - start
    ok = checked >= 50 and not bad and elapsed < budget
    line = _report(
        "8 quotient scaling",
        ok,
        budget,
        elapsed,
        "%d record quotients over 50 points, %d outside the doubled interval"
        % (checked, len(bad)),
    )
    assert ok, line
