import json
import math
from fractions import Fraction

import numpy as np
import pytest

from heightlab import experiments
from heightlab.experiments import (
    BoxCountReport,
    RunConfig,
    _band,
    _cells,
    box_count_probe,
    critical_exponent,
    khintchine_experiment,
    min_split_experiment,
    series_diagnostic,
)
from heightlab.heights import HeightKind, HeightValue, floor_pow

CAPS = (HeightValue(10 ** 3), HeightValue(10 ** 5))


def test_series_boundary_verdict():
    r = series_diagnostic(HeightKind.MAX, 2, Fraction(4), Fraction(1))
    assert r.verdict == "diverges (boundary)"
    assert r.term_exponent == -1
    assert r.critical == 1


def test_series_convergent_cell():
    r = series_diagnostic(HeightKind.MAX, 2, Fraction(4), Fraction(11, 10))
    assert r.verdict == "converges"
    assert r.term_exponent == Fraction(-7, 5)


def test_series_rooted_product_inner_exponent():
    r = series_diagnostic(HeightKind.PROD_ROOT, 2, Fraction(4), Fraction(1))
    assert r.term_exponent == -1
    assert r.verdict == "diverges (boundary)"


def test_critical_exponent_exact():
    assert critical_exponent(3, Fraction(6)) == 1
    assert critical_exponent(2, Fraction(4)) == 1
    assert critical_exponent(1, Fraction(3)) == Fraction(2, 3)


def test_series_verdict_matches_exact_inequality_on_grid():
    for kind in (HeightKind.MAX, HeightKind.PROD_ROOT):
        for d in range(1, 5):
            for tau in (2, 3, 4, 6, 8):
                for k in range(1, 13):
                    s = Fraction(k, 4)
                    r = series_diagnostic(kind, d, Fraction(tau), s, q_max=100)
                    assert (r.verdict == "converges") == (s > Fraction(2 * d, tau))


def test_series_partial_sums_increase():
    r = series_diagnostic(HeightKind.MAX, 2, Fraction(4), Fraction(1, 2))
    sums = [v for _, v in r.partials]
    assert sums == sorted(sums)
    assert [m for m, _ in r.partials] == [100, 1000, 10000, 100000]


def _full_cumsum_partials(kind, d, exponent, marks):
    """The partial sums of one cumsum over every q <= the last mark."""
    q = np.arange(1, marks[-1] + 1, dtype=np.float64)
    csum = np.cumsum(q ** float(exponent))
    return [(m, float(csum[m - 1]) ** (d if kind is HeightKind.PROD_ROOT else 1)) for m in marks]


@pytest.mark.parametrize("chunk", [None, 997])
@pytest.mark.parametrize(
    "kind, d, tau, s",
    [
        (HeightKind.MAX, 2, Fraction(3), Fraction(1, 2)),
        (HeightKind.PROD_ROOT, 3, Fraction(5, 2), Fraction(7, 3)),
    ],
)
def test_series_chunks_match_one_cumsum(monkeypatch, chunk, kind, d, tau, s):
    # chunk boundaries fall between the checkpoints, and q_max is no multiple
    # of the chunk, so the carried total crosses several chunks
    if chunk is not None:
        monkeypatch.setattr(experiments, "_SERIES_CHUNK", chunk)
    q_max = 2 * experiments._SERIES_CHUNK + 12345 if chunk is None else 10 ** 5 + 3
    r = series_diagnostic(kind, d, tau, s, q_max=q_max)
    marks = [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, q_max]
    assert list(r.partials) == _full_cumsum_partials(kind, d, r.term_exponent, marks)


def test_series_validation():
    with pytest.raises(ValueError):
        series_diagnostic(HeightKind.LCM, 2, Fraction(4), Fraction(1))
    with pytest.raises(ValueError):
        series_diagnostic(HeightKind.MAX, 2, Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        series_diagnostic(HeightKind.MAX, 2, Fraction(4), Fraction(0))
    with pytest.raises(ValueError):
        series_diagnostic(HeightKind.MAX, 2, Fraction(4), Fraction(1), q_max=50)


def test_khintchine_is_deterministic_across_workers():
    cfg = RunConfig("khintchine", 2, HeightKind.MAX, None, 555, 4, HeightValue(10 ** 4))
    serial = khintchine_experiment(cfg, workers=1)
    parallel = khintchine_experiment(cfg, workers=2)
    assert serial.trials == parallel.trials
    assert serial.aggregates == parallel.aggregates
    assert json.dumps(serial.to_json()["trials"]) == json.dumps(parallel.to_json()["trials"])


def test_khintchine_aggregates_recomputable():
    cfg = RunConfig("khintchine", 2, HeightKind.MAX, None, 600, 5, HeightValue(10 ** 4))
    res = khintchine_experiment(cfg, workers=1)
    values = sorted(
        Fraction(r["estimate_lo"]) for r in res.trials if r["status"] == "ok"
    )
    assert res.aggregates["ok"] == len(values)
    mid = values[len(values) // 2]
    assert res.aggregates["median"] == pytest.approx(float(mid))


def test_khintchine_validation():
    with pytest.raises(ValueError):
        khintchine_experiment(
            RunConfig("khintchine", 1, HeightKind.MAX, None, 1, 1, HeightValue(10))
        )
    with pytest.raises(ValueError):
        khintchine_experiment(
            RunConfig("khintchine", 2, HeightKind.PROD, None, 1, 1, HeightValue(10))
        )
    for trials in (0, -2):
        with pytest.raises(ValueError, match="need trials >= 1"):
            khintchine_experiment(
                RunConfig("khintchine", 2, HeightKind.MAX, None, 1, trials, HeightValue(10))
            )


def test_khintchine_trials_that_fail(tmp_path):
    # at cap 50 no trial has a record past the warm-up; at cap 10^4 an
    # enumeration cap of 1 stops every walk: failed trials are rows with a
    # status, and a run with no ok trial does not pass
    out = tmp_path / "run.json"
    cfg = RunConfig("khintchine", 2, HeightKind.MAX, None, 1, 2, HeightValue(50), out=str(out))
    res = khintchine_experiment(cfg, workers=1)
    assert res.trials == (
        {"seed": 1, "status": "InsufficientDataError"},
        {"seed": 2, "status": "InsufficientDataError"},
    )
    assert res.aggregates == {"ok": 0, "failed": 2, "passes": False}
    lines = (tmp_path / "run_trials.csv").read_text().splitlines()
    assert lines[1:] == ["0,1,InsufficientDataError,,,", "1,2,InsufficientDataError,,,"]
    cfg = RunConfig("khintchine", 2, HeightKind.MAX, None, 1, 2, HeightValue(10 ** 4), enum_cap=1)
    res = khintchine_experiment(cfg, workers=1)
    assert [r["status"] for r in res.trials] == ["CapExceededError"] * 2
    assert res.aggregates == {"ok": 0, "failed": 2, "passes": False}


def test_run_config_json_roundtrip():
    cfg = RunConfig(
        "khintchine", 3, HeightKind.PROD_ROOT, Fraction(5, 2), 7, 2,
        HeightValue(10 ** 6), out="x.json",
    )
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_run_result_save(tmp_path):
    out = tmp_path / "run.json"
    cfg = RunConfig(
        "khintchine", 2, HeightKind.MAX, None, 8, 2, HeightValue(10 ** 4),
        out=str(out),
    )
    res = khintchine_experiment(cfg, workers=1)
    blob = json.loads(out.read_text())
    assert blob["format_version"] == 1
    assert len(blob["trials"]) == 2
    assert blob["config"]["kind"] == "max"
    sidecar = tmp_path / "run_trials.csv"
    lines = sidecar.read_text().splitlines()
    assert lines[0].startswith("trial,seed,status")
    assert len(lines) == 3
    assert res.aggregates["ok"] == 2


def test_box_probe_frozen_counts_and_slope():
    bc = box_count_probe(HeightKind.MAX, Fraction(4))
    assert isinstance(bc, BoxCountReport)
    assert bc.levels[0] == (6, 171)
    assert bc.levels[-1] == (14, 101524)
    assert bc.skipped == ()
    assert 0.7 < bc.slope < 1.3


def _band_by_loop(level, tau, root):
    """Heights in (B^root / 2^root, B^root] by counting up to the top one."""
    a, b = tau.numerator, tau.denominator
    cap = 1 << (root * level * b)
    top = 1
    while (top + 1) ** a <= cap:
        top += 1
    return [n for n in range(1, top + 1) if (2 ** root * n) ** a > cap]


def test_band_matches_counting_loop():
    taus = {Fraction(a, b) for b in range(1, 6) for a in range(2 * b, 8 * b + 1)}
    for tau in taus:
        for level in range(17):
            for root in (1, 2):
                want = _band_by_loop(level, tau, root)
                assert list(_band(level, tau, root)) == want, (tau, level, root)


# Reference for the box-count probe in Fraction arithmetic: every ball is a
# Fraction centre with a Fraction radius, each cell span is the floor of a
# Fraction, and every (p1, p2) adds its own cells.
def _coprime_lists(n):
    return [p for p in range(n) if math.gcd(p, n) == 1] or [0]


def _ball_points_max(q_values):
    pts = []
    for q in q_values:
        for q1, q2 in {(q, t) for t in range(1, q + 1)} | {(t, q) for t in range(1, q + 1)}:
            for p1 in _coprime_lists(q1):
                for p2 in _coprime_lists(q2):
                    pts.append((Fraction(p1, q1), Fraction(p2, q2), q))
    return pts


def _ball_points_prod(products):
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


def _cell_span(center, radius, level):
    scale = 1 << level
    lo = (center - radius) * scale
    hi = (center + radius) * scale
    lo_i = max(0, lo.numerator // lo.denominator)
    hi_i = min(scale - 1, hi.numerator // hi.denominator)
    return range(lo_i, hi_i + 1)


def _fraction_level_counts(kind, tau, levels):
    root = 1 if kind is HeightKind.MAX else 2
    points = _ball_points_max if kind is HeightKind.MAX else _ball_points_prod
    counts = []
    for level in levels:
        cells = set()
        for c1, c2, n in points(_band(level, tau, root)):
            radius = Fraction(1, floor_pow(n, tau / root))
            for ix in _cell_span(c1, radius, level):
                for iy in _cell_span(c2, radius, level):
                    cells.add((ix, iy))
        counts.append((level, len(cells)))
    return tuple(counts)


@pytest.mark.parametrize(
    "kind, tau, top",
    [
        (HeightKind.MAX, Fraction(2), 6),
        (HeightKind.MAX, Fraction(7, 3), 7),
        (HeightKind.MAX, Fraction(3), 9),
        (HeightKind.MAX, Fraction(4), 11),
        (HeightKind.MAX, Fraction(799, 100), 15),
        (HeightKind.PROD_ROOT, Fraction(2), 5),
        (HeightKind.PROD_ROOT, Fraction(7, 3), 6),
        (HeightKind.PROD_ROOT, Fraction(3), 7),
        (HeightKind.PROD_ROOT, Fraction(4), 9),
        (HeightKind.PROD_ROOT, Fraction(799, 100), 12),
    ],
)
def test_box_probe_counts_match_fraction_enumerator(kind, tau, top):
    levels = range(top + 1)
    bc = box_count_probe(kind, tau, grid_levels=levels)
    assert bc.skipped == ()
    assert bc.levels == _fraction_level_counts(kind, tau, levels)


def _fraction_cells(q, k, level):
    """The cells as a bitmask, one bit per Fraction cell index."""
    radius = Fraction(1, k)
    cells = {
        ix for p in _coprime_lists(q) for ix in _cell_span(Fraction(p, q), radius, level)
    }
    return sum(1 << ix for ix in cells)


@pytest.mark.parametrize(
    "q, k, level",
    [
        (4, 8, 3),  # 1/4 -+ 1/8 and 3/4 -+ 1/8 end on cell boundaries
        (1, 2, 4),  # p = 0: the ball starts at -1/2 and clips to cell 0
        (3, 2, 3),  # 2/3 + 1/2 > 1 clips to cell 2^level - 1
    ],
)
def test_cells_match_fraction_floors(q, k, level):
    assert _cells(q, k, level) == _fraction_cells(q, k, level)


def test_cells_match_fraction_floors_on_grid():
    for q in range(1, 11):
        for k in range(1, 31):
            for level in range(7):
                assert _cells(q, k, level) == _fraction_cells(q, k, level), (q, k, level)


def test_box_probe_runs_at_large_tau_numerators():
    bc = box_count_probe(HeightKind.MAX, Fraction(799, 100))
    assert bc.levels


def test_box_probe_saturates_at_low_tau():
    bc = box_count_probe(HeightKind.MAX, Fraction(2), grid_levels=range(6, 11))
    assert bc.slope > 1.9


def test_box_probe_validation():
    with pytest.raises(ValueError):
        box_count_probe(HeightKind.MAX, Fraction(4), d=3)
    with pytest.raises(ValueError):
        box_count_probe(HeightKind.LCM, Fraction(4))
    with pytest.raises(ValueError):
        box_count_probe(HeightKind.MAX, Fraction(10))
    with pytest.raises(ValueError):
        box_count_probe(HeightKind.MAX, Fraction(4), grid_levels=[8])
    with pytest.raises(ValueError, match="denominator <= 1000"):
        box_count_probe(HeightKind.MAX, Fraction(2) + Fraction(1, 10 ** 7), grid_levels=[6, 7, 8])


def test_min_split_fixture_counts():
    rep = min_split_experiment(Fraction(5), CAPS)
    assert rep.row("liouville,golden").counts == (4, 4)
    assert rep.row("golden,liouville").counts == (4, 4)
    assert rep.row("golden,sqrt2").counts == (4, 4)
    assert all(r.verdict == "stagnating" for r in rep.rows)
    with pytest.raises(KeyError):
        rep.row("nope")


def test_min_split_validation():
    with pytest.raises(ValueError):
        min_split_experiment(Fraction(2), CAPS)
