import json
from fractions import Fraction

import pytest

from heightlab.experiments import (
    BoxCountReport,
    RunConfig,
    _theta_radius,
    box_count_probe,
    critical_exponent,
    khintchine_experiment,
    min_split_experiment,
    series_diagnostic,
)
from heightlab.heights import HeightKind, HeightValue

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


@pytest.mark.parametrize(
    "theta, tau, root, want",
    [
        (8, Fraction(1), 1, Fraction(1, 8)),
        (8, Fraction(1, 3), 1, Fraction(1, 2)),
        (10, Fraction(1, 2), 1, Fraction(1, 3)),
        (16, Fraction(3, 2), 2, Fraction(1, 8)),
        (17, Fraction(3, 2), 2, Fraction(1, 8)),
        (2, Fraction(9, 4), 2, Fraction(1, 2)),
        (1, Fraction(7, 3), 2, Fraction(1)),
        # theta**799 overflows a float
        (3, Fraction(799, 100), 1, Fraction(1, 6489)),
        (3, Fraction(799, 100), 2, Fraction(1, 80)),
        (3, Fraction(799, 100), 3, Fraction(1, 18)),
    ],
)
def test_theta_radius_exact_values(theta, tau, root, want):
    assert _theta_radius(theta, tau, root) == want


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
