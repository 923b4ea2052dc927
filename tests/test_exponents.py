import math
from fractions import Fraction

import pytest

from heightlab import exponents
from heightlab.cf_engine import expand
from heightlab.errors import InsufficientDataError
from heightlab.exponents import (
    constant_estimate,
    matched_tuples,
    omega_estimate,
    trace_csv_rows,
)
from heightlab.heights import HeightKind, HeightValue
from heightlab.numerics import (
    golden_target,
    liouville_target,
    sample_uniform,
    sqrt2_target,
)


def test_golden_exponent_near_two():
    tr = omega_estimate((golden_target(),), HeightKind.MAX, HeightValue(10 ** 6))
    # last record is the convergent with denominator 832040, so the quotient
    # sits at 2 + log(sqrt 5)/log(832040)
    assert Fraction(20590331, 10 ** 7) < tr.estimate.lower
    assert tr.estimate.upper < Fraction(20590332, 10 ** 7)
    assert len(tr.entries) == 28
    assert tr.value == pytest.approx(2.0590331907, abs=1e-9)


def test_liouville_exponent_spikes_at_factorial_gap():
    tr = omega_estimate((liouville_target(),), HeightKind.MAX, HeightValue(10 ** 7))
    assert tr.entries[-1].height == HeightValue(10 ** 6)
    assert Fraction(3999, 1000) < tr.estimate.lower <= tr.estimate.upper < Fraction(40001, 10000)


def test_golden_constant_approaches_inverse_sqrt_five():
    ct = constant_estimate(
        (golden_target(),), HeightKind.MAX, Fraction(2), HeightValue(10 ** 6)
    )
    # running minimum sits at the first below-side term past the warm-up,
    # err * q^2 = 1/(phi + 89/144) at q = 144
    assert Fraction(4472092, 10 ** 7) < ct.estimate.lower
    assert ct.estimate.upper < Fraction(4472094, 10 ** 7)
    assert ct.value == pytest.approx(1 / math.sqrt(5), abs=1e-5)
    last = constant_estimate(
        (golden_target(),), HeightKind.MAX, Fraction(2), HeightValue(10 ** 6),
        reducer="last",
    )
    assert Fraction(4472135, 10 ** 7) < last.estimate.lower
    assert last.estimate.upper < Fraction(4472137, 10 ** 7)


def test_constant_with_zero_tau_is_last_record_error():
    ct = constant_estimate(
        (golden_target(),), HeightKind.MAX, Fraction(0), HeightValue(10 ** 4)
    )
    assert ct.estimate == ct.entries[-1].value


def test_liouville_constant_collapses():
    ct = constant_estimate(
        (liouville_target(),), HeightKind.MAX, Fraction(2), HeightValue(10 ** 7)
    )
    assert ct.estimate.upper < Fraction(1, 1000)


def test_exponent_is_kind_invariant_for_one_coordinate():
    traces = [
        omega_estimate((sqrt2_target(),), k, HeightValue(10 ** 4))
        for k in (HeightKind.MAX, HeightKind.PROD, HeightKind.LCM, HeightKind.PROD_ROOT)
    ]
    assert len({(t.estimate.lower, t.estimate.upper) for t in traces}) == 1
    assert traces[0].value == pytest.approx(2.1201240989, abs=1e-9)


def test_rooted_product_doubles_the_plain_product_exponent():
    x = sample_uniform(123, 2)
    plain = omega_estimate(x, HeightKind.PROD, HeightValue(10 ** 6))
    rooted = omega_estimate(x, HeightKind.PROD_ROOT, HeightValue(10 ** 3))
    assert rooted.estimate.lower == 2 * plain.estimate.lower
    assert rooted.estimate.upper == 2 * plain.estimate.upper


def test_min_kind_takes_the_best_coordinate():
    pair = omega_estimate(
        (liouville_target(), golden_target()), HeightKind.MIN, HeightValue(10 ** 5)
    )
    solo = omega_estimate((golden_target(),), HeightKind.MAX, HeightValue(10 ** 5))
    assert pair.kind is HeightKind.MIN
    assert pair.estimate == solo.estimate
    d1 = omega_estimate((golden_target(),), HeightKind.MIN, HeightValue(10 ** 4))
    ref = omega_estimate((golden_target(),), HeightKind.MAX, HeightValue(10 ** 4))
    assert d1.estimate == ref.estimate


def test_too_few_records_past_warmup():
    with pytest.raises(InsufficientDataError):
        omega_estimate((golden_target(),), HeightKind.MAX, HeightValue(100))


def test_reducer_validation(monkeypatch):
    # the reducer is checked before any record sweep runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("records reached")

    monkeypatch.setattr(exponents, "records", no_sweep)
    with pytest.raises(ValueError):
        omega_estimate(
            (golden_target(),), HeightKind.MAX, HeightValue(10 ** 4), reducer="mean"
        )
    with pytest.raises(ValueError):
        omega_estimate(sample_uniform(3, 2), HeightKind.LCM, HeightValue(10 ** 5), reducer="bogus")
    with pytest.raises(ValueError):
        constant_estimate(
            (golden_target(),), HeightKind.MAX, Fraction(2), HeightValue(10 ** 4), reducer="mean"
        )


def test_running_max_dominates_last():
    tr_last = omega_estimate(
        (golden_target(),), HeightKind.MAX, HeightValue(10 ** 4), warmup=2
    )
    tr_max = omega_estimate(
        (golden_target(),),
        HeightKind.MAX,
        HeightValue(10 ** 4),
        warmup=2,
        reducer="running_max",
    )
    assert tr_max.estimate.lower >= tr_last.estimate.lower
    rm = tr_last.running_max
    assert all(a <= b for a, b in zip(rm, rm[1:]))


def test_matched_pairs_for_golden_and_sqrt2():
    tabs = [expand(golden_target(), 9), expand(sqrt2_target(), 8)]
    got = matched_tuples(tabs, 8)
    assert got == [
        (Fraction(1, 1), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(2, 3), Fraction(1, 2)),
        (Fraction(3, 5), Fraction(2, 5)),
        (Fraction(5, 8), Fraction(5, 12)),
        (Fraction(8, 13), Fraction(5, 12)),
        (Fraction(13, 21), Fraction(12, 29)),
        (Fraction(21, 34), Fraction(12, 29)),
    ]
    # q = 34 pairs with 29, the log-closer of {29, 70}
    assert got[-1] == (Fraction(21, 34), Fraction(12, 29))


def test_matched_pairs_identical_tables_match_index():
    tabs = [expand(golden_target(), 6), expand(golden_target(), 6)]
    got = matched_tuples(tabs, 6)
    assert all(a == b for a, b in got)
    assert len(got) == 6


def test_matched_tuples_single_table_lists_convergents():
    tab = expand(golden_target(), 5)
    got = matched_tuples([tab], 5)
    assert got == [(tab.convergent(n),) for n in range(1, 6)]
    with pytest.raises(ValueError):
        matched_tuples([tab], 6)
    assert matched_tuples([tab, expand(sqrt2_target(), 5)], 1) == [
        (Fraction(1, 1), Fraction(1, 2))
    ]


def test_trace_csv_rows():
    tr = omega_estimate((golden_target(),), HeightKind.MAX, HeightValue(10 ** 4))
    rows = trace_csv_rows(tr)
    assert len(rows) == len(tr.entries)
    assert all(len(r) == 4 and r[2] <= r[3] for r in rows)
