import math
from fractions import Fraction

import pytest

from heightlab import exponents
from heightlab.approx_search import DEFAULT_ENUM_CAP, ErrVal, _record_err, _record_walk, records
from heightlab.errors import InsufficientDataError
from heightlab.exponents import (
    TraceEntry,
    constant_estimate,
    omega_estimate,
    trace_csv_rows,
)
from heightlab.heights import HeightKind, HeightValue
from heightlab.numerics import (
    Interval,
    golden_target,
    liouville_target,
    ln_enclosure,
    pow_enclosure,
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
    # a warm-up below 2 does not count the record at height 1: golden's
    # records up to height 3 lie at heights 1, 2 and 3, so two entries
    for reducer in ("last", "running_max"):
        with pytest.raises(InsufficientDataError, match="^2 usable"):
            omega_estimate(
                (golden_target(),), HeightKind.MAX, HeightValue(3), warmup=1, reducer=reducer
            )


def test_reducer_validation(monkeypatch):
    # the reducer is checked before any record sweep runs
    def no_sweep(*args, **kwargs):
        raise AssertionError("records reached")

    monkeypatch.setattr(exponents, "records", no_sweep)
    monkeypatch.setattr(exponents, "_record_walk", no_sweep)
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
    # so is the warm-up, and its error names it
    for warmup in (0, -5, 1.5):
        with pytest.raises(ValueError, match="warmup"):
            omega_estimate((golden_target(),), HeightKind.MAX, HeightValue(10 ** 4), warmup=warmup)
        with pytest.raises(ValueError, match="warmup"):
            constant_estimate(
                (golden_target(),), HeightKind.MAX, Fraction(2), HeightValue(10 ** 4),
                warmup=warmup,
            )


@pytest.mark.parametrize("reducer", ["last", "running_min"])
def test_constant_takes_an_int_tau(reducer):
    x, cap = (golden_target(),), HeightValue(10 ** 4)
    got = constant_estimate(x, HeightKind.MAX, 2, cap, reducer=reducer)
    want = constant_estimate(x, HeightKind.MAX, Fraction(2), cap, reducer=reducer)
    assert got == want
    assert got.entries == want.entries


@pytest.mark.parametrize("warmup", [1, 2])
def test_warmup_below_height_two(warmup):
    # two of the 115 rooted-product records lie below height 2 (products 1
    # and 5, under 8): they are no entries, and a warm-up of 1 or 2 keeps all
    # 113 entries from height 30^(1/3) on
    x, kind, cap = sample_uniform(0, 3), HeightKind.PROD_ROOT, HeightValue(10 ** 6)
    chain = records(x, kind, cap)
    assert len(chain) == 115
    assert [r.height for r in chain[:3]] == [HeightValue(1), HeightValue(5, 3), HeightValue(30, 3)]
    last = omega_estimate(x, kind, cap, warmup=warmup)
    running = omega_estimate(x, kind, cap, warmup=warmup, reducer="running_max")
    assert last.n_entries == running.n_entries == len(running.entries) == 113
    assert [e.height for e in running.entries] == [r.height for r in chain[2:]]
    assert last.estimate == running.entries[-1].value
    assert running.estimate == max((e.value for e in running.entries), key=lambda iv: iv.lower)
    assert last.value == pytest.approx(2.1135157869470382, abs=1e-12)
    assert running.value == pytest.approx(2.4545841730393776, abs=1e-12)
    c_last = constant_estimate(x, kind, Fraction(2), cap, warmup=warmup, reducer="last")
    c_min = constant_estimate(x, kind, Fraction(2), cap, warmup=warmup)
    assert c_last.n_entries == c_min.n_entries == 113
    assert c_last.value == pytest.approx(0.20851065456849047, abs=1e-12)
    assert c_min.value == pytest.approx(0.15710660339544297, abs=1e-12)


@pytest.mark.parametrize(
    "warmup, running_value", [(1, 3.082725740891852), (2, 3.082725740891852), (100, 2.16192330629561)]
)
def test_golden_entries_do_not_depend_on_the_warmup(warmup, running_value):
    cap = HeightValue(10 ** 5)
    last = omega_estimate((golden_target(),), HeightKind.MAX, cap, warmup=warmup)
    running = omega_estimate(
        (golden_target(),), HeightKind.MAX, cap, warmup=warmup, reducer="running_max"
    )
    assert last.n_entries == running.n_entries == 23
    assert last.value == pytest.approx(2.0716862019489817, abs=1e-12)
    assert running.value == pytest.approx(running_value, abs=1e-12)


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


def test_trace_csv_rows():
    tr = omega_estimate((golden_target(),), HeightKind.MAX, HeightValue(10 ** 4))
    rows = trace_csv_rows(tr)
    assert len(rows) == len(tr.entries)
    assert all(len(r) == 4 and r[2] <= r[3] for r in rows)


# ---------------------------------------------------------------------------
# the eager traces: every record certified, with a quotient, before reducing


def _eager_quotient(rec):
    e_lo, e_hi = rec.error.lower, rec.error.upper
    if e_lo <= 0 or e_hi >= 1:
        return None
    num_lo = -ln_enclosure(e_hi, bits=160).upper
    num_hi = -ln_enclosure(e_lo, bits=160).lower
    den = rec.height.log_height(160)
    if den.lower <= 0:
        return None
    return Interval(num_lo / den.upper, num_hi / den.lower)


def _eager_tail(entries, warmup):
    tail = [e for e in entries if e.height >= HeightValue(warmup)]
    if len(tail) < 3:
        raise InsufficientDataError(f"{len(tail)} usable records")
    return tail


def _eager_omega(x, kind, cap, warmup, reducer):
    """(estimate, entries) as computed before traces became lazy."""
    if kind is HeightKind.MIN and len(x) > 1:
        per = [_eager_omega((t,), HeightKind.MAX, cap, warmup, reducer) for t in x]
        return max(per, key=lambda pair: pair[0].lower)
    kind = HeightKind.MAX if kind is HeightKind.MIN else kind
    entries = []
    for rec in records(x, kind, cap):
        if rec.height < HeightValue(2):
            continue
        q = _eager_quotient(rec)
        if q is not None:
            entries.append(TraceEntry(rec.height, q))
    tail = _eager_tail(entries, warmup)
    if reducer == "last":
        return tail[-1].value, tuple(entries)
    return max((e.value for e in tail), key=lambda iv: iv.lower), tuple(entries)


def _eager_constant(x, kind, tau, cap, warmup, reducer):
    entries = []
    for rec in records(x, kind, cap):
        if rec.height < HeightValue(2) or rec.error.lower <= 0:
            continue
        hp = pow_enclosure(rec.height.base, tau / rec.height.root, bits=160)
        entries.append(
            TraceEntry(
                rec.height, Interval(rec.error.lower * hp.lower, rec.error.upper * hp.upper)
            )
        )
    tail = _eager_tail(entries, warmup)
    if reducer == "last":
        return tail[-1].value, tuple(entries)
    return min((e.value for e in tail), key=lambda iv: (iv.lower, iv.upper)), tuple(entries)


_LAZY_CASES = [
    (sample_uniform(seed, d), kind, HeightValue(cap), warmup)
    for kind, cap in (
        (HeightKind.MAX, 10 ** 6),
        (HeightKind.MIN, 10 ** 6),
        (HeightKind.PROD_ROOT, 10 ** 4),
        (HeightKind.LCM, 10 ** 4),
    )
    for d in (2, 3)
    for seed, warmup in ((42000 + d, 100), (7 + d, 2), (900 + d, 30))
] + [
    ((golden_target(),), HeightKind.MAX, HeightValue(10 ** 6), 100),
    ((liouville_target(),), HeightKind.MAX, HeightValue(10 ** 7), 2),
    ((golden_target(),), HeightKind.MAX, HeightValue(100), 100),  # too few records
]


def _case_id(case):
    x, kind, cap, warmup = case
    return f"{kind.name.lower()}-d{len(x)}-{x[0].key}-cap{cap}-w{warmup}"


@pytest.mark.parametrize("reducer", ["last", "running_max"])
@pytest.mark.parametrize("case", _LAZY_CASES, ids=_case_id)
def test_lazy_trace_matches_the_eager_path(case, reducer):
    x, kind, cap, warmup = case
    try:
        est, entries = _eager_omega(x, kind, cap, warmup, reducer)
    except InsufficientDataError as exc:
        with pytest.raises(InsufficientDataError, match=str(exc).split()[0]):
            omega_estimate(x, kind, cap, warmup=warmup, reducer=reducer)
        return
    tr = omega_estimate(x, kind, cap, warmup=warmup, reducer=reducer)
    assert tr.estimate == est
    # counted without certifying a record or taking a log
    assert tr.n_entries == len(entries)
    assert tr.entries == entries


@pytest.mark.parametrize("reducer", ["last", "running_min"])
@pytest.mark.parametrize("tau", [Fraction(0), Fraction(2), Fraction(5, 2)])
@pytest.mark.parametrize(
    "case", [c for c in _LAZY_CASES[:-1] if c[1] is not HeightKind.MIN][::2],
    ids=_case_id,
)
def test_lazy_constant_matches_the_eager_path(case, tau, reducer):
    x, kind, cap, warmup = case
    est, entries = _eager_constant(x, kind, tau, cap, warmup, reducer)
    ct = constant_estimate(x, kind, tau, cap, warmup=warmup, reducer=reducer)
    assert ct.estimate == est
    assert ct.n_entries == len(entries)
    assert ct.entries == entries


@pytest.mark.parametrize(
    "x, kind, traces",
    [
        ((golden_target(),), HeightKind.MAX, 1),
        (sample_uniform(42002, 2), HeightKind.MAX, 1),
        (sample_uniform(42003, 3), HeightKind.PROD_ROOT, 1),
        (sample_uniform(42002, 2), HeightKind.MIN, 2),
        (sample_uniform(42003, 3), HeightKind.MIN, 3),
    ],
)
def test_last_estimate_certifies_one_record_per_trace(monkeypatch, x, kind, traces):
    calls = []
    certified_interval = ErrVal.certified_interval

    def counted(self):
        calls.append(self.point)
        return certified_interval(self)

    monkeypatch.setattr(ErrVal, "certified_interval", counted)
    cap = HeightValue(10 ** 4 if kind is HeightKind.PROD_ROOT else 10 ** 6)
    tr = omega_estimate(x, kind, cap)
    assert len(calls) == traces
    constant_estimate(x[:1], HeightKind.MAX, Fraction(2), cap, reducer="last")
    assert len(calls) == traces + 1
    # the entries are certified when first read, and kept
    entries = tr.entries
    certified = len(calls)
    assert certified > traces + 1
    assert tr.entries is entries and len(calls) == certified
    assert len(entries) == tr.n_entries


@pytest.mark.parametrize("kind", [HeightKind.MAX, HeightKind.MIN])
def test_last_trace_entries_match_in_order_certification_past_192_bits(kind):
    # at cap 10^30 the last golden record is certified at 384 bits, past the
    # 192 bits of the earlier ones; entries read after it must still equal
    # the eager trace's
    x = (golden_target(), golden_target()) if kind is HeightKind.MIN else (golden_target(),)
    # the premise, on one coordinate's walk: the trace walks each coordinate
    # under max, on copies of its own, as _record_walk does here
    y, walk = _record_walk(x[:1], HeightKind.MAX, HeightValue(10 ** 30), DEFAULT_ENUM_CAP)
    walk = list(walk)
    _record_err(y, walk[-1]).certified_interval()
    assert y[0]._best_bits > 192
    tr = omega_estimate(x, kind, HeightValue(10 ** 30))
    eager = omega_estimate(x, kind, HeightValue(10 ** 30), reducer="running_max")
    assert tr.n_entries == len(eager.entries)
    assert tr.entries == eager.entries
    assert tr.estimate == eager.entries[-1].value
