"""Tests of the benchmark's own code: python3 -m pytest perfbench/tests -q"""

import json
from fractions import Fraction

import pytest

import heightlab
import run
import tracing
import workloads as W


def test_p90_needs_ten_samples_beyond_it():
    assert run.percentile([float(i) for i in range(99)], 0.9) is None
    values = [float(i) for i in range(100)]
    assert run.percentile(values, 0.9) == 89.0
    assert sum(v > 89.0 for v in values) == 10


def test_self_time_is_duration_minus_direct_children():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tr.hot_span(lambda: None, "leaf")

    def inner_fn():
        leaf()

    inner = tr.span(inner_fn, "inner")

    def outer_fn():
        leaf()
        inner()
        leaf()

    tr.span(outer_fn, "outer")()
    # clock ticks: outer 0..9, leaf 1..2, inner 3..6 holding leaf 4..5, leaf 7..8
    selfs = tracing.self_times(json.loads(json.dumps(tr.dump())))
    assert selfs == {"outer": 9 - 1 - 3 - 1, "inner": 3 - 1, "leaf": 3}


def test_self_time_of_nested_hot_spans():
    trace = {
        "spans": [{"id": 1, "name": "records", "parent": 0, "start": 0.0, "end": 10.0}],
        # records -> cmp (2 calls, 6 s) -> interval (3 calls, 4 s)
        "hot": [[1, "records", "cmp", 2, 6.0], [1, "cmp", "interval", 3, 4.0]],
        "counters": {},
    }
    assert tracing.self_times(trace) == {"records": 4.0, "cmp": 2.0, "interval": 4.0}


def test_traced_query_records_layers_and_restores_the_package():
    original = heightlab.fast_best
    tr = tracing.Tracer()
    op = W.Op("query", 2, "PROD", 5, 40)
    with tracing.traced(tr):
        outcome = W.prepare(op)()
    assert heightlab.fast_best is original
    m = tracing.layer_metrics(tr.dump(), 0.0)
    assert set(m) == set(tracing.LAYER_METRICS)
    assert m["approx_search.fast_best.self_s"] > 0
    assert m["approx_search.filter_bounds.rows"] > 0
    assert m["approx_search.cmp_atoms.calls"] > 0
    assert outcome == W.prepare(op)()


def test_perturbed_reference_counts_as_failed_op():
    ref = W.load_reference("best_query")
    op_id = next(i for i in sorted(ref) if ref[i]["stratum"] == "small:2:MAX")
    outcome = W.prepare(W.Op.parse(op_id))()
    expected = ref[op_id]["outcome"]
    assert W.judge(outcome, expected) == (False, False)
    perturbed = dict(expected, error=[expected["error"][0], str(Fraction(expected["error"][1]) * 2)])
    assert W.judge(outcome, perturbed) == (True, True)
    # a reference failure that now succeeds is progress, not a mismatch
    assert W.judge(outcome, {"raises": "CapExceededError"}) == (False, False)


def test_command_exits_nonzero_on_mismatch(monkeypatch, capsys):
    real = W.load_reference

    def perturbed(workload):
        ref = real(workload)
        for entry in ref.values():
            entry["outcome"] = dict(entry["outcome"], records=-1)
        return ref

    monkeypatch.setattr(W, "load_reference", perturbed)
    code = run.main(["--workload", "khintchine_tables", "--seed", "3", "--seconds", "0.01", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert list(result["metrics"]) == run.listed_metrics("per_layer")


def test_listed_layer_metrics_exist_with_their_units():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        listed = json.load(fh)["per_layer"]
    assert {m["name"]: m["unit"] for m in listed}.items() <= tracing.LAYER_METRICS.items()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_seed_decides_the_inputs(workload):
    ref = W.load_reference(workload)
    first = W.draw(workload, 1, 25, ref)
    assert W.draw(workload, 1, 25, ref) == first
    assert sorted(o.id for o in W.draw(workload, 2, 25, ref)) != sorted(o.id for o in first)
