"""heightlab benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload khintchine_tables --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
load is a closed loop in this one process with one worker: each op starts
when the previous one has finished.

``--trace 0`` times the ops untraced and prints the end-to-end metrics.
``--trace 1`` runs every op twice, untraced and then traced, writes the spans
to ``perfbench/out/`` and prints the per-layer metrics plus the tracing
overhead.  Every op's outcome is checked against ``perfbench/reference/``; a
mismatch makes the result incorrect and the exit code 1.  The last line of
stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
LOAD = "closed loop, one process, one worker (workers=1)"


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or None if fewer than 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def setup_seconds(args) -> float:
    """Median wall time of a fresh interpreter that imports heightlab and
    builds this run's inputs: what every CLI invocation pays, plus the draw."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def listed_metrics(kind: str) -> List[str]:
    """The metric names BENCHMARK.json lists under ``kind``; the JSON result
    carries exactly these, the text report carries every metric."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def run_metadata(args) -> Dict:
    import mpmath
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": sha,
        "load": LOAD,
    }


def run_ops(W, ops, ref, trace: bool):
    """The closed loop: every op in turn, checked against the reference.

    With ``trace`` each op runs twice, untraced and then traced, so the two
    walls compare the same work.  Returns the per-execution records, the
    tracer (or None) and the wall time of the loop.
    """
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
    records = []
    start = time.perf_counter()
    for op in ops:
        for traced in (False, True) if trace else (False,):
            call = W.prepare(op)
            with tracing.traced(tracer) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = call()
                seconds = time.perf_counter() - t0
            failed, mismatch = W.judge(outcome, ref[op.id]["outcome"])
            records.append({"op": op.id, "traced": traced, "seconds": seconds,
                            "failed": failed, "mismatch": mismatch})
    return records, tracer, time.perf_counter() - start


def end_to_end(setup: float, records: List[Dict], wall: float, peak_rss_mb: float) -> Dict:
    """Every end-to-end metric; op_p90_s is None below 100 ops."""
    latencies = [r["seconds"] for r in records]
    failed = sum(r["failed"] for r in records)
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "ops_per_s": {"value": (len(records) - failed) / wall, "unit": "ops/s"},
        "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "op_p90_s": {"value": percentile(latencies, 0.9), "unit": "s"},
        "failed_share": {"value": failed / len(records), "unit": "ratio"},
    }


def per_layer(workload: str, seed: int, records: List[Dict], tracer) -> tuple:
    """Write the spans, read them back and derive every per-layer metric."""
    import tracing

    plain = sum(r["seconds"] for r in records if not r["traced"])
    traced = sum(r["seconds"] for r in records if r["traced"])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-{seed}.json"
    with open(path, "w") as fh:
        json.dump(tracer.dump(), fh)
    with open(path) as fh:
        layers = tracing.layer_metrics(json.load(fh), traced / plain - 1)
    return {k: {"value": v, "unit": tracing.LAYER_METRICS[k]} for k, v in layers.items()}, path


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heightlab" / "__init__.py").is_file():
        print(f"perfbench: no heightlab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {W.WORKLOADS}", file=sys.stderr)
        return 2
    ref = W.load_reference(args.workload)
    ops = W.draw(args.workload, args.seed, args.seconds, ref)
    if args.setup_only:
        for op in ops:
            W.prepare(op)
        return 0

    meta = run_metadata(args)
    setup = setup_seconds(args) if args.trace == 0 else None
    records, tracer, wall = run_ops(W, ops, ref, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = untimed_checks(W, args, ops, ref)
    failed = sum(r["failed"] for r in records)
    correct = not any(r["mismatch"] for r in records) and all(c["agree"] for c in checks)

    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
             "meta " + json.dumps(meta)]
    if args.trace == 0:
        report = end_to_end(setup, records, wall, peak_rss_mb)
        metrics = {k: report[k] for k in listed_metrics("end_to_end")}
        for name, m in report.items():
            value = "n/a (p90 needs >= 100 ops)" if m["value"] is None else "%.6g" % m["value"]
            lines.append(f"{name:<14} {value} {m['unit']}")
        lines.append(f"ops            {len(records)} ({failed} failed)")
    else:
        report, path = per_layer(args.workload, args.seed, records, tracer)
        metrics = {k: report[k] for k in listed_metrics("per_layer")}
        for name, m in report.items():
            idle = " (layer not exercised by this workload)" if m["value"] == 0 else ""
            lines.append(f"{name:<46} {m['value']:.6g} {m['unit']}{idle}")
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    lines += [f"check {c['name']}: {c['detail']}" for c in checks]
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "report": report, "checks": checks, "ops": records}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def untimed_checks(W, args, ops, ref) -> List[Dict]:
    """best_query only: the guard probe and the brute-force cross-checks."""
    if args.workload != "best_query":
        return []
    guard = W.guard_op(args.seed, ref)
    outcome = W.prepare(guard)()
    expected = ref[guard.id]["outcome"]
    cross = W.cross_check_ops(ops, ref)
    agree = sum(W.brute_force_outcome(op) == ref[op.id]["outcome"] for op in cross)
    return [
        {"name": "guard_probe", "agree": not W.judge(outcome, expected)[1],
         "detail": f"{guard.id} -> {outcome.get('raises', 'succeeded')}"
                   f" (reference: {expected.get('raises', 'succeeded')})"},
        {"name": "brute_force", "agree": agree == len(cross),
         "detail": f"{agree}/{len(cross)} small queries agree with brute_force_best"},
    ]


if __name__ == "__main__":
    sys.exit(main())
