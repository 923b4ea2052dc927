"""Regenerate the reference outcomes the benchmark checks every op against.

    python3 perfbench/make_reference.py [workload ...]

Runs every op in each workload's pool, records its certified outcome and its
cost in seconds (the median of three timings), and writes
``perfbench/reference/<workload>.json``.  The small best_query instances must
agree with ``brute_force_best`` and every outcome must repeat, or nothing is
written.  The costs size each run's draw, so make the reference on the
machine whose baseline the benchmark documents, and only on a commit whose
outputs are meant to define correctness.
"""

from __future__ import annotations

import bisect
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpmath  # noqa: E402
import numpy  # noqa: E402

from heightlab.approx_search import _BestTable  # noqa: E402
from heightlab.numerics import sample_uniform  # noqa: E402

import workloads as W  # noqa: E402

TABLE_TRIALS = 200  # per cell, the seeds of acceptance check 3
ROOTED_LIGHT = 50
# light rooted trials enumerate fewer tuples than this (median of 42003..42202
# is about 250 k; 42005 enumerates 2.5 M)
ROOTED_LIGHT_TUPLES = 600_000
SMALL_PER_CELL = 100  # the instances of acceptance check 2
LARGE_TARGETS = 4
REPEATS = 3  # timings per op; the cost is their median


def rooted_tuples(seed: int) -> int:
    """Denominator tuples the d=3 rooted record sweep enumerates at cap 10^6."""
    cap = 10 ** 18
    dens = [_BestTable(t).dens_up_to(cap) for t in sample_uniform(seed, 3)]
    n = 0
    for a in dens[0]:
        for b in dens[1]:
            if a * b > cap:
                break
            n += bisect.bisect_right(dens[2], cap // (a * b))
    return n


def draw_bound(rng: random.Random, d: int, kind: str) -> int:
    """Acceptance check 2's bound draw."""
    if d == 1:
        return rng.randint(1, 200)
    if kind == "PROD_ROOT" and d == 3:
        return rng.randint(2, 35)
    return rng.randint(1, 60)


def pools(workload: str):
    """(stratum, op, extra fields) for every op of the workload's pool."""
    if workload == "khintchine_tables":
        for d, h in W.TABLE_CELLS:
            for i in range(TABLE_TRIALS):
                yield f"cell:{d}:{h}", W.Op("trial", d, h, 42000 + d + i), {}
    elif workload == "khintchine_rooted3":
        yield "anchor", W.Op("trial", 3, "PROD_ROOT", W.ROOTED_ANCHOR), {
            "tuples": rooted_tuples(W.ROOTED_ANCHOR)}
        seed, kept = 42003, 0
        while kept < ROOTED_LIGHT:
            n = rooted_tuples(seed)
            if seed != W.ROOTED_ANCHOR and n < ROOTED_LIGHT_TUPLES:
                kept += 1
                yield "light", W.Op("trial", 3, "PROD_ROOT", seed), {"tuples": n}
            seed += 1
    else:
        for d in (1, 2, 3):
            for h in W.SMALL_KINDS:
                rng = random.Random("route-%d-%s" % (d, h))
                for _ in range(SMALL_PER_CELL):
                    seed = rng.randrange(10 ** 6)
                    yield f"small:{d}:{h}", W.Op("query", d, h, seed, draw_bound(rng, d, h)), {}
        rng = random.Random("perfbench-large")
        seeds = [rng.randrange(10 ** 6) for _ in range(LARGE_TARGETS)]
        for d, h, b in W.LARGE_TYPES:
            for seed in seeds:
                yield f"large:{d}:{h}:{b}", W.Op("query", d, h, seed, b), {}
        for seed in seeds:
            yield "guard", W.Op("query", *W.GUARD_TYPE[:2], seed, W.GUARD_TYPE[2]), {}


def make(workload: str) -> None:
    """Time every op REPEATS times, one pass over the pool after another, so
    that a slow spell of the machine does not bias the cost of one op."""
    pool = list(pools(workload))
    times = {op.id: [] for _, op, _ in pool}
    first = {}
    for rep in range(REPEATS):
        for stratum, op, _ in pool:
            call = W.prepare(op)
            t0 = time.perf_counter()
            outcome = call()
            times[op.id].append(time.perf_counter() - t0)
            if rep == 0:
                first[op.id] = outcome
                if stratum.startswith("small:") and W.brute_force_outcome(op) != outcome:
                    sys.exit(f"{op.id}: fast_best {outcome} != brute_force_best")
            elif outcome != first[op.id]:
                sys.exit(f"{op.id}: outcome changed between passes")
            print(f"{workload} pass {rep} {op.id} {times[op.id][-1]:.3f}s", flush=True)
    ops, excluded = {}, {}
    for stratum, op, extra in pool:
        outcome = first[op.id]
        if "raises" in outcome and stratum != "guard":
            excluded[op.id] = outcome["raises"]
            continue
        cost = statistics.median(times[op.id])
        ops[op.id] = {"stratum": stratum, "cost_s": round(cost, 4), "outcome": outcome, **extra}
    doc = {
        "workload": workload,
        "made_on": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
        },
        "excluded": excluded,
        "ops": ops,
    }
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(W.REFERENCE_DIR / f"{workload}.json", "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or W.WORKLOADS:
        make(name)
