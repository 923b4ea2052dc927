"""The benchmark's three workloads: op pools, seeded draws, execution, checks.

An op is one unit of work that succeeds or fails: one Khintchine trial (one
seed's record sweep plus its exponent estimate, run through
``khintchine_experiment(..., workers=1)``) or one ``fast_best`` query.

Every op a run can draw is listed in ``reference/<workload>.json`` together
with its certified outcome and its cost measured when the reference was made.
A run draws its ops from that pool with the workload seed, stratified so
that every seed gets the same cost profile: the seed changes which inputs
run, not how much work a run holds.  The program only sees the targets and
budgets built from the drawn ops.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, median
from typing import Callable, Dict, List, Sequence, Tuple

import heightlab
from heightlab import Budget, HeightKind, HeightValue, RunConfig, sample_uniform
from heightlab.errors import CapExceededError, InsufficientDataError, PrecisionExhaustedError

WORKLOADS = ("khintchine_tables", "khintchine_rooted3", "best_query")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TRIAL_CAP = HeightValue(10 ** 6)
# the failures an op may end in; anything else is a bug and propagates
OP_ERRORS = (CapExceededError, PrecisionExhaustedError, InsufficientDataError)

# khintchine_tables: the four table-driven cells of acceptance check 3
TABLE_CELLS = ((2, "MAX"), (3, "MAX"), (2, "MIN"), (3, "MIN"))
# khintchine_rooted3: seed 42010 enumerates 1.45 M tuples; it runs first in
# every draw, so the peak RSS is its own and not the allocator's history
ROOTED_ANCHOR = 42010
# the other trials cost within this share of the light pool's median cost
ROOTED_TYPICAL = 0.2
# best_query: the large-budget slice, one query of each type per run
LARGE_TYPES = (
    (2, "MAX", 10 ** 6),
    (2, "PROD", 10 ** 6),
    (3, "MAX", 10 ** 6),
    (3, "PROD", 10 ** 5),
    (2, "PROD_ROOT", 10 ** 3),
    (3, "PROD_ROOT", 10 ** 2),
    (2, "LCM", 10 ** 5),
    (3, "LCM", 10 ** 5),
)
# the lcm query at 10^6 trips the enumeration guard; it runs untimed
GUARD_TYPE = (2, "LCM", 10 ** 6)
SMALL_KINDS = ("MAX", "PROD", "PROD_ROOT", "LCM")
# at least 8 small queries per cell keeps best_query at >= 100 ops per run
MIN_SMALL_PER_CELL = 8
# brute-force cross-checks per small cell per run (outside the timed region)
CROSS_CHECKS_PER_CELL = 4


@dataclass(frozen=True)
class Op:
    """One trial (``bound`` 0: cap 10^6) or one ``fast_best`` query."""

    kind: str  # "trial" or "query"
    d: int
    height: str  # HeightKind member name
    seed: int
    bound: int = 0

    @property
    def id(self) -> str:
        return f"{self.kind}:{self.d}:{self.height}:{self.bound}:{self.seed}"

    @staticmethod
    def parse(text: str) -> "Op":
        kind, d, height, bound, seed = text.split(":")
        return Op(kind, int(d), height, int(seed), int(bound))


def prepare(op: Op) -> Callable[[], Dict]:
    """Build the op's inputs and return the call that runs it.

    Inputs are fresh on every call: targets cache their enclosures, so a
    reused target would make a repeated op cheaper.
    """
    kind = HeightKind[op.height]
    if op.kind == "trial":
        cfg = RunConfig("khintchine", op.d, kind, None, op.seed, 1, TRIAL_CAP)

        def call() -> Dict:
            row = heightlab.khintchine_experiment(cfg, workers=1).trials[0]
            if row["status"] != "ok":
                return {"raises": row["status"]}
            return {"estimate": [row["estimate_lo"], row["estimate_hi"]], "records": row["records"]}

        return _guarded(call)
    x = sample_uniform(op.seed, op.d)
    budget = Budget(kind, HeightValue(op.bound))
    return _guarded(lambda: record_outcome(heightlab.fast_best(x, budget)))


def _guarded(call: Callable[[], Dict]) -> Callable[[], Dict]:
    def run() -> Dict:
        try:
            return call()
        except OP_ERRORS as exc:
            return {"raises": type(exc).__name__}

    return run


def record_outcome(rec) -> Dict:
    """An ApproxRecord as plain JSON: point, error interval and height."""
    return {
        "point": [str(f) for f in rec.point],
        "error": [str(rec.error.lower), str(rec.error.upper)],
        "height": [rec.height.base, rec.height.root],
    }


def judge(outcome: Dict, expected: Dict) -> Tuple[bool, bool]:
    """(failed, mismatch) of one op against its reference outcome.

    An op fails when it raises or its output differs from the reference; a
    differing output or a lost output is also a mismatch.  An op that failed
    in the reference may succeed now: that is progress, not a mismatch.
    """
    if "raises" in outcome:
        return True, "raises" not in expected
    if "raises" in expected:
        return False, False
    mismatch = outcome != expected
    return mismatch, mismatch


# ---------------------------------------------------------------------------
# reference pools and seeded draws


def load_reference(workload: str) -> Dict[str, Dict]:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)["ops"]


def draw(workload: str, seed: int, seconds: float, ref: Dict[str, Dict]) -> List[Op]:
    """The run's timed ops, in run order.

    The draw is sized so that the ops cost about ``seconds`` by the costs the
    reference recorded, so every commit runs the same ops for a given seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    strata: Dict[str, List[str]] = {}
    for op_id in sorted(ref):
        strata.setdefault(ref[op_id]["stratum"], []).append(op_id)
    cost = {op_id: ref[op_id]["cost_s"] for op_id in ref}
    if workload == "khintchine_tables":
        picked = _equal_shares(rng, list(strata.values()), cost, seconds)
    elif workload == "khintchine_rooted3":
        (anchor,) = strata["anchor"]
        picked = _draw_rooted(rng, strata["light"], cost, seconds - cost[anchor])
        rng.shuffle(picked)
        return [Op.parse(i) for i in [anchor] + picked]
    else:
        large = [ids for name, ids in strata.items() if name.startswith("large:")]
        small = [ids for name, ids in strata.items() if name.startswith("small:")]
        expected = sum(fmean(cost[i] for i in ids) for ids in large)
        picked = balanced(rng, lambda: [rng.choice(ids) for ids in large], cost, expected)
        left = seconds - sum(cost[i] for i in picked)
        # at most half of each small pool, so that seeds differ in inputs
        picked += _equal_shares(rng, small, cost, left, MIN_SMALL_PER_CELL, len(small[0]) // 2)
    rng.shuffle(picked)
    return [Op.parse(i) for i in picked]


def _equal_shares(rng, groups, cost, seconds, least=1, most=None) -> List[str]:
    """The same number of ops from each group, as many as fit in ``seconds``."""
    round_cost = sum(fmean(cost[i] for i in g) for g in groups)
    n = max(least, min(int(seconds / round_cost), most or len(groups[0])))
    return balanced(rng, lambda: [i for g in groups for i in rng.sample(g, n)], cost, n * round_cost)


def _draw_rooted(rng, light, cost, seconds) -> List[str]:
    # typical trials only: the median op of a draw then stays comparable
    middle = median(cost[i] for i in light)
    typical = sorted(i for i in light if abs(cost[i] / middle - 1) <= ROOTED_TYPICAL)
    round_cost = fmean(cost[i] for i in typical)
    n = min(max(round(seconds / round_cost), 1), len(typical) // 2)
    return balanced(rng, lambda: rng.sample(typical, n), cost, n * round_cost)


def guard_op(seed: int, ref: Dict[str, Dict]) -> Op:
    """The untimed guard probe of best_query, drawn from its reference pool."""
    ids = sorted(i for i in ref if ref[i]["stratum"] == "guard")
    return Op.parse(random.Random(f"guard:{seed}").choice(ids))


def balanced(rng: random.Random, draw_once: Callable[[], List[str]], cost: Dict[str, float],
             expected: float, tries: int = 2000, tolerance: float = 0.01) -> List[str]:
    """``draw_once()`` redrawn until its total cost is near ``expected``.

    Ops of one stratum can differ a lot in cost (one lcm query takes 1.8 s
    on one target and 3.3 s on another; Khintchine trials of one cell range
    from 0.03 s to 0.3 s).  Redrawing until the total sits within
    ``tolerance`` of the expected total keeps each run's work alike while
    the seed still decides which inputs run.
    """
    best: List[str] = []
    best_gap = float("inf")
    for _ in range(tries):
        pick = draw_once()
        gap = abs(sum(cost[i] for i in pick) - expected)
        if gap < best_gap:
            best, best_gap = pick, gap
        if gap <= tolerance * expected:
            break
    return best


def cross_check_ops(ops: Sequence[Op], ref: Dict[str, Dict]) -> List[Op]:
    """The first few small queries of each cell, for the brute-force oracle."""
    seen: Dict[str, int] = {}
    out = []
    for op in ops:
        stratum = ref[op.id]["stratum"]
        if stratum.startswith("small:") and seen.get(stratum, 0) < CROSS_CHECKS_PER_CELL:
            seen[stratum] = seen.get(stratum, 0) + 1
            out.append(op)
    return out


def brute_force_outcome(op: Op) -> Dict:
    """The oracle's answer for a query op (untimed)."""
    x = sample_uniform(op.seed, op.d)
    budget = Budget(HeightKind[op.height], HeightValue(op.bound))
    return _guarded(lambda: record_outcome(heightlab.brute_force_best(x, budget)))()
