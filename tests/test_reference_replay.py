"""Every op of the benchmark's reference pools, replayed in process.

``perfbench/reference/<workload>.json`` holds each op's certified outcome (a
Khintchine trial's estimate and record count, or a ``fast_best`` answer).
Each op runs through ``workloads.prepare`` on fresh inputs and must match its
outcome under ``workloads.judge``: an op that failed in the reference may
succeed now, and nothing else may change.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

POOL_SIZES = {"khintchine_tables": 800, "khintchine_rooted3": 51, "best_query": 1236}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_ops_replay_without_mismatch(workload):
    ref = workloads.load_reference(workload)
    assert len(ref) == POOL_SIZES[workload]
    mismatched = []
    for op_id in sorted(ref):
        outcome = workloads.prepare(workloads.Op.parse(op_id))()
        if workloads.judge(outcome, ref[op_id]["outcome"])[1]:
            mismatched.append((op_id, outcome))
    assert mismatched == []
