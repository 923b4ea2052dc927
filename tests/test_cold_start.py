"""What a fresh interpreter loads.

``import heightlab`` and ``import heightlab.cli`` load neither numpy, mpmath
nor the process pool: the functions that use them import them.  The other
tests run with numpy and mpmath loaded, so only a fresh interpreter shows
that a path still works when it is the first to need its module.  Each path
that defers one runs first thing in its own interpreter, must load the
module, and must give the in-process result.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import heightlab

HEAVY = ("numpy", "mpmath", "concurrent.futures.process")

# each call, and the module it must load; {workers} is 2 in the fresh
# interpreter and 1 in process, as results do not depend on the worker count
DEFERRED = {
    "brute_force_best": (
        "numpy", "brute_force_best(sample_uniform(3, 2), Budget(HeightKind.MAX, HeightValue(12)))"),
    "lcm_scan": (
        "numpy", "fast_best(sample_uniform(4, 2), Budget(HeightKind.LCM, HeightValue(60)))"),
    "fast_ties": (
        "numpy", "fast_best(sample_uniform(4, 2), Budget(HeightKind.PROD, HeightValue(200)))"),
    "box_count_probe": (
        "numpy", "box_count_probe(HeightKind.MAX, Fraction(2), grid_levels=(4, 5, 6))"),
    "series_diagnostic": (
        "numpy", "series_diagnostic(HeightKind.MAX, 1, Fraction(3), Fraction(1), q_max=1000)"),
    "omega_estimate": (
        "mpmath", "omega_estimate(sample_uniform(5, 2), HeightKind.MAX, HeightValue(10 ** 4))"),
    "khintchine_experiment": (
        "concurrent.futures.process",
        "(lambda r: (r.trials, r.aggregates))(khintchine_experiment(RunConfig("
        "name='k', d=2, kind=HeightKind.MAX, tau=None, base_seed=42002, trials=2,"
        " height_cap=HeightValue(10 ** 4)), workers={workers}))"),
}


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports this heightlab, and
    read the JSON it prints last."""
    src = os.path.dirname(os.path.dirname(heightlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_numpy_mpmath_or_process_pool():
    # and neither does ``heightlab heights --d 2``, whose max exponent at
    # d = 2 is exact
    got = _fresh(
        "import json, sys\n"
        "import heightlab\n"
        "import heightlab.cli\n"
        f"loaded = [m for m in {HEAVY!r} if m in sys.modules]\n"
        "heightlab.cli.main(['heights', '--d', '2'])\n"
        f"print(json.dumps([loaded, [m for m in {HEAVY!r} if m in sys.modules]]))\n"
    )
    assert got == [[], []]


@pytest.mark.parametrize("name", sorted(DEFERRED))
def test_deferred_import_runs_first_thing_in_a_fresh_interpreter(name):
    module, expr = DEFERRED[name]
    got = _fresh(
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from heightlab import *\n"
        f"before = {module!r} in sys.modules\n"
        f"result = {expr.format(workers=2)}\n"
        f"print(json.dumps([before, {module!r} in sys.modules, repr(result)]))\n"
    )
    namespace = {n: getattr(heightlab, n) for n in heightlab.__all__}
    namespace["Fraction"] = Fraction
    want = repr(eval(expr.format(workers=1), namespace))
    assert got == [False, True, want]
