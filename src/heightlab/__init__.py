"""Rational approximation under nonstandard height functions.

Exact continued-fraction machinery, certified best-approximation searches,
approximation-exponent estimators and reproducible experiment drivers.
"""

from .approx_search import (
    ApproxRecord,
    Budget,
    brute_force_best,
    fast_best,
    records,
    solutions_count,
)
from .cf_engine import (
    ConvergentCursor,
    ConvergentRow,
    ConvergentTable,
    evaluate_quotients,
    expand,
    gap_inequality_check,
    semiconvergents,
)
from .errors import (
    CapExceededError,
    HeightlabError,
    InsufficientDataError,
    PrecisionExhaustedError,
    UnboundedSearchError,
)
from .experiments import (
    BoxCountReport,
    RunConfig,
    RunResult,
    SeriesReport,
    SplitReport,
    box_count_probe,
    critical_exponent,
    khintchine_experiment,
    min_split_experiment,
    series_diagnostic,
)
from .exponents import (
    ConstantTrace,
    ExponentTrace,
    TraceEntry,
    constant_estimate,
    omega_estimate,
    trace_csv_rows,
)
from .heights import HeightKind, HeightValue, fs_exponent, height
from .numerics import (
    DEFAULT_PRECISION_BUDGET,
    Interval,
    RealTarget,
    liouville_target,
    parse_target,
    reduce,
    refine,
    sample_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxRecord",
    "Budget",
    "brute_force_best",
    "fast_best",
    "records",
    "solutions_count",
    "ConvergentCursor",
    "ConvergentRow",
    "ConvergentTable",
    "evaluate_quotients",
    "expand",
    "gap_inequality_check",
    "semiconvergents",
    "CapExceededError",
    "HeightlabError",
    "InsufficientDataError",
    "PrecisionExhaustedError",
    "UnboundedSearchError",
    "BoxCountReport",
    "RunConfig",
    "RunResult",
    "SeriesReport",
    "SplitReport",
    "box_count_probe",
    "critical_exponent",
    "khintchine_experiment",
    "min_split_experiment",
    "series_diagnostic",
    "ConstantTrace",
    "ExponentTrace",
    "TraceEntry",
    "constant_estimate",
    "omega_estimate",
    "trace_csv_rows",
    "HeightKind",
    "HeightValue",
    "fs_exponent",
    "height",
    "DEFAULT_PRECISION_BUDGET",
    "Interval",
    "RealTarget",
    "liouville_target",
    "parse_target",
    "reduce",
    "refine",
    "sample_uniform",
    "__version__",
]
