"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 precision exhausted, 4 enumeration
cap exceeded, 5 failed run predicate or insufficient data.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from .approx_search import (
    DEFAULT_ENUM_CAP,
    brute_force_best,
    Budget,
    fast_best,
    record_csv_rows,
    records,
    solutions_count,
)
from .cf_engine import expand
from .errors import (
    CapExceededError,
    InsufficientDataError,
    PrecisionExhaustedError,
    UnboundedSearchError,
)
from .experiments import (
    RunConfig,
    box_count_probe,
    khintchine_experiment,
    min_split_experiment,
    series_diagnostic,
)
from .exponents import constant_estimate, omega_estimate, trace_csv_rows
from .heights import HeightKind, HeightValue, fs_exponent
from .numerics import DEFAULT_PRECISION_BUDGET, parse_target

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_CAP = 4
EXIT_PREDICATE = 5

_KIND_NAMES = {k.name.lower(): k for k in HeightKind}
# common alternate spelling of the rooted product
_KIND_NAMES["prod_d_root"] = HeightKind.PROD_ROOT


class UsageError(Exception):
    pass


def _kind(text: str) -> HeightKind:
    try:
        return _KIND_NAMES[text.lower()]
    except KeyError:
        raise UsageError(
            f"unknown height kind {text!r}; choose from {', '.join(sorted(_KIND_NAMES))}"
        )


def _bound(text: str) -> HeightValue:
    base, _, root = text.partition("/")
    try:
        return HeightValue(int(base), int(root) if root else 1)
    except ValueError as exc:
        raise UsageError(f"bad bound {text!r}: {exc}")


def _tau(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}: {exc}")


def _enum_cap(args) -> int:
    if args.enum_cap is None:
        return DEFAULT_ENUM_CAP
    if args.enum_cap < 1:
        raise UsageError(f"--enum-cap must be >= 1, got {args.enum_cap}")
    return args.enum_cap


def _precision_bits(args) -> int:
    if args.precision_bits is None:
        return DEFAULT_PRECISION_BUDGET
    if args.precision_bits < 1:
        raise UsageError(f"--precision-bits must be >= 1, got {args.precision_bits}")
    return args.precision_bits


def _schedule(text: str) -> List[HeightValue]:
    return [_bound(part) for part in text.split(",") if part]


def _levels(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise UsageError(f"bad level range {text!r}: {exc}")


def _fmt(prog: str) -> argparse.HelpFormatter:
    return argparse.HelpFormatter(prog, width=100)


def build_parser(prog: str = "heightlab") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        formatter_class=_fmt,
        description="Rational approximation under nonstandard height functions.",
        epilog=(
            "exit codes: 0 ok, 2 usage, 3 precision exhausted, "
            "4 cap exceeded, 5 failed predicate"
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="{cf,heights,approx,exponent,experiment,series}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv)")
    common.add_argument("--config", help="key=value file merged under explicit flags")
    common.add_argument("--precision-bits", type=int, default=None,
                        help="refinement budget for targets")

    p_cf = sub.add_parser("cf", parents=[common], formatter_class=_fmt,
                          help="continued-fraction convergent tables")
    p_cf.add_argument("--target", action="append",
                      help="golden|sqrt2|e|liouville|dec:<lit>|seed:<n>; repeatable")
    p_cf.add_argument("--depth", type=int, default=None, help="rows per table (default 10)")

    p_h = sub.add_parser("heights", parents=[common], formatter_class=_fmt,
                         help="height-function exponent table")
    p_h.add_argument("--kind", default=None, help="height kind or 'all' (default all)")
    p_h.add_argument("--d", type=int, default=None, help="dimension (default 2)")
    p_h.add_argument("--exponents", action="store_true",
                     help="print critical-exponent intervals")

    p_a = sub.add_parser("approx", parents=[common], formatter_class=_fmt,
                         help="best approximation under a height budget")
    p_a.add_argument("--target", action="append", help="one per coordinate; repeatable")
    p_a.add_argument("--height", default=None, help="height kind (max, min, prod, prod_d_root, lcm)")
    p_a.add_argument("--bound", default=None, help="height budget as int[/root]")
    p_a.add_argument("--brute", action="store_true", help="run the exhaustive oracle as well")
    p_a.add_argument("--records", action="store_true", help="emit the full record chain instead")
    p_a.add_argument("--count", action="store_true", help="count tau-approximable solutions")
    p_a.add_argument("--tau", default=None, help="exponent p/q for --count")
    p_a.add_argument("--enum-cap", type=int, default=None, help="enumeration guard")

    p_e = sub.add_parser("exponent", parents=[common], formatter_class=_fmt,
                         help="record-quotient exponent traces")
    p_e.add_argument("--target", action="append", help="one per coordinate; repeatable")
    p_e.add_argument("--height", default=None, help="height kind")
    p_e.add_argument("--cap", default=None, help="height cap as int[/root] (default 1000000)")
    p_e.add_argument("--tau", default=None,
                     help="estimate the tau-constant instead of the exponent")
    p_e.add_argument("--warmup", type=int, default=None, help="ignore heights below this (default 100)")
    p_e.add_argument("--reducer", default=None, help="last or running_max (running_min for --tau)")
    p_e.add_argument("--enum-cap", type=int, default=None, help="enumeration guard")

    p_x = sub.add_parser("experiment", parents=[common], formatter_class=_fmt,
                         help="reproducible experiment drivers")
    p_x.add_argument("--name", default=None, help="khintchine, minsplit or box")
    p_x.add_argument("--d", type=int, default=None, help="dimension (khintchine)")
    p_x.add_argument("--kind", default=None, help="height kind")
    p_x.add_argument("--trials", type=int, default=None, help="trial count (default 20)")
    p_x.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    p_x.add_argument("--cap", default=None, help="height cap as int[/root] (default 1000000)")
    p_x.add_argument("--tau", default=None, help="exponent p/q (minsplit, box)")
    p_x.add_argument("--schedule", default=None,
                     help="comma-separated caps for minsplit (default 1000,100000,10000000)")
    p_x.add_argument("--levels", default=None, help="grid levels lo..hi for box (default 6..14)")
    p_x.add_argument("--workers", type=int, default=None, help="parallel workers")
    p_x.add_argument("--enum-cap", type=int, default=None, help="enumeration guard")

    p_s = sub.add_parser("series", parents=[common], formatter_class=_fmt,
                         help="covering-series partial sums and verdict")
    p_s.add_argument("--kind", default=None, help="max or prod_d_root")
    p_s.add_argument("--d", type=int, default=None, help="dimension")
    p_s.add_argument("--tau", default=None, help="exponent p/q")
    p_s.add_argument("--s", default=None, help="dimension variable p/q")
    p_s.add_argument("--qmax", type=int, default=None, help="largest denominator (default 100000)")
    return parser


def _config_value(action: argparse.Action, key: str, value: str):
    """A config value converted as the flag's own argparse action would."""
    if action.nargs == 0:  # store_true / store_false
        if value not in ("true", "false"):
            raise UsageError(f"bad config value for {key!r}: expected true or false")
        return action.const if value == "true" else action.default
    try:
        out = action.type(value) if action.type else value
    except ValueError as exc:
        raise UsageError(f"bad config value for {key!r}: {exc}")
    if action.choices is not None and out not in action.choices:
        raise UsageError(
            f"bad config value for {key!r}: choose from {', '.join(map(str, action.choices))}"
        )
    return out


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"bad config line {raw.rstrip()!r}")
        dest = key.strip().replace("-", "_")
        value = value.strip()
        action = actions.get(dest) if hasattr(args, dest) else None
        if action is None:
            raise UsageError(f"unknown config key {key.strip()!r}")
        if dest == "target":
            if args.target is None:
                args.target = [v.strip() for v in value.split(",") if v.strip()]
            continue
        if getattr(args, dest) == action.default:  # explicit flags win
            setattr(args, dest, _config_value(action, key.strip(), value))


def _emit(args, header: str, rows: Sequence[Sequence], json_obj) -> None:
    fmt = getattr(args, "format", None) or "csv"
    if fmt == "json":
        text = json.dumps(json_obj, indent=1) + "\n"
    else:
        lines = [header]
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _targets(args, budget: int) -> tuple:
    specs = getattr(args, "target", None)
    if not specs:
        raise UsageError("at least one --target is required")
    try:
        return tuple(parse_target(s, budget) for s in specs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _iv_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _cmd_cf(args) -> int:
    budget = _precision_bits(args)
    depth = args.depth if args.depth is not None else 10
    if depth < 1:
        raise UsageError("need --depth >= 1")
    x = _targets(args, budget)
    rows = []
    blobs = []
    for spec, t in zip(args.target, x):
        table = expand(t, depth, strict=False)
        rows += [(spec, n, a, p, q) for n, a, p, q in table.csv_rows()]
        blobs.append({
            "target": spec,
            "status": table.status,
            "rows": [{"n": n, "a": a, "p": p, "q": q} for n, a, p, q in table.csv_rows()],
        })
    _emit(args, "target,n,a,p,q", rows, blobs)
    return EXIT_OK


def _cmd_heights(args) -> int:
    d = args.d if args.d is not None else 2
    if d < 1:
        raise UsageError("need --d >= 1")
    kinds = list(HeightKind) if args.kind in (None, "all") else [_kind(args.kind)]
    rows = []
    blobs = []
    for k in kinds:
        try:
            iv = fs_exponent(k, d)
        except ValueError as exc:
            raise UsageError(str(exc))
        rows.append((k.name.lower(), d, float(iv.lower), float(iv.upper)))
        blobs.append({
            "kind": k.name.lower(), "d": d,
            "lo": _iv_str(iv.lower), "hi": _iv_str(iv.upper),
        })
    _emit(args, "kind,d,exponent_lo,exponent_hi", rows, blobs)
    return EXIT_OK


def _record_json(rec) -> Dict:
    return {
        "point": [_iv_str(f) for f in rec.point],
        "error_lo": _iv_str(rec.error.lower),
        "error_hi": _iv_str(rec.error.upper),
        "height": [rec.height.base, rec.height.root],
    }


def _cmd_approx(args) -> int:
    budget = _precision_bits(args)
    if args.height is None:
        raise UsageError("--height is required")
    kind = _kind(args.height)
    if args.bound is None:
        raise UsageError("--bound is required")
    bound = _bound(args.bound)
    x = _targets(args, budget)
    enum_cap = _enum_cap(args)
    if args.count:
        if args.tau is None:
            raise UsageError("--count needs --tau")
        n = solutions_count(x, kind, _tau(args.tau), bound, enum_cap=enum_cap)
        _emit(args, "count", [(n,)], {"count": n})
        return EXIT_OK
    if kind is HeightKind.MIN:
        raise UsageError(
            "the min height admits arbitrarily good approximations at any "
            "budget; use counting mode (--count --tau ...) instead"
        )
    if args.records:
        chain = records(x, kind, bound, enum_cap=enum_cap)
        hdr = "height_base,height_root,error_lo,error_hi," + ",".join(
            f"p{i},q{i}" for i in range(len(x))
        )
        _emit(args, hdr, record_csv_rows(chain), [_record_json(r) for r in chain])
        return EXIT_OK
    rec = fast_best(x, Budget(kind, bound), enum_cap=enum_cap)
    blob = {"fast": _record_json(rec)}
    rows = [("fast",) + row for row in record_csv_rows([rec])]
    if args.brute:
        ref = brute_force_best(x, Budget(kind, bound), enum_cap=enum_cap)
        blob["brute"] = _record_json(ref)
        blob["match"] = ref == rec
        rows += [("brute",) + row for row in record_csv_rows([ref])]
    hdr = "route,height_base,height_root,error_lo,error_hi," + ",".join(
        f"p{i},q{i}" for i in range(len(x))
    )
    _emit(args, hdr, rows, blob)
    return EXIT_OK


def _cmd_exponent(args) -> int:
    budget = _precision_bits(args)
    if args.height is None:
        raise UsageError("--height is required")
    kind = _kind(args.height)
    cap = _bound(args.cap) if args.cap is not None else HeightValue(10 ** 6)
    warmup = args.warmup if args.warmup is not None else 100
    enum_cap = _enum_cap(args)
    x = _targets(args, budget)
    try:
        if args.tau is not None:
            reducer = args.reducer or "running_min"
            tr = constant_estimate(
                x, kind, _tau(args.tau), cap, warmup=warmup,
                reducer=reducer, enum_cap=enum_cap,
            )
        else:
            reducer = args.reducer or "last"
            tr = omega_estimate(
                x, kind, cap, warmup=warmup, reducer=reducer, enum_cap=enum_cap
            )
    except ValueError as exc:
        raise UsageError(str(exc))
    blob = {
        "kind": kind.name.lower(),
        "estimate_lo": _iv_str(tr.estimate.lower),
        "estimate_hi": _iv_str(tr.estimate.upper),
        "value": tr.value,
        "entries": [
            {
                "height": [e.height.base, e.height.root],
                "lo": _iv_str(e.value.lower),
                "hi": _iv_str(e.value.upper),
            }
            for e in tr.entries
        ],
    }
    _emit(args, "height_base,height_root,quotient_lo,quotient_hi",
          [(b, r, float(lo), float(hi)) for b, r, lo, hi in trace_csv_rows(tr)],
          blob)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    name = args.name
    if name == "khintchine":
        if args.d is None or args.kind is None:
            raise UsageError("khintchine needs --d and --kind")
        if args.tau is not None:
            raise UsageError("khintchine takes no --tau: its trials estimate the exponent")
        cfg = RunConfig(
            name="khintchine",
            d=args.d,
            kind=_kind(args.kind),
            tau=None,
            base_seed=args.seed if args.seed is not None else 0,
            trials=args.trials if args.trials is not None else 20,
            height_cap=_bound(args.cap) if args.cap is not None else HeightValue(10 ** 6),
            precision_budget=_precision_bits(args),
            enum_cap=_enum_cap(args),
            out=args.out,
        )
        try:
            result = khintchine_experiment(cfg, workers=args.workers)
        except ValueError as exc:
            raise UsageError(str(exc))
        agg = result.aggregates
        line = (
            f"ok={agg['ok']} failed={agg['failed']} median={agg.get('median')} "
            f"within_band={agg.get('within_band')} passes={agg['passes']}"
        )
        if not args.out:
            sys.stdout.write(json.dumps(result.to_json(), indent=1) + "\n")
        sys.stdout.write(line + "\n")
        return EXIT_OK if agg["passes"] else EXIT_PREDICATE
    if name == "minsplit":
        tau = _tau(args.tau) if args.tau is not None else Fraction(5)
        caps = (
            _schedule(args.schedule)
            if args.schedule is not None
            else [HeightValue(10 ** 3), HeightValue(10 ** 5), HeightValue(10 ** 7)]
        )
        if len(caps) < 2:
            raise UsageError("minsplit needs a schedule of at least two caps")
        try:
            rep = min_split_experiment(tau, caps, enum_cap=_enum_cap(args))
        except ValueError as exc:
            raise UsageError(str(exc))
        rows = [
            (r.label, " ".join(str(c.base) for c in r.caps),
             " ".join(str(c) for c in r.counts), r.verdict)
            for r in rep.rows
        ]
        blob = [
            {"label": r.label, "counts": list(r.counts), "verdict": r.verdict}
            for r in rep.rows
        ]
        _emit(args, "pair,caps,counts,verdict", rows, blob)
        expected = {
            "liouville,golden": "growing",
            "golden,liouville": "growing",
            "golden,sqrt2": "stagnating",
        }
        bad = [r.label for r in rep.rows if expected[r.label] != r.verdict]
        if bad:
            sys.stderr.write(f"predicted verdict failed for: {', '.join(bad)}\n")
            return EXIT_PREDICATE
        return EXIT_OK
    if name == "box":
        if args.kind is None:
            raise UsageError("box needs --kind")
        tau = _tau(args.tau) if args.tau is not None else Fraction(4)
        levels = _levels(args.levels) if args.levels is not None else range(6, 15)
        try:
            rep = box_count_probe(_kind(args.kind), tau, grid_levels=levels)
        except ValueError as exc:
            raise UsageError(str(exc))
        rows = [(lv, c) for lv, c in rep.levels]
        blob = {
            "kind": rep.kind.name.lower(),
            "tau": _iv_str(rep.tau),
            "slope": rep.slope,
            "residual": rep.residual,
            "levels": [{"level": lv, "cells": c} for lv, c in rep.levels],
            "skipped": list(rep.skipped),
        }
        _emit(args, "level,cells", rows, blob)
        sys.stdout.write(f"slope={rep.slope:.6f} residual={rep.residual:.6f}\n")
        return EXIT_OK
    raise UsageError("--name must be khintchine, minsplit or box")


def _cmd_series(args) -> int:
    if args.kind is None or args.d is None or args.tau is None or args.s is None:
        raise UsageError("series needs --kind, --d, --tau and --s")
    qmax = args.qmax if args.qmax is not None else 10 ** 5
    try:
        rep = series_diagnostic(_kind(args.kind), args.d, _tau(args.tau), _tau(args.s), qmax)
    except ValueError as exc:
        raise UsageError(str(exc))
    rows = [(q, v) for q, v in rep.partials]
    blob = {
        "kind": rep.kind.name.lower(),
        "d": rep.d,
        "tau": _iv_str(rep.tau),
        "s": _iv_str(rep.s),
        "term_exponent": _iv_str(rep.term_exponent),
        "critical_exponent": _iv_str(rep.critical),
        "verdict": rep.verdict,
        "partials": [{"q_max": q, "sum": v} for q, v in rep.partials],
    }
    sys.stdout.write(f"verdict: {rep.verdict}\n")
    _emit(args, "q_max,partial_sum", rows, blob)
    return EXIT_OK


_COMMANDS = {
    "cf": _cmd_cf,
    "heights": _cmd_heights,
    "approx": _cmd_approx,
    "exponent": _cmd_exponent,
    "experiment": _cmd_experiment,
    "series": _cmd_series,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        _apply_config(args, parser)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except UnboundedSearchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PrecisionExhaustedError as exc:
        sys.stderr.write(f"error: precision exhausted: {exc}\n")
        return EXIT_PRECISION
    except CapExceededError as exc:
        sys.stderr.write(f"error: cap exceeded: {exc}\n")
        return EXIT_CAP
    except InsufficientDataError as exc:
        sys.stderr.write(f"error: insufficient data: {exc}\n")
        return EXIT_PREDICATE


if __name__ == "__main__":
    sys.exit(main())
