"""Command-line front end.

Each option's default is written once, in ``build_parser``; a ``--config``
file's values become the subcommand's parser defaults, so explicit flags win.
A ``ValueError``, raised by the CLI or by the library, is a usage error:
``main`` reports it and exits 2.

Exit codes: 0 success, 2 usage error, 3 precision exhausted, 4 enumeration
cap exceeded, 5 failed run predicate or insufficient data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
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
    run_files,
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
# the height cap of exponent traces and khintchine trials
_CAP = "1000000"


def _kind(text: str) -> HeightKind:
    try:
        return _KIND_NAMES[text.lower()]
    except KeyError:
        raise ValueError(
            f"unknown height kind {text!r}; choose from {', '.join(sorted(_KIND_NAMES))}"
        )


def _bound(text: str) -> HeightValue:
    base, _, root = text.partition("/")
    try:
        return HeightValue(int(base), int(root) if root else 1)
    except ValueError as exc:
        raise ValueError(f"bad bound {text!r}: {exc}")


def _tau(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}")


def _schedule(text: str) -> List[HeightValue]:
    return [_bound(part) for part in text.split(",") if part]


def _levels(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ValueError(f"bad level range {text!r}: {exc}")


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
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default %(default)s)")
    common.add_argument("--config", help="key=value file merged under explicit flags")
    common.add_argument("--precision-bits", type=int, default=DEFAULT_PRECISION_BUDGET,
                        help="refinement budget for targets")

    p_cf = sub.add_parser("cf", parents=[common], formatter_class=_fmt,
                          help="continued-fraction convergent tables")
    p_cf.add_argument("--target", action="append",
                      help="golden|sqrt2|e|liouville|dec:<lit>|seed:<n>; repeatable")
    p_cf.add_argument("--depth", type=int, default=10,
                      help="rows per table (default %(default)s)")

    p_h = sub.add_parser("heights", parents=[common], formatter_class=_fmt,
                         help="height-function exponent table")
    p_h.add_argument("--kind", default="all", help="height kind or 'all' (default %(default)s)")
    p_h.add_argument("--d", type=int, default=2, help="dimension (default %(default)s)")

    p_a = sub.add_parser("approx", parents=[common], formatter_class=_fmt,
                         help="best approximation under a height budget")
    p_a.add_argument("--target", action="append", help="one per coordinate; repeatable")
    p_a.add_argument("--height", help="height kind (max, min, prod, prod_d_root, lcm)")
    p_a.add_argument("--bound", help="height budget as int[/root]")
    p_a.add_argument("--brute", action="store_true", help="run the exhaustive oracle as well")
    p_a.add_argument("--records", action="store_true", help="emit the full record chain instead")
    p_a.add_argument("--count", action="store_true", help="count tau-approximable solutions")
    p_a.add_argument("--tau", help="exponent p/q for --count")
    p_a.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration guard")

    p_e = sub.add_parser("exponent", parents=[common], formatter_class=_fmt,
                         help="record-quotient exponent traces")
    p_e.add_argument("--target", action="append", help="one per coordinate; repeatable")
    p_e.add_argument("--height", help="height kind")
    p_e.add_argument("--cap", default=_CAP, help="height cap as int[/root] (default %(default)s)")
    p_e.add_argument("--tau", help="estimate the tau-constant instead of the exponent")
    p_e.add_argument("--warmup", type=int, default=100,
                     help="ignore heights below this (default %(default)s)")
    p_e.add_argument("--reducer", help="last or running_max (running_min for --tau)")
    p_e.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration guard")

    p_x = sub.add_parser("experiment", parents=[common], formatter_class=_fmt,
                         help="reproducible experiment drivers")
    p_x.add_argument("--name", help="khintchine, minsplit or box")
    p_x.add_argument("--d", type=int, help="dimension (khintchine)")
    p_x.add_argument("--kind", help="height kind")
    p_x.add_argument("--trials", type=int, default=20, help="trial count (default %(default)s)")
    p_x.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    p_x.add_argument("--cap", default=_CAP, help="height cap as int[/root] (default %(default)s)")
    p_x.add_argument("--tau", help="exponent p/q (minsplit, box)")
    p_x.add_argument("--schedule", default="1000,100000,10000000",
                     help="comma-separated caps for minsplit (default %(default)s)")
    p_x.add_argument("--levels", default="6..14",
                     help="grid levels lo..hi for box (default %(default)s)")
    p_x.add_argument("--workers", type=int, help="parallel workers")
    p_x.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration guard")

    p_s = sub.add_parser("series", parents=[common], formatter_class=_fmt,
                         help="covering-series partial sums and verdict")
    p_s.add_argument("--kind", help="max or prod_d_root")
    p_s.add_argument("--d", type=int, help="dimension")
    p_s.add_argument("--tau", help="exponent p/q")
    p_s.add_argument("--s", help="dimension variable p/q")
    p_s.add_argument("--qmax", type=int, default=100000,
                     help="largest denominator (default %(default)s)")
    return parser


def _config_value(action: argparse.Action, key: str, value: str):
    """A config value converted as the flag's own argparse action would."""
    if action.nargs == 0:  # store_true / store_false
        if value not in ("true", "false"):
            raise ValueError(f"bad config value for {key!r}: expected true or false")
        return action.const if value == "true" else action.default
    try:
        out = action.type(value) if action.type else value
    except ValueError as exc:
        raise ValueError(f"bad config value for {key!r}: {exc}")
    if action.choices is not None and out not in action.choices:
        raise ValueError(
            f"bad config value for {key!r}: choose from {', '.join(map(str, action.choices))}"
        )
    return out


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """argv parsed again with the config file's values as the subcommand's
    defaults, so that explicit flags win."""
    try:
        with open(args.config) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config!r}: {exc}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub_parser = sub.choices[args.command]
    actions = {a.dest: a for a in sub_parser._actions if a.dest != "help"}
    defaults = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"bad config line {raw.rstrip()!r}")
        key, value = key.strip(), value.strip()
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        if action.dest == "target":
            value = [v.strip() for v in value.split(",") if v.strip()]
        else:
            value = _config_value(action, key, value)
        defaults.setdefault(action.dest, value)  # a repeated key keeps its first value
    # an appended list default would merge with explicit targets
    targets = defaults.pop("target", None)
    sub_parser.set_defaults(**defaults)
    args = parser.parse_args(argv)
    if targets is not None and args.target is None:
        args.target = targets
    return args


@contextmanager
def _output(path: str, mode: str = "w"):
    """The output file opened for writing; an OSError is a usage error."""
    try:
        with open(path, mode) as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write output {path!r}: {exc}")


def _emit(args, header: str, rows: Sequence[Sequence], json_obj) -> None:
    if args.format == "json":
        text = json.dumps(json_obj, indent=1) + "\n"
    else:
        lines = [header]
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    with _output(args.out) as fh:
        fh.write(text)


def _targets(args) -> tuple:
    if not args.target:
        raise ValueError("at least one --target is required")
    return tuple(parse_target(s, args.precision_bits) for s in args.target)


def _iv_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _cmd_cf(args) -> int:
    x = _targets(args)
    rows = []
    blobs = []
    for spec, t in zip(args.target, x):
        table = expand(t, args.depth, strict=False)
        rows += [(spec, n, a, p, q) for n, a, p, q in table.csv_rows()]
        blobs.append({
            "target": spec,
            "status": table.status,
            "rows": [{"n": n, "a": a, "p": p, "q": q} for n, a, p, q in table.csv_rows()],
        })
    _emit(args, "target,n,a,p,q", rows, blobs)
    return EXIT_OK


def _cmd_heights(args) -> int:
    kinds = list(HeightKind) if args.kind == "all" else [_kind(args.kind)]
    rows = []
    blobs = []
    for k in kinds:
        iv = fs_exponent(k, args.d)
        rows.append((k.name.lower(), args.d, float(iv.lower), float(iv.upper)))
        blobs.append({
            "kind": k.name.lower(), "d": args.d,
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
    if args.height is None:
        raise ValueError("--height is required")
    kind = _kind(args.height)
    if args.bound is None:
        raise ValueError("--bound is required")
    bound = _bound(args.bound)
    x = _targets(args)
    if args.count:
        if args.tau is None:
            raise ValueError("--count needs --tau")
        n = solutions_count(x, kind, _tau(args.tau), bound, enum_cap=args.enum_cap)
        _emit(args, "count", [(n,)], {"count": n})
        return EXIT_OK
    if kind is HeightKind.MIN:
        raise ValueError(
            "the min height admits arbitrarily good approximations at any "
            "budget; use counting mode (--count --tau ...) instead"
        )
    if args.records:
        chain = records(x, kind, bound, enum_cap=args.enum_cap)
        hdr = "height_base,height_root,error_lo,error_hi," + ",".join(
            f"p{i},q{i}" for i in range(len(x))
        )
        _emit(args, hdr, record_csv_rows(chain), [_record_json(r) for r in chain])
        return EXIT_OK
    rec = fast_best(x, Budget(kind, bound), enum_cap=args.enum_cap)
    blob = {"fast": _record_json(rec)}
    rows = [("fast",) + row for row in record_csv_rows([rec])]
    if args.brute:
        ref = brute_force_best(x, Budget(kind, bound), enum_cap=args.enum_cap)
        blob["brute"] = _record_json(ref)
        blob["match"] = ref == rec
        rows += [("brute",) + row for row in record_csv_rows([ref])]
    hdr = "route,height_base,height_root,error_lo,error_hi," + ",".join(
        f"p{i},q{i}" for i in range(len(x))
    )
    _emit(args, hdr, rows, blob)
    return EXIT_OK


def _cmd_exponent(args) -> int:
    if args.height is None:
        raise ValueError("--height is required")
    kind = _kind(args.height)
    cap = _bound(args.cap)
    x = _targets(args)
    if args.tau is not None:
        tr = constant_estimate(
            x, kind, _tau(args.tau), cap, warmup=args.warmup,
            reducer=args.reducer or "running_min", enum_cap=args.enum_cap,
        )
    else:
        tr = omega_estimate(
            x, kind, cap, warmup=args.warmup, reducer=args.reducer or "last",
            enum_cap=args.enum_cap,
        )
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
    if args.name == "khintchine":
        if args.d is None or args.kind is None:
            raise ValueError("khintchine needs --d and --kind")
        if args.tau is not None:
            raise ValueError("khintchine takes no --tau: its trials estimate the exponent")
        cfg = RunConfig(
            name="khintchine",
            d=args.d,
            kind=_kind(args.kind),
            tau=None,
            base_seed=args.seed,
            trials=args.trials,
            height_cap=_bound(args.cap),
            precision_budget=args.precision_bits,
            enum_cap=args.enum_cap,
            out=args.out,
        )
        if args.out:
            # the run files are written once every trial has run: check them first
            for path in run_files(args.out):
                existed = os.path.exists(path)
                with _output(path, "a"):
                    pass
                if not existed:
                    os.remove(path)
        result = khintchine_experiment(cfg, workers=args.workers)
        agg = result.aggregates
        line = (
            f"ok={agg['ok']} failed={agg['failed']} median={agg.get('median')} "
            f"within_band={agg.get('within_band')} passes={agg['passes']}"
        )
        if not args.out:
            sys.stdout.write(json.dumps(result.to_json(), indent=1) + "\n")
        sys.stdout.write(line + "\n")
        return EXIT_OK if agg["passes"] else EXIT_PREDICATE
    if args.name == "minsplit":
        tau = _tau(args.tau) if args.tau is not None else Fraction(5)
        caps = _schedule(args.schedule)
        if len(caps) < 2:
            raise ValueError("minsplit needs a schedule of at least two caps")
        rep = min_split_experiment(tau, caps, enum_cap=args.enum_cap)
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
    if args.name == "box":
        if args.kind is None:
            raise ValueError("box needs --kind")
        tau = _tau(args.tau) if args.tau is not None else Fraction(4)
        rep = box_count_probe(_kind(args.kind), tau, grid_levels=_levels(args.levels))
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
    raise ValueError("--name must be khintchine, minsplit or box")


def _cmd_series(args) -> int:
    if args.kind is None or args.d is None or args.tau is None or args.s is None:
        raise ValueError("series needs --kind, --d, --tau and --s")
    rep = series_diagnostic(_kind(args.kind), args.d, _tau(args.tau), _tau(args.s), args.qmax)
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
        if args.config:
            args = _apply_config(parser, args, argv)
        for dest in ("precision_bits", "enum_cap", "warmup"):
            n = getattr(args, dest, 1)
            if n < 1:
                raise ValueError(f"--{dest.replace('_', '-')} must be >= 1, got {n}")
        return _COMMANDS[args.command](args)
    except (ValueError, UnboundedSearchError) as exc:
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
