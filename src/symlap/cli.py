"""Command line front end.

Subcommands:
  forward         grid-evaluate the forward transform of a catalog
                  signal, CSV columns y,re,im,err
  invert          split-invert a rational expression over a time grid,
                  CSV columns t,re,im
  invert-numeric  Fourier-integral inversion at one time point, CSV
                  columns t,re,im,a_sensitivity
  verify          run the acceptance suite, JSON report on stdout

Data goes to stdout (or --out), diagnostics to stderr.  Exit codes:
0 ok, 2 usage or catalog problem, 3 expression problem, 4 divergence,
5 numeric failure.  Floats print in shortest round-trip form, and equal
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import catalog_signal
from .errors import (
    AccuracyError,
    CatalogError,
    DivergenceError,
    ExprError,
    PoleError,
    PropernessError,
    RootFindingError,
)
from .expr import parse_transform
from .forward import sl_forward_values
from .inversion import sl_inverse_numeric_pair, sl_inverse_split

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DIVERGENCE = 4
EXIT_NUMERIC = 5


def grid_points(lo: float, hi: float, steps: int):
    """steps+1 evenly spaced points including both ends."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return [lo + k * (hi - lo) / steps for k in range(steps + 1)]


def forward_csv(signal: str, x1: float, x2: float, ys, tol: float,
                freq: float = 1.0) -> str:
    f = catalog_signal(signal, freq=freq)
    ys = np.asarray(ys, dtype=float)
    value, estimate = sl_forward_values(f, x1, x2, ys, tol)
    rows = zip(ys.tolist(), value.real.tolist(), value.imag.tolist(),
               estimate.tolist())
    return "y,re,im,err\n" + "".join(["%r,%r,%r,%r\n" % row for row in rows])


def invert_csv(expr_text: str, ts) -> str:
    st = parse_transform(expr_text)
    ts = np.asarray(ts, dtype=float)
    value = sl_inverse_split(st, ts)
    rows = zip(ts.tolist(), value.real.tolist(), value.imag.tolist())
    return "t,re,im\n" + "".join(["%r,%r,%r\n" % row for row in rows])


def invert_numeric_csv(expr_text: str, x1: float, x2: float, t: float,
                       A: float, tol: float) -> str:
    full, half = sl_inverse_numeric_pair(parse_transform(expr_text), x1, x2,
                                         t, A, tol)
    sens = abs(full - half)
    return ("t,re,im,a_sensitivity\n"
            f"{float(t)!r},{full.real!r},{full.imag!r},{sens!r}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlap",
        description="Symmetric Laplace transform toolkit: forward "
                    "evaluation, two inversion paths, verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forward", help="forward transform over a y grid")
    p.add_argument("--signal", required=True,
                   help="catalog signal name (see package docs)")
    p.add_argument("--x1", type=float, required=True,
                   help="damping on the positive half-line")
    p.add_argument("--x2", type=float, required=True,
                   help="damping on the negative half-line")
    p.add_argument("--y", type=float, help="single oscillation value")
    p.add_argument("--ymin", type=float, help="grid start (with --ymax)")
    p.add_argument("--ymax", type=float, help="grid end (with --ymin)")
    p.add_argument("--steps", type=int, default=100,
                   help="grid intervals, rows = steps+1 (default 100)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="absolute tolerance per point (default 1e-8)")
    p.add_argument("--freq", type=float, default=1.0,
                   help="frequency for sincos/cossin (default 1)")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("invert", help="split inversion over a t grid")
    p.add_argument("--expr", required=True,
                   help="rational expression in s and cs")
    p.add_argument("--t", type=float, help="single time value")
    p.add_argument("--tmin", type=float, help="grid start (with --tmax)")
    p.add_argument("--tmax", type=float, help="grid end (with --tmin)")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("invert-numeric",
                       help="Fourier-integral inversion at one time")
    p.add_argument("--expr", required=True)
    p.add_argument("--x1", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--A", type=float, default=1000.0,
                   help="frequency truncation (default 1000)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="discretization tolerance (default 1e-8)")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--out", help="write the JSON report here too")
    return parser


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "forward":
            if args.y is not None:
                if args.ymin is not None or args.ymax is not None:
                    parser.error("--y conflicts with --ymin/--ymax")
                ys = [args.y]
            else:
                if args.ymin is None or args.ymax is None:
                    parser.error("need --y or both --ymin and --ymax")
                if args.steps < 1:
                    parser.error("--steps must be >= 1")
                ys = grid_points(args.ymin, args.ymax, args.steps)
            _emit(forward_csv(args.signal, args.x1, args.x2, ys, args.tol,
                              freq=args.freq), args.out)
            return EXIT_OK
        if args.command == "invert":
            if args.t is not None:
                ts = [args.t]
            else:
                if args.tmin is None or args.tmax is None:
                    parser.error("need --t or both --tmin and --tmax")
                if args.steps < 1:
                    parser.error("--steps must be >= 1")
                ts = grid_points(args.tmin, args.tmax, args.steps)
            _emit(invert_csv(args.expr, ts), args.out)
            return EXIT_OK
        if args.command == "invert-numeric":
            _emit(invert_numeric_csv(args.expr, args.x1, args.x2, args.t,
                                     args.A, args.tol), args.out)
            return EXIT_OK
        if args.command == "verify":
            from . import verify

            results = verify.run_all()
            text = verify.report_json(results)
            sys.stdout.write(text)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            return EXIT_OK if all(r.passed for r in results) else 1
    except CatalogError as exc:
        print(f"symlap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExprError as exc:
        print(f"symlap: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DivergenceError as exc:
        print(f"symlap: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (AccuracyError, PropernessError, PoleError, RootFindingError,
            OverflowError) as exc:
        print(f"symlap: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # a bad tolerance, truncation, time or point
        print(f"symlap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
