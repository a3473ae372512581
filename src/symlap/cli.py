"""Command line front end.

Subcommands:
  forward         grid-evaluate the forward transform of a catalog
                  signal, CSV columns y,re,im,err
  invert          split-invert a rational expression over a time grid,
                  CSV columns t,re,im
  invert-numeric  Fourier-integral inversion at one time point, CSV
                  columns t,re,im,a_sensitivity
  verify          run the acceptance suite, JSON report on stdout

forward and invert take one point (--y, --t) or a grid (--ymin/--ymax,
--tmin/--tmax, with --steps intervals), never both.  Data goes to
stdout (or --out), diagnostics to stderr.  Exit codes: 0 ok, 1 a failed
verify criterion, 2 usage or catalog problem, or an --out that cannot be
written (also after a failed verify criterion, its report on stdout),
3 expression problem, 4 divergence, 5 numeric failure.  Floats print in
shortest round-trip form, and equal invocations produce byte-identical
output.
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

# The exit code of each error type main catches.  The first row the
# error is an instance of wins, so an ExprError or a PropernessError is
# not taken for the ValueError it also is; other errors propagate.
_EXIT_CODES = {
    CatalogError: 2,
    ExprError: 3,
    DivergenceError: 4,
    AccuracyError: 5,
    PropernessError: 5,
    PoleError: 5,
    RootFindingError: 5,
    OverflowError: 5,
    ValueError: 2,  # a bad tolerance, truncation, time or point
}


def grid_points(lo: float, hi: float, steps: int):
    """steps+1 evenly spaced points including both ends."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return [lo + k * (hi - lo) / steps for k in range(steps + 1)]


def _csv(header: str, *columns) -> str:
    """The header line, then one row per entry of the columns, each
    value in shortest round-trip form."""
    row = ",".join(["%r"] * len(columns)) + "\n"
    return header + "\n" + "".join([row % r for r in zip(*columns)])


def forward_csv(signal: str, x1: float, x2: float, ys, tol: float,
                freq: float = 1.0) -> str:
    f = catalog_signal(signal, freq=freq)
    ys = np.asarray(ys, dtype=float)
    value, estimate = sl_forward_values(f, x1, x2, ys, tol)
    return _csv("y,re,im,err", ys.tolist(), value.real.tolist(),
                value.imag.tolist(), estimate.tolist())


def invert_csv(expr_text: str, ts) -> str:
    st = parse_transform(expr_text)
    ts = np.asarray(ts, dtype=float)
    value = sl_inverse_split(st, ts)
    return _csv("t,re,im", ts.tolist(), value.real.tolist(),
                value.imag.tolist())


def invert_numeric_csv(expr_text: str, x1: float, x2: float, t: float,
                       A: float, tol: float) -> str:
    full, half = sl_inverse_numeric_pair(parse_transform(expr_text), x1, x2,
                                         t, A, tol)
    return _csv("t,re,im,a_sensitivity", [float(t)], [full.real],
                [full.imag], [abs(full - half)])


def _add_points(p, name: str, what: str):
    """Declare --<name> and the --<name>min/--<name>max/--steps grid."""
    p.add_argument(f"--{name}", type=float, help=f"single {what} value")
    p.add_argument(f"--{name}min", type=float,
                   help=f"grid start (with --{name}max)")
    p.add_argument(f"--{name}max", type=float,
                   help=f"grid end (with --{name}min)")
    p.add_argument("--steps", type=int, default=100,
                   help="grid intervals, rows = steps+1 (default 100)")


def _points(parser, args, name: str):
    """The --<name> point, or the grid of --<name>min/--<name>max."""
    point, lo, hi = (getattr(args, name + k) for k in ("", "min", "max"))
    if point is not None:
        if lo is not None or hi is not None:
            parser.error(f"--{name} conflicts with --{name}min/--{name}max")
        return [point]
    if lo is None or hi is None:
        parser.error(f"need --{name} or both --{name}min and --{name}max")
    if args.steps < 1:
        parser.error("--steps must be >= 1")
    return grid_points(lo, hi, args.steps)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlap",
        description="Symmetric Laplace transform toolkit: forward "
                    "evaluation, two inversion paths, verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)
    csv_out = "write CSV here instead of stdout"

    p = sub.add_parser("forward", help="forward transform over a y grid")
    p.add_argument("--signal", required=True,
                   help="catalog signal name (see package docs)")
    p.add_argument("--x1", type=float, required=True,
                   help="damping on the positive half-line")
    p.add_argument("--x2", type=float, required=True,
                   help="damping on the negative half-line")
    _add_points(p, "y", "oscillation")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="absolute tolerance per point (default 1e-8)")
    p.add_argument("--freq", type=float, default=1.0,
                   help="frequency for sincos/cossin (default 1)")
    p.add_argument("--out", help=csv_out)

    p = sub.add_parser("invert", help="split inversion over a t grid")
    p.add_argument("--expr", required=True,
                   help="rational expression in s and cs")
    _add_points(p, "t", "time")
    p.add_argument("--out", help=csv_out)

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
    p.add_argument("--out", help=csv_out)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--out", help="write the JSON report here too")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    code = 0
    try:
        if args.command == "forward":
            text = forward_csv(args.signal, args.x1, args.x2,
                               _points(parser, args, "y"), args.tol,
                               freq=args.freq)
        elif args.command == "invert":
            text = invert_csv(args.expr, _points(parser, args, "t"))
        elif args.command == "invert-numeric":
            text = invert_numeric_csv(args.expr, args.x1, args.x2, args.t,
                                      args.A, args.tol)
        else:
            from . import verify

            results = verify.run_all()
            text = verify.report_json(results)
            code = 0 if all(r.passed for r in results) else 1
        if args.command == "verify" or not args.out:  # verify --out copies
            sys.stdout.write(text)
    except tuple(_EXIT_CODES) as exc:
        print(f"symlap: {exc}", file=sys.stderr)
        return next(c for t, c in _EXIT_CODES.items() if isinstance(exc, t))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # the --out file alone; other OS errors pass
            print(f"symlap: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
