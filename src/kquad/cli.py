"""Command-line interface.

    kquad run <config>                      # full benchmark sweep from a config file
    kquad compress --input data.csv ...     # one dataset -> one rule CSV
    kquad rates --summary results_summary.csv --model <curve spec>

Exit codes: 0 success, 1 input error, 2 numerical failure; either failure prints ``error: ...``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench, spectral
from .errors import InputError, NumericalError
from .kernels import parse_kernel
from .quadrature import METHODS, compress
from .specs import parse_spec


class _Parser(argparse.ArgumentParser):
    """A usage error is an input error: one ``error:`` line, exit 1.  The
    subparsers are made of this class too."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kquad", description="kernel quadrature benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config file")
    run.add_argument("config")

    comp = sub.add_parser("compress", help="compress one dataset into a quadrature rule")
    comp.add_argument("--input", required=True, help="CSV of data points")
    comp.add_argument("--kernel", required=True, help="e.g. gaussian:sigma=median")
    comp.add_argument("--method", required=True, help=f"one of {tuple(METHODS)}")
    comp.add_argument("--m", required=True, type=int)
    comp.add_argument("--seed", required=True, type=int)
    comp.add_argument("--output", required=True, help="rule CSV to write")
    comp.add_argument("--standardize", action="store_true")
    comp.add_argument(
        "--allow-large-n", action="store_true",
        help="lift the n <= 2^14 and m <= 2^14 cap on the passes quadratic in them",
    )

    rates = sub.add_parser("rates", help="fit slopes and overlay a theoretical curve")
    rates.add_argument("--summary", required=True, help="summary CSV from 'kquad run'")
    rates.add_argument("--model", required=True, help="curve spec, e.g. sobolev:s=1,d=1")
    rates.add_argument("--output", default=None, help="optional CSV of curve overlays")
    return parser


def _check_output(path) -> None:
    """Fail before any work when ``path`` cannot be written as a file."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise InputError(f"output {path}: is a directory")
    if not os.path.isdir(folder):
        raise InputError(f"output {path}: directory {folder} does not exist")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise InputError(f"output {path}: not writable")


def _cmd_run(args) -> int:
    config = bench.parse_config(args.config)
    _check_output(config.output)
    _check_output(bench.summary_path_for(config.output))
    raw, summary = bench.run_to_files(config)
    print(f"raw results: {raw}")
    print(f"summary:     {summary}")
    return 0


def _cmd_compress(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    if args.m < 1:
        raise InputError(f"m must be >= 1, got {args.m}")
    bench.check_size("m", args.m, args.allow_large_n)
    _check_output(args.output)
    points = bench.load_csv(args.input).points
    bench.check_size("n", points.shape[0], args.allow_large_n)
    if args.standardize:
        points = bench.standardize_points(points)
    kernel = parse_kernel(args.kernel, points=points, rng=args.seed)
    rule = compress(points, kernel, args.method, args.m, args.seed)
    bench.save_rule(rule, args.output)
    print(f"wrote {len(rule)} nodes to {args.output}; worst-case error {rule.error:.6g}")
    return 0


def _cmd_rates(args) -> int:
    if args.output:
        _check_output(args.output)
    summary = bench.read_summary_csv(args.summary)
    curve, kwargs = parse_spec(args.model, "curve", spectral.CURVES)
    by_method: dict[str, list] = {}
    for row in summary:
        by_method.setdefault(row.method, []).append(row)
    out_rows = [["method", "m", "error_median", "predicted_error"]]
    for method, rows in sorted(by_method.items()):
        rows.sort(key=lambda r: r.m)
        ms = [r.m for r in rows]
        errs = [r.error_median for r in rows]
        slope, _, r2 = spectral.rate_slope(ms, errs)
        pred = spectral.theoretical_rate_curve(curve, ms, **kwargs)
        with np.errstate(all="ignore"):  # anchor the overlay to the first measured point
            overlay = pred.predicted_error * (errs[0] / pred.predicted_error[0])
        if not np.all(np.isfinite(overlay) & (overlay > 0.0)):
            raise InputError(f"{method}: {pred.label} overlay anchored at m={ms[0]} is out of range")
        print(f"{method}: fitted slope {slope:+.3f} (r^2 {r2:.3f}) vs {pred.label}")
        for m, e, p in zip(ms, errs, overlay):
            out_rows.append([method, m, repr(e), repr(float(p))])
    if args.output:
        bench._write_rows(args.output, out_rows)
        print(f"curve overlays: {args.output}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compress":
            return _cmd_compress(args)
        return _cmd_rates(args)
    except (InputError, OSError, MemoryError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, NumericalError) else 1


if __name__ == "__main__":
    sys.exit(main())
