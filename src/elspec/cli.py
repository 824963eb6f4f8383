"""Command-line front end.

Four subcommands: ``periodogram`` (ordinates of a series file), ``fit``
(Whittle estimate with sandwich diagnostics), ``region`` (confidence-region
grid and contour polylines), and ``coverage`` (Monte Carlo coverage sweep
from a plan file).  Machine-readable output goes to ``--out`` (CSV with
``#``-prefixed metadata lines, or a JSON envelope); a short human summary
goes to standard output.  Exit codes: 0 success, 2 input error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .arma import TimeSeries
from .confidence import METHODS, STATUS_LABELS, STATUS_OK, extract_contour, scan_region
from .el import AdjustmentPolicy
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    ElspecError,
    InputError,
    InvalidModelError,
    NoSolutionError,
    SingularMatrixError,
)
from .mc import load_plan, paired_summary, run_coverage
from .periodogram import compute_periodogram
from .whittle import sandwich, whittle_fit

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3


def read_series(path) -> TimeSeries:
    """Parse a series file: one value per line.  Lines that are blank or
    whose first non-blank character is ``#`` are skipped; every other line,
    stripped, must be a number that ``float`` accepts (an inline comment is
    a parse error).  Failures name the offending line.

    The file is read once and split at newlines (text mode turns CRLF and
    lone CR into them, as iterating the file would); only a parse error
    scans the lines again, to find the first bad one."""
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise InputError(f"cannot read series file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}:{_undecodable_line(path)}: cannot decode the line as "
                         f"{exc.encoding} text ({exc.reason})")
    texts = [text for text in map(str.strip, lines) if text and text[0] != "#"]
    try:
        values = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        for lineno, text in enumerate(map(str.strip, lines), start=1):
            if text and text[0] != "#":
                try:
                    float(text)
                except ValueError:
                    raise InputError(f"{path}:{lineno}: cannot parse {text!r} as a number")
    if len(values) < 4:
        raise InputError(f"{path}: need at least 4 observations, found {len(values)}")
    return TimeSeries(values)


def _undecodable_line(path) -> int:
    """The number of the first line of the text file ``path`` that holds a
    byte its encoding rejects.  Under ``surrogateescape`` each such byte
    reads back as a lone surrogate, which no valid text decodes to."""
    with open(path, errors="surrogateescape") as fh:
        return next(lineno for lineno, line in enumerate(fh, start=1)
                    if any("\udc80" <= ch <= "\udcff" for ch in line))


def _metadata(command: str, args_extra: dict) -> dict:
    meta = {"tool": "elspec", "version": __version__, "command": command}
    meta.update(args_extra)
    meta["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _write_lines(path, meta, header, lines):
    """Write the metadata lines, the CSV header and the payload ``lines``,
    each of which ends in a newline."""
    with open(path, "w") as fh:
        fh.write("".join(f"# {key}: {value}\n" for key, value in meta.items()))
        fh.write(",".join(header) + "\n")
        fh.write("".join(lines))


def _write_csv(path, meta, header, rows):
    _write_lines(path, meta, header, [",".join(str(x) for x in row) + "\n" for row in rows])


def _write_json(path, meta, payload):
    with open(path, "w") as fh:
        json.dump({"meta": meta, "payload": payload}, fh, indent=1)
        fh.write("\n")


def _parse_order(text: str) -> tuple[int, int]:
    try:
        p, q = (int(x) for x in text.split(","))
        if p < 0 or q < 0:
            raise ValueError
        return (p, q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be 'p,q' with nonnegative integers, got {text!r}")


def _parse_box(text: str):
    try:
        ranges = []
        for part in text.split(","):
            lo, hi = (float(x) for x in part.split(":"))
            ranges.append((lo, hi))
        return ranges
    except ValueError:
        raise argparse.ArgumentTypeError(f"box must be 'lo:hi[,lo:hi]', got {text!r}")


def _parse_steps(text: str):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"steps must be comma-separated integers, got {text!r}")


def cmd_periodogram(args) -> int:
    series = read_series(args.input)
    pg = compute_periodogram(series)
    meta = _metadata("periodogram", {"input": args.input, "T": pg.T, "n": pg.n})
    rows = [
        (j + 1, f"{pg.freqs[j]:.12g}", f"{pg.ords[j]:.12g}")
        for j in range(pg.n)
    ]
    if args.format == "json":
        payload = [{"j": r[0], "omega": float(r[1]), "ordinate": float(r[2])} for r in rows]
        _write_json(args.out, meta, payload)
    else:
        _write_csv(args.out, meta, ("j", "omega", "ordinate"), rows)
    print(f"periodogram: T={pg.T}, {pg.n} ordinates -> {args.out}")
    print(f"total retained power: {pg.ords.sum():.6g}")
    return EXIT_OK


def cmd_fit(args) -> int:
    series = read_series(args.input)
    pg = compute_periodogram(series)
    fit = whittle_fit(pg, args.order, profile=args.profile)
    p, q = args.order
    est = fit.estimate
    spec = fit.to_spec()  # a profile fit's sigma2_hat comes from the sandwich below
    result = {
        "version": __version__,
        "order": list(args.order),
        "profile": args.profile,
        "T": pg.T,
        "n": pg.n,
        "ar": [float(x) for x in est[:p]],
        "ma": [float(x) for x in est[p : p + q]],
        "loglik": fit.loglik,
        "converged": fit.converged,
        "boundary": fit.boundary,
        "iterations": fit.iterations,
        "sigma2_hat": None,
    }
    if p + q > 0 or not args.profile:
        try:
            diag = sandwich(pg, spec, profile=args.profile)
            result["sigma2_hat"], result["v_hat"] = diag.sigma2, diag.v_hat.tolist()
        except ElspecError as exc:
            result["v_hat"] = None
            result["v_hat_error"] = str(exc)
    if result["sigma2_hat"] is None:  # no sandwich, or it raised
        result["sigma2_hat"] = fit.to_spec(pg).sigma2
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return EXIT_OK if fit.converged else EXIT_NONCONVERGED


def _region_rows(grid, inside):
    """CSV lines of a RegionGrid in row-major node order: the node's
    coordinates, its statistic ("" where undefined), status label and
    inside flag.  Each axis is formatted once, and each line is joined from
    its coordinate prefix, its statistic and its label-and-flag tail."""
    prefixes = [""]
    for ax in grid.axes:
        coords = [f"{x:.12g}," for x in ax.tolist()]
        prefixes = [pre + x for pre in prefixes for x in coords]
    stats = ["" if math.isnan(x) else f"{x:.12g}" for x in grid.stat.ravel().tolist()]
    codes = (2 * grid.status + inside).ravel().tolist()
    tails = {c: f",{STATUS_LABELS[c // 2]},{c % 2}\n" for c in set(codes)}
    return [pre + stat + tails[c] for pre, stat, c in zip(prefixes, stats, codes)]


def cmd_region(args) -> int:
    series = read_series(args.input)
    pg = compute_periodogram(series)
    k = sum(args.order)
    steps = args.steps if len(args.steps) > 1 else args.steps[0]
    policy = AdjustmentPolicy(args.a_n)
    grid = scan_region(
        pg, args.order, args.box, steps, method=args.method, alpha=args.alpha,
        policy=policy, tb_constant=args.tb_constant,
    )
    meta = _metadata(
        "region",
        {
            "input": args.input,
            "order": f"{args.order[0]},{args.order[1]}",
            "method": args.method,
            "alpha": args.alpha,
            "threshold": f"{grid.threshold:.12g}",
            "a_n_policy": args.a_n,
        },
    )
    header = tuple(f"param{d + 1}" for d in range(k)) + ("stat", "status", "inside")
    inside = grid.inside()
    _write_lines(args.out, meta, header, _region_rows(grid, inside))

    n_undef = int(np.sum(grid.status != STATUS_OK))
    print(f"region: method={args.method}, threshold={grid.threshold:.5f}, "
          f"{int(inside.sum())}/{grid.stat.size} nodes inside, {n_undef} undefined")
    if k == 2:
        polylines = extract_contour(grid)
        contour_path = args.out + ".contours.csv"
        crows = []
        for pid, poly in enumerate(polylines):
            closed = int(len(poly) > 2 and np.array_equal(poly[0], poly[-1]))
            for vid, (x, y) in enumerate(poly):
                crows.append((pid, vid, f"{x:.12g}", f"{y:.12g}", closed))
        _write_csv(contour_path, meta, ("polyline", "vertex", "param1", "param2", "closed"), crows)
        print(f"{len(polylines)} contour polyline(s) -> {contour_path}")
    return EXIT_OK


def cmd_coverage(args) -> int:
    plan = load_plan(args.plan)
    if args.replications is not None:
        plan = replace(plan, replications=args.replications)
    report = run_coverage(plan)
    meta = _metadata(
        "coverage",
        {
            "plan": args.plan,
            "model": plan.model,
            "seed": plan.seed,
            "a_n_policy": plan.a_n,
            "noise_centering": plan.noise_centering,
            "level": plan.level,
            "replications": plan.replications,
        },
    )
    header = ("model", "n", "noise", "param", "method", "coverage", "se", "nosolution_count", "failure_count")
    rows = [
        (
            c.model, c.sample_size, c.noise, c.param_label, c.method,
            f"{c.coverage:.6f}", f"{c.se:.6f}", c.nosolution, c.failures,
        )
        for c in report.cells
    ]
    _write_csv(args.out, meta, header, rows)
    print(f"coverage: {len(report.cells)} cells x {plan.replications} replications -> {args.out}")
    for c in report.cells:
        print(
            f"  {c.model} n={c.sample_size} {c.noise} param={c.param_label} "
            f"{c.method}: {c.coverage:.3f} (se {c.se:.3f}, nosolution {c.nosolution})"
        )
    if {"el", "ael"} <= set(plan.methods):
        summary = paired_summary(report)
        print(
            f"paired: AEL closer to nominal in {summary.n_ael_closer}/{summary.n_cells} cells"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elspec",
        description="Empirical-likelihood inference for stationary time series "
        "via the Whittle periodogram reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("periodogram", help="periodogram ordinates of a series file")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=cmd_periodogram)

    sf = sub.add_parser("fit", help="Whittle fit of an ARMA(p,q) model")
    sf.add_argument("input")
    sf.add_argument("--order", type=_parse_order, required=True, metavar="p,q")
    sf.add_argument("--profile", action=argparse.BooleanOptionalAction, default=True,
                    help="profile sigma2 out (default) or report the profiled sigma2 too")
    sf.add_argument("--out", default=None)
    sf.set_defaults(func=cmd_fit)

    sr = sub.add_parser("region", help="confidence-region grid and contours")
    sr.add_argument("input")
    sr.add_argument("--order", type=_parse_order, required=True, metavar="p,q")
    sr.add_argument("--method", choices=METHODS, default="ael")
    sr.add_argument("--alpha", type=float, default=0.10)
    sr.add_argument("--box", type=_parse_box, required=True, metavar="lo:hi[,lo:hi]")
    sr.add_argument("--steps", type=_parse_steps, default=[60], metavar="n[,n]")
    sr.add_argument("--tb-constant", type=float, default=None)
    sr.add_argument("--a-n", dest="a_n", choices=AdjustmentPolicy.RULES,
                    default="max_half_log")
    sr.add_argument("--out", required=True)
    sr.set_defaults(func=cmd_region)

    sc = sub.add_parser("coverage", help="Monte Carlo coverage sweep from a plan file")
    sc.add_argument("--plan", required=True)
    sc.add_argument("--out", required=True)
    sc.add_argument("--replications", type=int, default=None,
                    help="override the plan's replication count")
    sc.set_defaults(func=cmd_coverage)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: building it costs
    more than parsing a command line, and parsing leaves it unchanged."""
    return build_parser()


def _attach_box_values(argv):
    """``--box VALUE`` joined into ``--box=VALUE``: argparse takes a separate
    value that starts with "-" and is not a plain number (a negative lower
    bound, "-0.5:0.5") for an option."""
    args = list(argv)
    for i in reversed(range(len(args) - 1)):
        if args[i] == "--box":
            args[i : i + 2] = [f"--box={args[i + 1]}"]
    return args


def main(argv=None) -> int:
    argv = _attach_box_values(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, InvalidModelError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, NoSolutionError, SingularMatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
