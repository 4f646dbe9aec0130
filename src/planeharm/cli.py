"""Command-line interface.

Subcommands: ``eval`` prints evaluation tables of the Laguerre kernel or the
plane basis, ``verify`` runs an identity suite with pass/fail reporting and
erratum notes, ``transform`` round-trips or samples a coefficient block,
``rotate`` applies Euler angles to a block, and ``quadrature`` emits rule
nodes and weights as plot-ready data.

Exit codes: 0 success, 1 verification failure, 2 usage or format error or
a typed numerical error (UnitarityError).
All output is deterministic given the flags; the only randomized command
(verify) draws from a generator seeded by --seed, default 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys

import numpy as np

from .basis import SpinIndex, calL, calZ
from .errors import DomainError, SchemaError, UnitarityError
from .laguerre import laguerre_eval
from .quadrature import gauss_laguerre
from .rotation import RotationSpec
from .transform import CoefficientBlock, _max_gap, analyze, as_function, rotate, synthesize
from .verify import SUITES, run_suite

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeharm",
        description="Plane harmonics: evaluation, verification, transforms, rotations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print an evaluation table")
    p_eval.add_argument("--what", required=True, choices=("laguerre", "calL", "calZ"))
    p_eval.add_argument("--n", type=int, help="Laguerre degree (laguerre only)")
    p_eval.add_argument("--alpha", type=int, help="Laguerre superscript (laguerre only)")
    p_eval.add_argument("--two-j", type=int, help="twice j (calL/calZ)")
    p_eval.add_argument("--two-m", type=int, help="twice m (calL/calZ)")
    p_eval.add_argument("--y-min", type=float, default=0.0)
    p_eval.add_argument("--y-max", type=float, default=8.0)
    p_eval.add_argument("--y-steps", type=int, default=9)
    p_eval.add_argument(
        "--phi-steps",
        type=int,
        default=8,
        help="calZ only; angles -pi + 2 pi k / steps, k = 0..steps-1",
    )
    p_eval.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), default="all")
    p_verify.add_argument("--j-max", default="8", help="half-integer cap, e.g. 8 or 11/2")
    p_verify.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="CHECK=VALUE",
        help="override one default tolerance; repeatable",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_tr = sub.add_parser("transform", help="round-trip or sample a coefficient block")
    p_tr.add_argument("--in", dest="infile", help="block JSON file (default: stdin)")
    p_tr.add_argument("--mode", choices=("roundtrip", "synthesize"), default="roundtrip")
    p_tr.add_argument("--y-min", type=float, default=0.0)
    p_tr.add_argument("--y-max", type=float, default=8.0)
    p_tr.add_argument("--y-steps", type=int, default=9)
    p_tr.add_argument("--phi-steps", type=int, default=8)
    p_tr.add_argument("--format", choices=("csv", "json"), default="json")

    p_rot = sub.add_parser("rotate", help="rotate a coefficient block")
    p_rot.add_argument("--in", dest="infile", help="block JSON file (default: stdin)")
    p_rot.add_argument("--euler", required=True, metavar="A,B,C", help="z-y-z angles, radians")
    p_rot.add_argument("--format", choices=("csv", "json"), default="json")
    # argparse's own negative-number pattern takes no commas, so it would read
    # "--euler -0.5,1,2" as a flag missing its value.  Here an argument that
    # starts with "-" and a digit, or "-." and a digit, is a value.
    p_rot._negative_number_matcher = re.compile(r"^-\.?\d")

    p_quad = sub.add_parser("quadrature", help="print rule nodes and weights")
    p_quad.add_argument("--order", type=int, required=True)
    p_quad.add_argument("--alpha", type=int, default=0)
    p_quad.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _emit_table(columns, rows, fmt) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        print(json.dumps({"columns": list(columns), "rows": [list(r) for r in rows]}, indent=2))


def _y_grid(args) -> np.ndarray:
    if args.y_steps < 1:
        raise DomainError(f"--y-steps must be at least 1, got {args.y_steps}")
    for flag, value in (("--y-min", args.y_min), ("--y-max", args.y_max)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite, got {value}")
    if args.y_min < 0:
        raise DomainError(f"--y-min must be nonnegative, got {args.y_min}")
    if args.y_max < args.y_min:
        raise DomainError(f"--y-max must be at least --y-min, got {args.y_max}")
    if args.y_steps == 1:
        return np.array([args.y_min])
    return np.linspace(args.y_min, args.y_max, args.y_steps)


def _phi_grid(steps: int) -> np.ndarray:
    if steps < 1:
        raise DomainError(f"--phi-steps must be at least 1, got {steps}")
    return -math.pi + 2.0 * math.pi * np.arange(steps) / steps


def _require(args, names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise DomainError(f"--what {args.what} requires --{name.replace('_', '-')}")


def _cmd_eval(args) -> int:
    y = _y_grid(args)
    if args.what == "laguerre":
        _require(args, ("n", "alpha"))
        values = laguerre_eval(args.n, args.alpha, y).tolist()
        rows = [[args.n, args.alpha, yv, v] for yv, v in zip(y, values)]
        _emit_table(("n", "alpha", "y", "value"), rows, args.format)
    elif args.what == "calL":
        _require(args, ("two_j", "two_m"))
        s = SpinIndex(args.two_j, args.two_m)
        values = calL(s, y)
        rows = [[s.two_j, s.two_m, yv, v] for yv, v in zip(y, np.atleast_1d(values))]
        _emit_table(("two_j", "two_m", "y", "value"), rows, args.format)
    else:
        _require(args, ("two_j", "two_m"))
        s = SpinIndex(args.two_j, args.two_m)
        phis = _phi_grid(args.phi_steps)
        values = calZ(s, (y[:, None], phis[None, :])).ravel().tolist()  # y-major
        grid = [(float(yv), float(phi)) for yv in y for phi in phis]
        rows = [[s.two_j, s.two_m, yv, phi, v.real, v.imag] for (yv, phi), v in zip(grid, values)]
        _emit_table(("two_j", "two_m", "y", "phi", "re", "im"), rows, args.format)
    return 0


def _cmd_verify(args) -> int:
    overrides = {}
    for item in args.tol:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise DomainError(f"--tol expects CHECK=VALUE, got {item!r}")
        try:
            overrides[key] = float(value)
        except ValueError:
            raise DomainError(f"--tol value must be a number, got {item!r}")
    report = run_suite(args.suite, j_max=args.j_max, seed=args.seed, tolerances=overrides)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return 0 if report.overall_pass else 1


def _read_block(args) -> CoefficientBlock:
    if args.infile:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise DomainError(f"cannot read {args.infile}: {exc}")
    else:
        text = sys.stdin.read()
    return CoefficientBlock.from_json(text)


def _block_rows(block: CoefficientBlock):
    return [[two_j, two_m, c.real, c.imag] for (two_j, two_m), c in block.items()]


def _cmd_transform(args) -> int:
    block = _read_block(args)
    if args.mode == "roundtrip":
        if args.format == "csv":
            raise DomainError("--mode roundtrip reports JSON; drop --format csv")
        back = analyze(as_function(block), block.sector, block.j_max)
        report = {"max_coefficient_error": _max_gap(back, block), "block": back.to_dict()}
        print(json.dumps(report, indent=2))
        return 0
    y = _y_grid(args)
    phis = _phi_grid(args.phi_steps)
    # One call on the (y, phi) grid; rows stay y-major.
    table = synthesize(block, (y[:, None], phis[None, :]))
    rows = [
        [float(yv), float(phi), v.real, v.imag]
        for yv, row in zip(y, table)
        for phi, v in zip(phis, row.tolist())
    ]
    _emit_table(("y", "phi", "re", "im"), rows, args.format)
    return 0


def _cmd_rotate(args) -> int:
    block = _read_block(args)
    parts = args.euler.split(",")
    if len(parts) != 3:
        raise DomainError(f"--euler expects three comma-separated angles, got {args.euler!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"--euler angles must be numbers, got {args.euler!r}")
    rotated = rotate(block, RotationSpec(a, b, c))
    if args.format == "json":
        print(rotated.to_json(indent=2))
    else:
        _emit_table(("two_j", "two_m", "re", "im"), _block_rows(rotated), "csv")
    return 0


def _cmd_quadrature(args) -> int:
    rule = gauss_laguerre(args.order, args.alpha)
    lifted = rule.lifted_weights()
    rows = [
        [float(x), float(w), float(lw)]
        for x, w, lw in zip(rule.nodes, rule.weights, lifted)
    ]
    _emit_table(("node", "weight", "lifted_weight"), rows, args.format)
    return 0


_DISPATCH = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "transform": _cmd_transform,
    "rotate": _cmd_rotate,
    "quadrature": _cmd_quadrature,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through.
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, SchemaError, UnitarityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - catch-all keeps the 0/1/2 contract
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
