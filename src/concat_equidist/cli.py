"""Command-line surface: theorem scans, counting, Benford and discrepancy reports.

Every command is deterministic for a given argument vector; floats in any
output are pinned to 12 significant digits.  Exit codes: 0 success, 1 usage
error, 2 domain error, 3 undecided interval membership.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Sequence, TextIO

from . import asymptotics, counting, equidist, seqgen
from .counting import UndecidedMembershipError
from .exactnum import ExactEndpoint, HalfOpenInterval, digits_to_int
from .seqgen import ChampernowneTail, DomainError, IntPoly, MultipleTail, PolyTail, TailSpec

DEFAULT_N_CAP = 10**7
DEFAULT_JMAX_CAP = 6
DEFAULT_JMAX_POLY_CAP = 8

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNDECIDED = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's default 2
        raise UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _jsonify(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    return x


def _build_spec(args) -> TailSpec:
    base = getattr(args, "base", 10)
    if args.kind == "champ":
        return ChampernowneTail(base)
    if args.kind == "mult":
        if args.k is None:
            raise UsageError("--kind mult requires --k")
        return MultipleTail(args.k, base)
    if args.coeffs is None:  # --kind poly
        raise UsageError("--kind poly requires --coeffs")
    return PolyTail(IntPoly.parse(args.coeffs), base)


def _interval(args) -> HalfOpenInterval:
    base = getattr(args, "base", 10)
    try:
        return HalfOpenInterval.parse(args.lo, args.hi, base)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_cap(value: int, cap: int, what: str, uncapped: bool) -> None:
    if not uncapped and value > cap:
        raise UsageError(f"{what} = {value} exceeds the cap {cap}; pass --unsafe-uncapped to override")


def _write_output(text: str, args) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def render_csv(fieldnames: Sequence[str], rows: list[dict], meta: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    for key, value in meta.items():
        buf.write(f"# {key}={_fmt(value)}\n")
    return buf.getvalue()


def read_csv(text: str) -> tuple[list[dict], dict]:
    """Parse CSV emitted by this tool back into (rows, meta); inverse of render_csv."""
    data_lines = []
    meta = {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
        elif line:
            data_lines.append(line)
    rows = list(csv.DictReader(data_lines))
    return rows, meta


def render_json(rows: list[dict], meta: dict) -> str:
    doc = {
        "meta": {k: _jsonify(v) for k, v in meta.items()},
        "records": [{k: _jsonify(v) for k, v in row.items()} for row in rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def _emit(args, fieldnames: Sequence[str], rows: list[dict], meta: dict) -> None:
    if getattr(args, "format", "csv") == "json":
        _write_output(render_json(rows, meta), args)
    else:
        _write_output(render_csv(fieldnames, rows, meta), args)


def cmd_tail(args) -> int:
    spec = _build_spec(args)
    digits = seqgen.tail_digits(spec, args.n, args.digits)
    _write_output(f"0.{digits}\n", args)
    return EXIT_OK


def cmd_count(args) -> int:
    spec = _build_spec(args)
    interval = _interval(args)
    _check_cap(args.N, DEFAULT_N_CAP, "N", args.unsafe_uncapped)
    res = counting.count_A(spec, interval, args.N)
    rows = [{"interval": str(interval), "N": res.N, "count": res.count, "ratio": res.ratio}]
    _emit(args, ["interval", "N", "count", "ratio"], rows, {})
    return EXIT_OK


def cmd_scan(args) -> int:
    spec = _build_spec(args)
    interval = _interval(args)
    if isinstance(spec, PolyTail):
        _check_cap(args.jmax, DEFAULT_JMAX_POLY_CAP, "Jmax", args.unsafe_uncapped)
    else:
        _check_cap(args.jmax, DEFAULT_JMAX_CAP, "jmax", args.unsafe_uncapped)
    points = asymptotics.scan_points(spec, args.jmax)
    report = asymptotics.ratio_scan(spec, interval, points)
    rows = [
        {
            "j": r.j,
            "N": r.N,
            "count": r.count,
            "ratio": r.ratio,
            "main_term": r.main_term,
            "residual": r.residual,
        }
        for r in report.records
    ]
    meta = {
        "kind": report.kind,
        "target_constant": report.constants.scan_limit,
        "paper_lower_bound": report.constants.paper_lower_bound,
        "baseline_density": report.constants.baseline_density,
    }
    _emit(args, ["j", "N", "count", "ratio", "main_term", "residual"], rows, meta)
    return EXIT_OK


def _read_terms_file(path: str) -> list[int]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    terms = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if not stripped.isdigit() or int(stripped) < 1:
            raise UsageError(f"{path}: line {lineno}: not a positive integer: {stripped!r}")
        terms.append(int(stripped))
    if not terms:
        raise UsageError(f"{path}: no terms found")
    return terms


def _generated_terms(args) -> list[int]:
    _check_cap(args.N, DEFAULT_N_CAP, "N", args.unsafe_uncapped)
    if args.gen == "naturals":
        return list(range(1, args.N + 1))
    if args.gen == "pow2":
        return [2**n for n in range(1, args.N + 1)]
    if args.gen == "mult":
        if args.k is None:
            raise UsageError("--gen mult requires --k")
        return [args.k * n for n in range(1, args.N + 1)]
    if args.coeffs is None:  # --gen poly
        raise UsageError("--gen poly requires --coeffs")
    poly = IntPoly.parse(args.coeffs)
    return [poly.eval(n) for n in range(poly.n_min, poly.n_min + args.N)]


def cmd_benford(args) -> int:
    if args.file:
        terms = _read_terms_file(args.file)
    elif args.gen:
        if args.N is None:
            raise UsageError("--gen requires --N")
        terms = _generated_terms(args)
    else:
        raise UsageError("benford requires --gen or --file")
    report = equidist.benford_report(terms)
    rows = [
        {
            "digit": c + 1,
            "observed_freq": report.digit_freq[c],
            "benford_freq": report.benford_freq[c],
        }
        for c in range(9)
    ]
    meta = {
        "N": report.N,
        "max_abs_gap": report.max_abs_gap,
        "log_discrepancy": report.log_discrepancy,
    }
    _emit(args, ["digit", "observed_freq", "benford_freq"], rows, meta)
    return EXIT_OK


def cmd_limits(args) -> int:
    if args.dmax < 1:
        raise UsageError(f"--dmax must be >= 1, got {args.dmax}")
    ys = asymptotics.y_sequence(args.dmax)
    rows = [
        {"d": d, "y_d": y, "scan_limit": 2 * y}
        for d, y in enumerate(ys, start=1)
    ]
    meta = {
        "baseline_density": 1.0 / 9.0,
        "y_limit": asymptotics.Y_LIMIT,
    }
    _emit(args, ["d", "y_d", "scan_limit"], rows, meta)
    return EXIT_OK


def cmd_discrepancy(args) -> int:
    spec = _build_spec(args)
    _check_cap(args.N, DEFAULT_N_CAP, "N", args.unsafe_uncapped)
    alpha = ExactEndpoint.parse(args.alpha, spec.base)
    beta = ExactEndpoint.parse(args.beta, spec.base)
    depth = 18
    scale = spec.base**depth
    # an 18-digit prefix such as 0.999...9 rounds to 1.0; keep every point below 1
    below_one = math.nextafter(1.0, 0.0)
    values = [
        min(digits_to_int(seqgen.tail_digits(spec, n, depth)) / scale, below_one)
        for n in range(spec.n_min, spec.n_min + args.N)
    ]
    points = equidist.PointSet.of(values)
    rows = [
        {
            "N": args.N,
            "star_discrepancy": equidist.star_discrepancy(points),
            "ud_deviation": equidist.ud_deviation(points, alpha, beta),
            "weyl_h": args.weyl_h,
            "weyl_sum": equidist.weyl_sum(points, args.weyl_h),
        }
    ]
    _emit(args, ["N", "star_discrepancy", "ud_deviation", "weyl_h", "weyl_sum"], rows, {})
    return EXIT_OK


def _add_spec_args(p: argparse.ArgumentParser, kinds=("champ", "mult", "poly")) -> None:
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--k", type=int)
    p.add_argument("--coeffs", help="comma-separated coefficients, constant first (0,0,1 = n^2)")
    p.add_argument("--base", type=int, default=10)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--unsafe-uncapped", action="store_true", help="lift the N/jmax safety caps")


def build_parser() -> _Parser:
    parser = _Parser(prog="concat-equidist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tail", help="print the first digits of a tail value x_n")
    _add_spec_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--digits", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("count", help="compute the counting function A([lo,hi); N)")
    _add_spec_args(p)
    p.add_argument("--lo", default="0.1")
    p.add_argument("--hi", default="0.2")
    p.add_argument("--N", type=int, required=True)
    _add_output_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("scan", help="ratio scan along the theorem subsequences")
    _add_spec_args(p, kinds=("mult", "poly"))
    p.add_argument("--lo", default="0.1")
    p.add_argument("--hi", default="0.2")
    p.add_argument("--jmax", "--Jmax", dest="jmax", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("benford", help="leading-digit census vs the Benford reference")
    p.add_argument("--gen", choices=("naturals", "pow2", "mult", "poly"))
    p.add_argument("--k", type=int)
    p.add_argument("--coeffs")
    p.add_argument("--N", type=int)
    p.add_argument("--file", help="newline-delimited positive integers")
    _add_output_args(p)
    p.set_defaults(func=cmd_benford)

    p = sub.add_parser("limits", help="table of y_d, 2*y_d and the reference constants")
    p.add_argument("--dmax", type=int, default=10)
    _add_output_args(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("discrepancy", help="star discrepancy / Weyl sum of tail values")
    _add_spec_args(p)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--alpha", default="0.1")
    p.add_argument("--beta", default="1")
    p.add_argument("--weyl-h", type=int, default=1)
    _add_output_args(p)
    p.set_defaults(func=cmd_discrepancy)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "scan" and args.jmax is None:
            args.jmax = DEFAULT_JMAX_POLY_CAP if args.kind == "poly" else DEFAULT_JMAX_CAP
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UndecidedMembershipError as exc:
        print(f"undecided membership: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
