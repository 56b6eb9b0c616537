"""Command-line surface: theorem scans, counting, Benford and discrepancy reports.

Every command is deterministic for a given argument vector; floats in any
output are pinned to 12 significant digits.  Exit codes: 0 success, 1 usage
error, 2 domain error, 3 undecided interval membership.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
from typing import Iterator, Sequence

from . import asymptotics, counting, seqgen
from .counting import UndecidedMembershipError
from .exactnum import ExactEndpoint, HalfOpenInterval, _show, decimal_int
from .seqgen import ChampernowneTail, DomainError, IntPoly, MultipleTail, PolyTail, TailSpec

DEFAULT_N_CAP = 10**7

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_UNDECIDED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit code 1, not argparse's default 2
        raise ValueError(message)


def _fmt(x) -> str:
    if isinstance(x, (int, str)):
        return str(x)
    return f"{x:.12g}"  # a float, or a Decimal past the float range


def _jsonify(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, (int, str)):
        return x
    # a Decimal past the float range: its 12 significant digits written as an
    # integer, since JSON readers take exponents past 1e308 as infinity
    return int(type(x)(f"{x:.12g}"))


# kind -> (the options and commands that offer it; the option it requires, without its "--";
# the family built from that option's value and the base, None for pow2, whose census benford
# takes on its own; scan's cap on jmax and its name)
_FAMILIES = {
    "naturals": ("--gen", None, lambda _, base: ChampernowneTail(base), None),
    "champ": ("--kind", None, lambda _, base: ChampernowneTail(base), None),
    "pow2": ("--gen", None, None, None),
    "mult": ("--kind --gen scan", "k", MultipleTail, (6, "jmax")),
    "poly": ("--kind --gen scan", "coeffs", lambda text, base: PolyTail(IntPoly.parse(text), base), (8, "Jmax")),
}


def _choices(offered_by: str) -> list[str]:  # in table order
    return [kind for kind, (offered, *_) in _FAMILIES.items() if offered_by in offered.split()]


def _build_spec(args) -> TailSpec | None:
    """The family named by ``--kind``, or by benford's ``--gen``; None for pow2."""
    option, kind = ("--gen", args.gen) if hasattr(args, "gen") else ("--kind", args.kind)
    _, required, family, _ = _FAMILIES[kind]
    value = required and getattr(args, required)
    if required and value is None:
        raise ValueError(f"{option} {kind} requires --{required}")
    return family and family(value, getattr(args, "base", 10))


def _check_cap(value: int, cap: int, what: str, uncapped: bool) -> None:
    if what == "N" and value < 1:  # the check count_A makes, before any terms are built
        raise ValueError(f"N must be >= 1, got {_show(value)}")
    if not uncapped and value > cap:
        raise ValueError(f"{what} = {_show(value)} exceeds the cap {cap}; pass --unsafe-uncapped to override")


def _write_output(args, *texts: str) -> None:
    """Write the texts in turn, with no joined copy, to ``--output`` or stdout."""
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(texts)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.writelines(texts)


def render_csv(rows: list[dict], meta: dict) -> str:
    """The rows under a header of their keys, then one ``# key=value`` line per meta entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows([_fmt(v) for v in row.values()] for row in rows)
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


def _emit(args, rows: list[dict], meta: dict) -> None:
    if getattr(args, "format", "csv") == "json":
        _write_output(args, render_json(rows, meta))
    else:
        _write_output(args, render_csv(rows, meta))


def cmd_tail(args) -> int:
    spec = _build_spec(args)
    digits = seqgen.tail_digits(spec, args.n, args.digits)
    _write_output(args, "0.", digits.text, "\n")
    return EXIT_OK


def cmd_count(args) -> int:
    spec = _build_spec(args)
    interval = HalfOpenInterval.parse(args.lo, args.hi, spec.base)
    _check_cap(args.N, DEFAULT_N_CAP, "N", args.unsafe_uncapped)
    res = counting.count_A(spec, interval, args.N)
    rows = [{"interval": str(interval), "N": res.N, "count": res.count, "ratio": res.ratio}]
    _emit(args, rows, {})
    return EXIT_OK


def cmd_scan(args) -> int:
    spec = _build_spec(args)
    interval = HalfOpenInterval.parse(args.lo, args.hi, spec.base)
    cap, name = _FAMILIES[args.kind][3]
    jmax = cap if args.jmax is None else args.jmax
    _check_cap(jmax, cap, name, args.unsafe_uncapped)
    points = asymptotics.scan_points(spec, jmax)
    report = asymptotics.ratio_scan(spec, interval, points)
    rows = [vars(r) for r in report.records]
    meta = {
        "kind": report.kind,
        "target_constant": report.constants.scan_limit,
        "paper_lower_bound": report.constants.paper_lower_bound,
        "baseline_density": report.constants.baseline_density,
    }
    _emit(args, rows, meta)
    return EXIT_OK


def _read_terms_file(path: str) -> Iterator[int]:
    """The positive integers of a file, one per line, yielded as they are read; blank lines are skipped.

    A term is a run of ASCII digits, not all 0, of any length.  Lines end
    where ``str.splitlines`` ends them, so each line read is split again.
    """
    found = False
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(itertools.chain.from_iterable(map(str.splitlines, fh)), start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                if not (stripped.isascii() and stripped.isdigit() and stripped.strip("0")):
                    raise ValueError(f"{path}: line {lineno}: not a positive integer: {_show(stripped)}")
                found = True
                yield decimal_int(stripped)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        with open(path, encoding="utf-8") as fh:
            fh.read()  # raises it again, placed in the whole file rather than in the chunk read
        raise
    if not found:
        raise ValueError(f"{path}: no terms found")


def cmd_benford(args) -> int:
    from . import equidist  # NumPy loads only for the commands that use it

    if args.file:
        report = equidist.benford_report(_read_terms_file(args.file))
    elif args.gen:
        if args.N is None:
            raise ValueError("--gen requires --N")
        _check_cap(args.N, DEFAULT_N_CAP, "N", args.unsafe_uncapped)
        spec = _build_spec(args)
        report = equidist.family_benford_report(spec, spec.n_min, args.N) if spec else equidist.pow2_benford_report(args.N)
    else:
        raise ValueError("benford requires --gen or --file")
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
    _emit(args, rows, meta)
    return EXIT_OK


def cmd_limits(args) -> int:
    if args.dmax < 1:
        raise ValueError(f"--dmax must be >= 1, got {_show(args.dmax)}")
    ys = asymptotics.y_sequence(args.dmax)
    rows = [
        {"d": d, "y_d": y, "scan_limit": 2 * y}
        for d, y in enumerate(ys, start=1)
    ]
    meta = {
        "baseline_density": 1.0 / 9.0,
        "y_limit": asymptotics.Y_LIMIT,
    }
    _emit(args, rows, meta)
    return EXIT_OK


def cmd_discrepancy(args) -> int:
    from . import equidist

    spec = _build_spec(args)
    _check_cap(args.N, DEFAULT_N_CAP, "N", args.unsafe_uncapped)
    alpha = ExactEndpoint.parse(args.alpha, spec.base)
    beta = ExactEndpoint.parse(args.beta, spec.base)
    points = equidist.tail_points(spec, spec.n_min, args.N)
    rows = [
        {
            "N": args.N,
            "star_discrepancy": equidist.star_discrepancy(points),
            "ud_deviation": equidist.ud_deviation(points, alpha, beta, spec.n_min),
            "weyl_h": args.weyl_h,
            "weyl_sum": equidist.weyl_sum(points, args.weyl_h),
        }
    ]
    _emit(args, rows, {})
    return EXIT_OK


def _int(text: str) -> int:
    """The type of every integer option: any length, argparse's own message otherwise."""
    try:
        return decimal_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_show(text)}") from None


def _add_spec_args(p: argparse.ArgumentParser, kinds=_choices("--kind")) -> None:
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--k", type=_int)
    p.add_argument("--coeffs", help="comma-separated coefficients, constant first (0,0,1 = n^2)")
    p.add_argument("--base", type=_int, default=10)


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="output path (default stdout)")
    p.add_argument("--unsafe-uncapped", action="store_true", help="lift the N/jmax safety caps")


@functools.cache
def build_parser() -> _Parser:
    """The CLI parser, built on the first call and shared by every later one.

    Sharing is safe: ``parse_args`` returns a fresh namespace each time, and
    ``_Parser.error`` raises before anything is stored.
    """
    parser = _Parser(prog="concat-equidist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tail", help="print the first digits of a tail value x_n")
    _add_spec_args(p)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--digits", type=_int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("count", help="compute the counting function A([lo,hi); N)")
    _add_spec_args(p)
    p.add_argument("--lo", default="0.1")
    p.add_argument("--hi", default="0.2")
    p.add_argument("--N", type=_int, required=True)
    _add_output_args(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("scan", help="ratio scan along the theorem subsequences")
    _add_spec_args(p, kinds=_choices("scan"))
    p.add_argument("--lo", default="0.1")
    p.add_argument("--hi", default="0.2")
    p.add_argument("--jmax", "--Jmax", dest="jmax", type=_int, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("benford", help="leading-digit census vs the Benford reference")
    p.add_argument("--gen", choices=_choices("--gen"))
    p.add_argument("--k", type=_int)
    p.add_argument("--coeffs")
    p.add_argument("--N", type=_int)
    p.add_argument("--file", help="newline-delimited positive integers")
    _add_output_args(p)
    p.set_defaults(func=cmd_benford)

    p = sub.add_parser("limits", help="table of y_d, 2*y_d and the reference constants")
    p.add_argument("--dmax", type=_int, default=10)
    _add_output_args(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("discrepancy", help="star discrepancy / Weyl sum of tail values")
    _add_spec_args(p)
    p.add_argument("--N", type=_int, required=True)
    p.add_argument("--alpha", default="0.1")
    p.add_argument("--beta", default="1")
    p.add_argument("--weyl-h", type=_int, default=1)
    _add_output_args(p)
    p.set_defaults(func=cmd_discrepancy)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
