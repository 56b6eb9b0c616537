"""Per-job correctness gate.

Exact integers (counts, N, scan points, digit counts) must match the
references exactly.  Floats must match within FLOAT_TOL, fixed in advance:
the CLI prints 12 significant digits, and every float reference is the same
formula evaluated in double precision, so 1e-9 relative (absolute below 1)
leaves a wide margin for rounding while any real defect is far larger.
"""
from __future__ import annotations

import csv
import json
import math

import mix
import reference

FLOAT_TOL = 1e-9


class Mismatch(Exception):
    pass


def _close(got, want: float, what: str) -> None:
    if not math.isclose(float(got), want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
        raise Mismatch(f"{what}: got {got}, want {want!r}")


def _same(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def parse(text: str, fmt: str) -> tuple[list[dict], dict]:
    if fmt == "json":
        doc = json.loads(text)
        return doc["records"], doc["meta"]
    meta, lines = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line:
            lines.append(line)
    return list(csv.DictReader(lines)), meta


def _fmt_of(argv: list[str]) -> str:
    return argv[argv.index("--format") + 1] if "--format" in argv else "csv"


def _check_scan(job, rows, meta, expected) -> None:
    ref = job["ref"]
    want = expected["scan"][f"{ref['family']}|{ref['jmax']}"]
    _same(len(rows), len(want), "number of scan points")
    kind, _, param = ref["family"].partition(":")
    if kind == "mult":
        d = 1
        main_term = lambda j: reference.lemma1(int(param), j)  # noqa: E731
    else:
        coeffs = reference.parse_coeffs(param)
        d = len(coeffs) - 1
        main_term = lambda j: reference.lemma2(coeffs, j)  # noqa: E731
    for row, (j, N, count) in zip(rows, want):
        _same(int(row["j"]), j, "j")
        _same(int(row["N"]), N, f"N at j={j}")
        _same(int(row["count"]), count, f"count at j={j}")
        _close(row["ratio"], count / N, f"ratio at j={j}")
        mt = main_term(j)
        _close(row["main_term"], mt, f"main_term at j={j}")
        _close(row["residual"], count - mt, f"residual at j={j}")
    y = reference.y_d(d)
    _same(meta["kind"], "linear-k" if kind == "mult" else "poly-d", "kind")
    _close(meta["target_constant"], 2 * y, "target_constant")
    _close(meta["paper_lower_bound"], y, "paper_lower_bound")
    _close(meta["baseline_density"], 1 / 9, "baseline_density")


def _check_limits(job, rows, meta, expected) -> None:
    dmax = job["ref"]["dmax"]
    _same(len(rows), dmax, "rows")
    for d, row in enumerate(rows, start=1):
        _same(int(row["d"]), d, "d")
        _close(row["y_d"], reference.y_d(d), f"y_{d}")
        _close(row["scan_limit"], 2 * reference.y_d(d), f"scan_limit d={d}")
    _close(meta["baseline_density"], 1 / 9, "baseline_density")
    _close(meta["y_limit"], math.log(2) / (2 * math.log(10)), "y_limit")


def _check_count(job, rows, meta, expected) -> None:
    ref = job["ref"]
    count = expected["count"][f"{ref['family']}|{ref['lo']}|{ref['hi']}"][str(ref["N"])]
    _same(len(rows), 1, "rows")
    row = rows[0]
    _same(row["interval"], f"[{ref['lo']},{ref['hi']})", "interval")
    _same(int(row["N"]), ref["N"], "N")
    _same(int(row["count"]), count, "count")
    _close(row["ratio"], count / ref["N"], "ratio")
    _same(meta, {}, "meta")


def _check_benford(job, rows, meta, expected) -> None:
    ref = job["ref"]
    N = ref["N"]
    want = expected["benford"][f"{ref['gen']}|{N}"]
    _same(len(rows), 9, "rows")
    gaps = []
    for c, (row, count) in enumerate(zip(rows, want["counts"]), start=1):
        _same(int(row["digit"]), c, "digit")
        _same(round(float(row["observed_freq"]) * N), count, f"count of leading digit {c}")
        _close(row["observed_freq"], count / N, f"observed_freq {c}")
        benford = math.log10(1 + 1 / c)
        _close(row["benford_freq"], benford, f"benford_freq {c}")
        gaps.append(abs(count / N - benford))
    _same(int(meta["N"]), N, "N")
    _close(meta["max_abs_gap"], max(gaps), "max_abs_gap")
    _close(meta["log_discrepancy"], want["log_discrepancy"], "log_discrepancy")


def _check_discrepancy(job, rows, meta, expected) -> None:
    ref = job["ref"]
    want = expected["discrepancy"][f"{ref['family']}|{ref['N']}"]
    _same(len(rows), 1, "rows")
    row = rows[0]
    _same(int(row["N"]), ref["N"], "N")
    _close(row["star_discrepancy"], want["star_discrepancy"], "star_discrepancy")
    _close(row["ud_deviation"], want["ud_deviation"], "ud_deviation")
    _same(int(row["weyl_h"]), ref["h"], "weyl_h")
    _close(row["weyl_sum"], want["weyl_sum"][str(ref["h"])], "weyl_sum")


_CHECKS = {
    "scan": _check_scan,
    "limits": _check_limits,
    "count": _check_count,
    "benford": _check_benford,
    "discrepancy": _check_discrepancy,
}


def check(job: dict, rc, out: str | None, err: str, expected: dict) -> tuple[str, str]:
    """('ok' | 'known-defect' | 'wrong', reason) for one execution of ``job``."""
    defect = mix.KNOWN_DEFECTS.get(job["defect"]) if job["defect"] else None
    if rc != 0:
        if defect and defect["stderr"] and rc == 1 and defect["stderr"] in err:
            return "known-defect", f"{job['defect']}: {defect['seed_behaviour']}"
        return "wrong", f"exit code {rc}: {err.strip()[-300:]}"
    if out is None:
        return "wrong", "no output written"
    try:
        if job["cmd"] == "tail":
            ref = job["ref"]
            _same(out, reference.tail_text(ref["family"], ref["n"], ref["digits"]), "tail digits")
        else:
            rows, meta = parse(out, _fmt_of(job["argv"]))
            _CHECKS[job["cmd"]](job, rows, meta, expected)
    except (Mismatch, KeyError, ValueError, TypeError) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}"
    return "ok", ""
