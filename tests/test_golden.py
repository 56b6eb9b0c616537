"""Golden CLI outputs: stdout bytes and exit codes for fixed argument lists.

The files under ``tests/golden/`` were recorded before counting became
closed-form by decade, when every multi-digit interval was decided by digit
streaming, and the large-constant scans before n_min was certified by root
isolation, when it was found by checking every index.  The ``tail``,
``discrepancy`` and ``benford`` cases were recorded while the Champernowne
tail was a class of its own, membership was streamed through per-term digit
tuples and the leading digits of every term were read with str().  Any
refactor of these paths must reproduce them byte for byte.  To record them
again after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from concat_equidist.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CHAMP = ["--kind", "champ"]
MULT7 = ["--kind", "mult", "--k", "7"]
MULT13 = ["--kind", "mult", "--k", "13"]
SQUARE = ["--kind", "poly", "--coeffs", "0,0,1"]
CUBIC = ["--kind", "poly", "--coeffs", "1,0,0,2"]
JSON = ["--format", "json"]

# (name, argv, exit code)
CASES = [
    # the multi-digit intervals of the benchmark's stream workload
    ("count_champ_0.123_0.1231", ["count", *CHAMP, "--lo", "0.123", "--hi", "0.1231", "--N", "23456"], 0),
    ("count_mult7_0.37_0.3712", ["count", *MULT7, "--lo", "0.37", "--hi", "0.3712", "--N", "20000", *JSON], 0),
    ("count_square_0.5_0.55", ["count", *SQUARE, "--lo", "0.5", "--hi", "0.55", "--N", "5000"], 0),
    ("count_cubic_0.1_0.15", ["count", *CUBIC, "--lo", "0.1", "--hi", "0.15", "--N", "3000", *JSON], 0),
    ("count_champ_0.2718_0.2719", ["count", *CHAMP, "--lo", "0.2718", "--hi", "0.2719", "--N", "30000", *JSON], 0),
    ("count_mult13_0.9_0.95", ["count", *MULT13, "--lo", "0.9", "--hi", "0.95", "--N", "27500"], 0),
    ("count_square_0.42_0.4201", ["count", *SQUARE, "--lo", "0.42", "--hi", "0.4201", "--N", "22500", *JSON], 0),
    ("count_cubic_0.2718_0.2719", ["count", *CUBIC, "--lo", "0.2718", "--hi", "0.2719", "--N", "20000"], 0),
    # endpoint edge cases: a leading zero digit and the endpoint 1
    ("count_champ_0_0.1", ["count", *CHAMP, "--lo", "0", "--hi", "0.1", "--N", "5000"], 0),
    ("count_mult7_0.9_1", ["count", *MULT7, "--lo", "0.9", "--hi", "1", "--N", "100000", *JSON], 0),
    ("count_champ_base2", ["count", *CHAMP, "--base", "2", "--lo", "0.101", "--hi", "0.11", "--N", "4000"], 0),
    # the theorem scans
    ("scan_mult1", ["scan", "--kind", "mult", "--k", "1"], 0),
    ("scan_mult3", ["scan", "--kind", "mult", "--k", "3", *JSON], 0),
    ("scan_mult7", ["scan", "--kind", "mult", "--k", "7"], 0),
    ("scan_mult13", ["scan", "--kind", "mult", "--k", "13", *JSON], 0),
    ("scan_square", ["scan", *SQUARE], 0),
    ("scan_shifted_square", ["scan", "--kind", "poly", "--coeffs", "5,-3,1", *JSON], 0),
    ("scan_cubic", ["scan", *CUBIC], 0),
    ("scan_mult3_0.37_0.3712", ["scan", "--kind", "mult", "--k", "3", "--lo", "0.37", "--hi", "0.3712", "--jmax", "5"], 0),
    # large constant terms: n_min is certified far from 1 or at 1 despite a big bound
    ("scan_poly_m420000_5_2", ["scan", "--kind", "poly", "--coeffs=-420000,5,2"], 0),
    ("scan_poly_210000_0_1", ["scan", "--kind", "poly", "--coeffs", "210000,0,1", *JSON], 0),
    ("scan_poly_140000_0_0_1", ["scan", "--kind", "poly", "--coeffs", "140000,0,0,1"], 0),
    # tail digits of each family, and of a base-2 Champernowne tail
    ("tail_champ", ["tail", *CHAMP, "--n", "97", "--digits", "60"], 0),
    ("tail_mult7", ["tail", *MULT7, "--n", "13", "--digits", "45"], 0),
    ("tail_square", ["tail", *SQUARE, "--n", "31", "--digits", "50"], 0),
    ("tail_champ_base2", ["tail", *CHAMP, "--base", "2", "--n", "5", "--digits", "40"], 0),
    # 18-digit tail prefixes as points, one of them rounding to 1.0 as a float
    ("discrepancy_champ", ["discrepancy", *CHAMP, "--N", "2000"], 0),
    (
        "discrepancy_mult_k17",
        ["discrepancy", "--kind", "mult", "--k", "99999999999999999", "--N", "50", *JSON],
        0,
    ),
    ("discrepancy_cubic", ["discrepancy", *CUBIC, "--N", "500", "--weyl-h", "3"], 0),
    # leading-digit census and log10 fractional parts
    ("benford_naturals", ["benford", "--gen", "naturals", "--N", "12345"], 0),
    ("benford_mult7", ["benford", "--gen", "mult", "--k", "7", "--N", "3000", *JSON], 0),
    ("benford_poly", ["benford", "--gen", "poly", "--coeffs", "10,-10,1", "--N", "4000"], 0),
    ("benford_pow2", ["benford", "--gen", "pow2", "--N", "4000"], 0),
    # an endpoint that is a long prefix of x_1: membership stays undecided
    (
        "count_undecided",
        ["count", *CHAMP, "--lo", "0.12345678910111213141516171819202122232425", "--hi", "0.9", "--N", "1"],
        3,
    ),
]


def _path(name: str, argv: list[str]) -> Path:
    return GOLDEN_DIR / (name + (".json" if "json" in argv else ".csv"))


def _run(argv: list[str], capsys) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name,argv,exit_code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, exit_code, capsys):
    code, out = _run(argv, capsys)
    assert code == exit_code
    assert out.encode("utf-8") == _path(name, argv).read_bytes()


def _record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv, exit_code in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code != exit_code:
            raise SystemExit(f"{name}: exit {code}, expected {exit_code}")
        _path(name, argv).write_text(buf.getvalue(), encoding="utf-8", newline="")


if __name__ == "__main__":
    _record()
    print(f"recorded {len(CASES)} cases in {GOLDEN_DIR}", file=sys.stderr)
