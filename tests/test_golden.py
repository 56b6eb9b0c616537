"""Golden CLI outputs: stdout bytes and exit codes for fixed argument lists.

The files under ``tests/golden/`` were recorded before counting became
closed-form by decade, when every multi-digit interval was decided by digit
streaming, and the large-constant scans before n_min was certified by root
isolation, when it was found by checking every index.  The ``tail``,
``discrepancy`` and ``benford`` cases were recorded while the Champernowne
tail was a class of its own, membership was streamed through per-term digit
tuples and the leading digits of every term were read with str().  The
base-2 and base-16 ``discrepancy`` cases, the 12000-point and shifted-square
ones and the ``benford --file`` and ``--k 0`` cases were recorded while
discrepancy prefixes were still rebuilt per index from digit tuples and
Benford read every term's digits twice.  The ``tail`` and ``benford`` cases
of polynomials with n_min > 1 and the negative-k ``benford`` case were
recorded while ``benford --gen`` built its own list of terms and the tail
functions evaluated each term through ``spec.term``, before the families
streamed their terms.  The ``benford`` cases at 4095-4097 terms and of n^6,
and the degree-5 ``discrepancy`` case, were recorded while ``benford_report``
read one term at a time and polynomial terms were evaluated by Horner's rule
per index.  The ``discrepancy`` cases at 4095-4097 points, in bases 11
and 12, of terms that pass 2^63 and at larger Weyl frequencies were
recorded while every 18-digit prefix came from one sliding integer window,
one Python operation per point.  The ``benford`` cases whose terms reach
10^17 at n = 5000 were recorded while every Benford term was cut to its
mantissa by its own Python call.  The ``benford`` cases of 10^5
naturals, of k = 99999999999999999, of terms crossing 10^17 and of a file
of ties and near-powers of ten, and the ``discrepancy`` case crossing 2^63
at n = 808, were recorded while every Benford logarithm came from
``math.log10`` term by term and family terms were read into NumPy one
Python int at a time.  The ``benford`` case of 2^1, ..., 2^30000 was
recorded while every power of two was built and cut to its 17-digit head.
The ``tail`` case of a 300-digit k was recorded while ``tail`` built
every term's digits as a tuple of ints.  The uncapped ``scan`` case of 2n^3 + 1 was
recorded once the Lemma 2 main term became one integer fraction, each row
checked against an 80-digit mpmath oracle.  Any refactor of these paths
must reproduce them byte for byte.  To record them again after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from concat_equidist.cli import build_parser, main

GOLDEN_DIR = Path(__file__).parent / "golden"

CHAMP = ["--kind", "champ"]
MULT7 = ["--kind", "mult", "--k", "7"]
MULT13 = ["--kind", "mult", "--k", "13"]
SQUARE = ["--kind", "poly", "--coeffs", "0,0,1"]
CUBIC = ["--kind", "poly", "--coeffs", "1,0,0,2"]
JSON = ["--format", "json"]
K300 = "".join(map(str, range(1, 200)))[:300]  # 300 digits of Champernowne's constant

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
    # residuals past the cap: each row checked against an 80-digit oracle
    ("scan_cubic_uncapped_20", ["scan", *CUBIC, "--Jmax", "20", "--unsafe-uncapped"], 0),
    # tail digits of each family, and of a base-2 Champernowne tail
    ("tail_champ", ["tail", *CHAMP, "--n", "97", "--digits", "60"], 0),
    ("tail_mult7", ["tail", *MULT7, "--n", "13", "--digits", "45"], 0),
    ("tail_square", ["tail", *SQUARE, "--n", "31", "--digits", "50"], 0),
    ("tail_champ_base2", ["tail", *CHAMP, "--base", "2", "--n", "5", "--digits", "40"], 0),
    # one term past STR_BELOW, of which only the leading 40 digits are read
    ("tail_mult_k300", ["tail", "--kind", "mult", "--k", K300, "--n", "987654321", "--digits", "40"], 0),
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
    # past the old 4300-digit str() limit, and through n = 13301 and 28738,
    # where {n log10 2} lies within 3e-5 and 2e-5 of the 0/1 wrap
    ("benford_pow2_30000", ["benford", "--gen", "pow2", "--N", "30000"], 0),
    # c*10^k terms, a 17-digit head of zeros with a later nonzero digit, and
    # terms at or above 10^256, whose heads are read without str()
    ("benford_file", ["benford", "--file", str(GOLDEN_DIR / "benford_terms.txt")], 0),
    # k = 0 is rejected before any output
    ("benford_mult_k0", ["benford", "--gen", "mult", "--k", "0", "--N", "10"], 1),
    # prefixes in bases 2 and 16, across the 4-to-5-digit boundary, and of a
    # polynomial tail with n_min > 1
    ("discrepancy_champ_base2", ["discrepancy", *CHAMP, "--base", "2", "--N", "3000"], 0),
    ("discrepancy_mult5_base16", ["discrepancy", "--kind", "mult", "--k", "5", "--base", "16", "--N", "2000", *JSON], 0),
    ("discrepancy_champ_12000", ["discrepancy", *CHAMP, "--N", "12000"], 0),
    ("discrepancy_shifted_square", ["discrepancy", "--kind", "poly", "--coeffs=5,-3,1", "--N", "3000", "--weyl-h", "3", *JSON], 0),
    # a polynomial tail started at n_min = 9, and one index below its domain
    ("tail_poly_n_min_9", ["tail", "--kind", "poly", "--coeffs=10,-10,1", "--n", "9", "--digits", "80"], 0),
    ("tail_poly_below_n_min", ["tail", "--kind", "poly", "--coeffs=10,-10,1", "--n", "8", "--digits", "80"], 2),
    # Benford terms of a polynomial from n_min = 458, and a negative multiplier
    ("benford_poly_n_min_458", ["benford", "--gen", "poly", "--coeffs=-420000,5,2", "--N", "2000"], 0),
    ("benford_mult_k_negative", ["benford", "--gen", "mult", "--k", "-3", "--N", "10"], 1),
    # term counts one below, at and one above the Benford pass's batch of 4096
    ("benford_naturals_4095", ["benford", "--gen", "naturals", "--N", "4095"], 0),
    ("benford_naturals_4096", ["benford", "--gen", "naturals", "--N", "4096", *JSON], 0),
    ("benford_naturals_4097", ["benford", "--gen", "naturals", "--N", "4097"], 0),
    # n^6 passes 10^17 inside the family stream; a degree-5 tail's prefixes
    ("benford_poly_degree6", ["benford", "--gen", "poly", "--coeffs=0,0,0,0,0,0,1", "--N", "2000"], 0),
    # terms reach 10^17 at n = 5000, inside the second batch: k*n exactly,
    # and 4*10^9 n^2 + 1 one past it
    ("benford_mult_k14", ["benford", "--gen", "mult", "--k", "20000000000000", "--N", "6000"], 0),
    ("benford_poly_past_1e17", ["benford", "--gen", "poly", "--coeffs=1,0,4000000000", "--N", "6000", *JSON], 0),
    # recorded while every Benford logarithm came from math.log10 per term:
    # naturals ending at 10^5; every term past 10^17 with {log10 a_n} near
    # the 0/1 wrap; terms that cross 10^17 at n = 1000; an int64 block of
    # tail terms that crosses 2^63 at n = 808; and ties and near-powers of ten
    ("benford_naturals_100000", ["benford", "--gen", "naturals", "--N", "100000"], 0),
    ("benford_mult_k17", ["benford", "--gen", "mult", "--k", "99999999999999999", "--N", "2000", *JSON], 0),
    ("benford_poly_cross_1e17", ["benford", "--gen", "poly", "--coeffs=99999999999999000,1", "--N", "3000"], 0),
    ("discrepancy_poly_cross_2e63", ["discrepancy", "--kind", "poly", "--coeffs=9223372036854775000,1", "--N", "3000"], 0),
    ("benford_ties", ["benford", "--file", str(GOLDEN_DIR / "benford_ties.txt")], 0),
    (
        "discrepancy_poly_degree5",
        ["discrepancy", "--kind", "poly", "--coeffs=3,-7,0,2,0,1", "--N", "3000", "--weyl-h", "2"],
        0,
    ),
    # recorded while every family Benford term took an np.log10 part and
    # all of them were sorted: the flat tops of the naturals at 65 000 and
    # 85 000 and of n^2 - 3n + 5 at 35 000, and 3n^2 + 2n + 7 at 47 500
    ("benford_naturals_85000", ["benford", "--gen", "naturals", "--N", "85000"], 0),
    ("benford_naturals_65000", ["benford", "--gen", "naturals", "--N", "65000", *JSON], 0),
    ("benford_poly_5_m3_1_35000", ["benford", "--gen", "poly", "--coeffs=5,-3,1", "--N", "35000"], 0),
    ("benford_poly_7_2_3_47500", ["benford", "--gen", "poly", "--coeffs=7,2,3", "--N", "47500"], 0),
    # point counts one below, at and one above a block of 4096 prefixes
    ("discrepancy_champ_4095", ["discrepancy", *CHAMP, "--N", "4095"], 0),
    ("discrepancy_champ_4096", ["discrepancy", *CHAMP, "--N", "4096", *JSON], 0),
    ("discrepancy_champ_4097", ["discrepancy", *CHAMP, "--N", "4097", "--weyl-h", "2"], 0),
    # 11^18 is the last base power of 18 digits below 2^63, 12^18 the first above
    ("discrepancy_champ_base11", ["discrepancy", *CHAMP, "--base", "11", "--N", "5000"], 0),
    ("discrepancy_champ_base12", ["discrepancy", *CHAMP, "--base", "12", "--N", "5000", *JSON], 0),
    # terms that pass 2^63 inside the stream: k*n from n = 10001, n^6 from n = 1449
    ("discrepancy_mult_k15", ["discrepancy", "--kind", "mult", "--k", "922337203685477", "--N", "12000"], 0),
    ("discrepancy_poly_degree6", ["discrepancy", "--kind", "poly", "--coeffs=0,0,0,0,0,0,1", "--N", "3000"], 0),
    # a Weyl sum at a larger and a negative frequency
    ("discrepancy_mult13_weyl_h", ["discrepancy", *MULT13, "--N", "6000", "--weyl-h", "1000", *JSON], 0),
    ("discrepancy_square_weyl_h_negative", ["discrepancy", *SQUARE, "--N", "2500", "--weyl-h", "-7"], 0),
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


def test_one_parser_serves_every_call(capsys):
    """``main`` reuses one parser: every case, run forward and then in reverse
    in one process, with a ``--k`` case and failing argument lists between
    the passes, still gives its golden bytes, so no call leaks state into the
    next."""
    assert build_parser() is build_parser()
    by_name = {name: (argv, exit_code) for name, argv, exit_code in CASES}

    def check(name):
        argv, exit_code = by_name[name]
        code, out = _run(argv, capsys)
        assert (code, out.encode("utf-8")) == (exit_code, _path(name, argv).read_bytes()), name

    names = list(by_name)
    for name in names:
        check(name)
    assert _run(["count", "--kind", "mult", "--k", "5", "--N", "ten"], capsys)[0] == 1
    check("scan_mult13")
    # its --k must not reach the next call, which lacks one
    assert main(["count", "--kind", "mult", "--N", "10"]) == 1
    assert capsys.readouterr() == ("", "error: --kind mult requires --k\n")
    for name in reversed(names):
        check(name)


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
