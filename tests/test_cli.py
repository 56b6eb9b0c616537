import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import concat_equidist
from concat_equidist.asymptotics import lemma1_main_term
from concat_equidist.cli import main, read_csv
from concat_equidist.seqgen import MultipleTail


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTail:
    def test_champernowne(self, capsys):
        code, out, _ = run(capsys, "tail", "--kind", "champ", "--n", "20", "--digits", "12")
        assert code == 0
        assert out == "0.202122232425\n"

    def test_multiple_k1(self, capsys):
        code, out, _ = run(capsys, "tail", "--kind", "mult", "--k", "1", "--n", "1", "--digits", "19")
        assert code == 0
        assert out == "0.1234567891011121314\n"

    def test_poly(self, capsys):
        code, out, _ = run(capsys, "tail", "--kind", "poly", "--coeffs", "0,0,1", "--n", "1", "--digits", "9")
        assert code == 0
        assert out == "0.149162536\n"


class TestCount:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--kind", "champ", "--N", "20")
        assert code == 0
        rows, meta = read_csv(out)
        assert rows == [{"interval": "[0.1,0.2)", "N": "20", "count": "11", "ratio": "0.55"}]
        assert meta == {}

    def test_full_interval(self, capsys):
        code, out, _ = run(capsys, "count", "--kind", "champ", "--lo", "0", "--hi", "1", "--N", "100")
        rows, _ = read_csv(out)
        assert code == 0 and rows[0]["count"] == "100"

    def test_leading_zero_interval_empty(self, capsys):
        code, out, _ = run(capsys, "count", "--kind", "champ", "--lo", "0", "--hi", "0.1", "--N", "1000")
        rows, _ = read_csv(out)
        assert code == 0 and rows[0]["count"] == "0"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--kind", "mult", "--k", "3", "--N", "20", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["records"][0]["N"] == 20
        assert doc["records"][0]["count"] == sum(str(3 * n)[0] == "1" for n in range(1, 21))

    def test_poly_n_min_far_from_one(self, capsys, deadline):
        # f = n^2 - 10^18 is <= 0 up to n = 10^9, so the count starts at 10^9 + 1
        with deadline(5.0, "count with an 18-digit constant term"):
            code, out, _ = run(capsys, "count", "--kind", "poly", "--coeffs=-1000000000000000000,0,1", "--N", "10")
        rows, _ = read_csv(out)
        n_min = 10**9 + 1
        expected = sum(str(n * n - 10**18)[0] == "1" for n in range(n_min, n_min + 10))
        assert code == 0 and rows[0]["count"] == str(expected)

    def test_nine_digit_endpoints_at_the_cap(self, capsys, deadline):
        # the terms below 9 digits are counted per decade; only x_1 and
        # the other ties with prefixes of 0.123456789 are streamed
        with deadline(5.0, "count with 9-digit endpoints at N = 10^7"):
            code, out, _ = run(capsys, "count", "--kind", "champ", "--lo", "0.123456789", "--hi", "0.12345679", "--N", "10000000")
        rows, _ = read_csv(out)
        assert code == 0 and rows[0]["count"] == "1"  # x_1 = 0.12345678910...

    def test_first_term_of_20000_digits(self, capsys, deadline):
        # the decades start at the first term's, not at the endpoint length
        with deadline(5.0, "count with a 20000-digit k"):
            code, out, _ = run(capsys, "count", "--kind", "mult", "--k", "1" * 20000, "--N", "1")
        rows, _ = read_csv(out)
        assert code == 0 and rows[0]["count"] == "1"

    def test_digit_length_of_a_100000_digit_term(self, capsys, deadline):
        # one division per digit took about 9 s here; from bit_length it takes 0.1 s
        with deadline(2.0, "count with a 100000-digit k"):
            code, out, _ = run(capsys, "count", "--kind", "mult", "--k", "1" * 100000, "--N", "1")
        rows, _ = read_csv(out)
        assert code == 0 and rows[0]["count"] == "1"


class TestScan:
    def test_linear_k1(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "mult", "--k", "1", "--jmax", "4")
        assert code == 0
        rows, meta = read_csv(out)
        assert abs(float(rows[-1]["ratio"]) - 0.5556) < 1e-3
        assert meta["kind"] == "linear-k"
        assert float(meta["target_constant"]) == pytest.approx(5 / 9, abs=1e-9)
        assert float(meta["paper_lower_bound"]) == pytest.approx(5 / 18, abs=1e-9)
        assert float(meta["baseline_density"]) == pytest.approx(1 / 9, abs=1e-9)

    def test_linear_k3_above_half(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "mult", "--k", "3", "--jmax", "6")
        assert code == 0
        rows, _ = read_csv(out)
        assert all(float(r["ratio"]) > 0.5 for r in rows if int(r["j"]) >= 2)

    def test_poly(self, capsys):
        code, out, _ = run(capsys, "scan", "--kind", "poly", "--coeffs", "0,0,1", "--jmax", "8")
        assert code == 0
        rows, meta = read_csv(out)
        assert abs(float(rows[-1]["ratio"]) - 0.4284) < 0.05
        assert meta["kind"] == "poly-d"

    def test_large_constant_has_no_scan_points(self, capsys, deadline):
        # f(1) = 10^18 - 1 exceeds 2*10^8, the last scan point's bound
        with deadline(5.0, "scan with an 18-digit constant term"):
            code, _, err = run(capsys, "scan", "--kind", "poly", "--coeffs=999999999999999998,1")
        assert code == 1
        assert "no scan points" in err

    def test_below_threshold_reports_error(self, capsys):
        code, _, err = run(capsys, "scan", "--kind", "mult", "--k", "200", "--jmax", "2")
        assert code == 1
        assert "threshold" in err

    def test_jmax_cap(self, capsys):
        code, _, err = run(capsys, "scan", "--kind", "mult", "--k", "1", "--jmax", "7")
        assert code == 1 and "cap" in err

    @pytest.mark.parametrize("lo,hi", [("0.1", "0.2"), ("0.5", "0.6")])
    def test_linear_scan_past_the_float_range(self, capsys, lo, hi):
        # the Lemma 1 main term passes the float range at j = 310; from there
        # it prints as an exact integer, and so does a residual that large
        code, out, err = run(
            capsys, "scan", "--kind", "mult", "--k", "7", "--lo", lo, "--hi", hi, "--jmax", "320", "--unsafe-uncapped"
        )
        assert (code, err) == (0, "")
        rows, _ = read_csv(out)
        for row in rows:
            main_term = lemma1_main_term(7, int(row["j"]))
            residual = int(row["count"]) - main_term
            if main_term < 2**1024:
                assert float(row["main_term"]) == pytest.approx(main_term, rel=1e-11)
            else:
                assert row["main_term"] == str(main_term)
            if abs(residual) < 2**1024:
                assert float(row["residual"]) == pytest.approx(residual, rel=1e-11)
            else:
                assert row["residual"] == str(residual)
        assert rows[-1]["main_term"] == str(lemma1_main_term(7, 320))

    def test_poly_scan_past_the_float_range(self, capsys):
        # from J = 309 the Lemma 2 main term passes the float range; it prints
        # with 12 significant digits in CSV and as their integer in JSON
        argv = ["scan", "--kind", "poly", "--coeffs", "0,1", "--Jmax", "400", "--unsafe-uncapped"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rows, _ = read_csv(out)
        assert [row["j"] for row in rows] == [str(j) for j in range(1, 401)]
        for row in rows:
            assert row["ratio"] == f"{int(row['count']) / int(row['N']):.12g}"
        assert (rows[-1]["main_term"], rows[-1]["residual"]) == ("1.11111111111e+400", "1")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        last = json.loads(out)["records"][-1]
        assert (last["main_term"], last["residual"]) == (111111111111 * 10**389, 1.0)

    def test_poly_with_one_index_at_two_J(self, capsys):
        # 7n^5 + 3: f(1) = 10 <= 20 and f(2) = 227 > 200, so N_1 = N_2 = 1;
        # the scan keeps J = 1 and goes on from J = 3
        code, out, err = run(capsys, "scan", "--kind", "poly", "--coeffs", "3,0,0,0,0,7")
        assert (code, err) == (0, "")
        rows, _ = read_csv(out)
        Ns = [int(row["N"]) for row in rows]
        assert [row["j"] for row in rows] == ["1", "3", "4", "5", "6", "7", "8"]
        assert all(a < b for a, b in zip(Ns, Ns[1:]))

    def test_cubic_residual_past_the_cap(self, capsys):
        # a float sum of the Lemma 2 powers printed the residual 9 at J = 49
        argv = ["scan", "--kind", "poly", "--coeffs", "1,0,0,2", "--Jmax", "100", "--unsafe-uncapped"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rows, _ = read_csv(out)
        assert (rows[48]["j"], rows[48]["residual"]) == ("49", "-3.21159165601")

    def test_uncapped_override(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--kind", "poly", "--coeffs", "0,0,1", "--jmax", "9", "--unsafe-uncapped"
        )
        assert code == 0
        rows, _ = read_csv(out)
        assert rows[-1]["j"] == "9"


class TestBenford:
    def test_naturals(self, capsys):
        code, out, _ = run(capsys, "benford", "--gen", "naturals", "--N", "20000")
        assert code == 0
        rows, meta = read_csv(out)
        assert float(rows[0]["observed_freq"]) >= 0.5
        assert float(meta["max_abs_gap"]) >= 0.2

    def test_pow2(self, capsys):
        code, out, _ = run(capsys, "benford", "--gen", "pow2", "--N", "2000")
        rows, meta = read_csv(out)
        assert code == 0
        assert float(meta["max_abs_gap"]) <= 0.02

    def test_pow2_past_the_str_limit(self, capsys, deadline):
        # 2^14284 and above have more than 4300 digits
        with deadline(10.0, "benford --gen pow2 --N 15000"):
            code, out, err = run(capsys, "benford", "--gen", "pow2", "--N", "15000")
        assert code == 0, err
        _, meta = read_csv(out)
        assert meta["N"] == "15000"
        assert float(meta["max_abs_gap"]) <= 0.01

    def test_pow2_at_a_million(self, capsys, deadline):
        # O(N) fixed-point points; building every 2^n took minutes.  The
        # values are those of benford_report over 2^1, ..., 2^1000000.
        with deadline(10.0, "benford --gen pow2 --N 1000000"):
            code, out, err = run(capsys, "benford", "--gen", "pow2", "--N", "1000000")
        assert code == 0, err
        rows, meta = read_csv(out)
        assert [r["observed_freq"] for r in rows[:3]] == ["0.301029", "0.176093", "0.124937"]
        assert meta == {"N": "1000000", "max_abs_gap": "1.94697768673e-06", "log_discrepancy": "4.28934617136e-06"}

    @pytest.mark.parametrize(
        "gen",
        [["pow2"], ["mult", "--k", str(10**1000)], ["poly", f"--coeffs={10**1000 + 7},3,1"]],
        ids=["pow2", "mult-1001-digit-k", "poly-1001-digit-constant"],
    )
    def test_terms_are_streamed(self, capsys, gen):
        # held in one list, k, ..., 8000k for a 1001-digit k, or f(1), ...,
        # f(8000) for a 1001-digit constant term, take about 3.5 MiB; streamed,
        # the peak stays near 0.7 MiB.  pow2 builds no power but the few it
        # makes exact; its arrays of 8000 points peak near 0.5 MiB
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "benford", "--gen", *gen, "--N", "8000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "gen,message",
        [(["--gen", "mult"], "--gen mult requires --k"), (["--gen", "poly"], "--gen poly requires --coeffs")],
    )
    def test_gen_requires_its_parameter(self, capsys, gen, message):
        code, out, err = run(capsys, "benford", *gen, "--N", "10")
        assert (code, out) == (1, "")
        assert message in err

    @pytest.mark.parametrize("N", ["0", "-5"])
    @pytest.mark.parametrize("gen", [["naturals"], ["pow2"], ["mult", "--k", "3"], ["poly", "--coeffs", "0,0,1"]])
    def test_nonpositive_N_is_rejected_as_count_rejects_it(self, capsys, gen, N):
        code, out, err = run(capsys, "benford", "--gen", *gen, "--N", N)
        assert (code, out, err) == (1, "", f"error: N must be >= 1, got {N}\n")

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_nonpositive_k_is_rejected_by_the_family(self, capsys, k):
        code, out, err = run(capsys, "benford", "--gen", "mult", "--k", k, "--N", "10")
        assert (code, out) == (1, "")
        assert f"k must be >= 1, got {k}" in err

    def test_file_of_ones(self, capsys, tmp_path):
        path = tmp_path / "ones.txt"
        path.write_text("1\n" * 100)
        code, out, _ = run(capsys, "benford", "--file", str(path))
        rows, meta = read_csv(out)
        assert code == 0
        assert meta["N"] == "100"
        assert float(rows[0]["observed_freq"]) == 1.0
        assert all(float(r["observed_freq"]) == 0.0 for r in rows[1:])

    def test_file_blank_lines_skipped(self, capsys, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("12\n\n  \n19\n")
        code, out, _ = run(capsys, "benford", "--file", str(path))
        _, meta = read_csv(out)
        assert code == 0 and meta["N"] == "2"

    def test_file_bad_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("12\nseven\n19\n")
        code, _, err = run(capsys, "benford", "--file", str(path))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("line", ["²", "٣", "1²", "0", "000", "-5", "+5", "1e3"])
    def test_file_line_not_a_positive_ascii_integer(self, capsys, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"12\n{line}\n19\n", encoding="utf-8")
        code, out, err = run(capsys, "benford", "--file", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: line 2: not a positive integer: {line!r}\n"

    def test_file_terms_past_the_str_limit(self, capsys, tmp_path):
        # 2^14284 and above have more than 4300 digits, the default limit of int(str)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            terms = [2**14284, 3**20000 + 7, 10**9000, 12]
            text = "".join(f"{t}\n" for t in terms)
        finally:
            sys.set_int_max_str_digits(limit)
        path = tmp_path / "long.txt"
        path.write_text(text)
        code, out, err = run(capsys, "benford", "--file", str(path))
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        report = concat_equidist.benford_report(terms)
        rows, meta = read_csv(out)
        assert [r["observed_freq"] for r in rows] == [f"{f:.12g}" for f in report.digit_freq]
        assert meta == {
            "N": "4",
            "max_abs_gap": f"{report.max_abs_gap:.12g}",
            "log_discrepancy": f"{report.log_discrepancy:.12g}",
        }

    def test_decimal_int_without_the_str_limit(self):
        # Pythons before 3.10.7 have no str-to-int limit and no
        # sys.int_info.str_digits_check_threshold: one int() call converts
        from concat_equidist import exactnum

        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            digits = "7" * 9000
            with mock.patch.object(exactnum.sys, "int_info", SimpleNamespace()), mock.patch.object(
                exactnum, "decimal_int", wraps=exactnum.decimal_int
            ) as decimal_int:
                value = exactnum.decimal_int(digits)
            assert value == int(digits)
        finally:
            sys.set_int_max_str_digits(limit)
        assert decimal_int.call_count == 1

    @pytest.mark.parametrize(
        "argv,parent_peak_mib",
        [
            (["benford", "--gen", "naturals", "--N", "85000"], 3.96),
            (["discrepancy", "--kind", "champ", "--N", "27500"], 1.54),
        ],
        ids=["benford-naturals-85000", "discrepancy-champ-27500"],
    )
    def test_peak_memory_stays_below_the_whole_array_build(self, capsys, argv, parent_peak_mib):
        # the tracemalloc peaks of these jobs while Benford logarithms were
        # taken term by term and family terms read one Python int at a time
        run(capsys, *argv)
        tracemalloc.start()
        try:
            code, _, err = run(capsys, *argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak <= parent_peak_mib * 2**20

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "benford", "--file", str(tmp_path / "nope.txt"))
        assert code == 1

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        code, _, err = run(capsys, "benford", "--file", str(path))
        assert code == 1

    def test_requires_source(self, capsys):
        code, _, err = run(capsys, "benford")
        assert code == 1


class TestLimits:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "limits", "--dmax", "5")
        assert code == 0
        rows, meta = read_csv(out)
        ys = [float(r["y_d"]) for r in rows]
        assert ys[0] == pytest.approx(5 / 18, abs=1e-9)
        assert float(rows[0]["scan_limit"]) == pytest.approx(5 / 9, abs=1e-9)
        assert all(a > b for a, b in zip(ys, ys[1:]))
        assert float(meta["baseline_density"]) == pytest.approx(1 / 9, abs=1e-9)
        assert float(meta["y_limit"]) == pytest.approx(0.15051499783, abs=1e-9)


class TestDiscrepancy:
    def test_champ_tails(self, capsys):
        code, out, _ = run(capsys, "discrepancy", "--kind", "champ", "--N", "2000")
        assert code == 0
        rows, _ = read_csv(out)
        assert float(rows[0]["ud_deviation"]) >= 0.4
        assert 0 < float(rows[0]["star_discrepancy"]) <= 1

    def test_prefix_rounding_to_one_stays_below_one(self, capsys):
        # x_1 = 0.999999999999999991999...: its 18-digit prefix rounds to 1.0
        code, out, err = run(capsys, "discrepancy", "--kind", "mult", "--k", "99999999999999999", "--N", "1")
        assert code == 0, err
        rows, _ = read_csv(out)
        assert rows[0]["star_discrepancy"] == "1"

    def test_terms_are_streamed(self, capsys):
        # held in one list, k, ..., 8000k for a 1001-digit k take about
        # 3.5 MiB; streamed and cut to 18-digit heads, the peak stays near 0.7 MiB
        tracemalloc.start()
        try:
            code, _, err = run(capsys, "discrepancy", "--kind", "mult", "--k", str(10**1000), "--N", "8000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 2 * 2**20

    @pytest.mark.parametrize(
        "h,shown",
        [
            ("1" + "0" * 400, "<1329-bit int>"),
            ("-" + "9" * 400, "-<1329-bit int>"),
            # h is a float, but 2 pi h is not
            ("1" + "0" * 308, "<1024-bit int>"),
            ("-3" + "0" * 307, "-<1022-bit int>"),
        ],
    )
    def test_weyl_h_past_the_float_range_is_a_usage_error(self, capsys, h, shown):
        code, out, err = run(capsys, "discrepancy", "--kind", "champ", "--N", "10", "--weyl-h", h)
        assert (code, out) == (1, "")
        assert err == f"error: h = {shown} is too large to convert to float\n"

    @pytest.mark.parametrize("N", ["0", "-5"])
    def test_nonpositive_N_is_rejected_as_count_rejects_it(self, capsys, N):
        code, out, err = run(capsys, "discrepancy", "--kind", "champ", "--N", N)
        assert (code, out, err) == (1, "", f"error: N must be >= 1, got {N}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--kind", "mult", "--k", "1180", "--N", "1", "--alpha=0.5617", "--beta=0.6032"],
                "x_1 = 0.11802360354047206 outside [0.5617, 0.6032)",
            ),
            (["--kind", "champ", "--N", "10", "--beta=0.9"], "x_9 = 0.9101112131415162 outside [0.1, 0.9)"),
            # from n_min = 9: x_9 = 0.110213... lies inside, x_10 = 0.102134... does not
            (["--kind", "poly", "--coeffs=10,-10,1", "--N", "5", "--alpha=0.105"], "x_10 = 0.10213449668510613 outside [0.105, 1)"),
        ],
    )
    def test_a_point_outside_the_window_is_named_by_its_index(self, capsys, argv, message):
        code, out, err = run(capsys, "discrepancy", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_weyl_h_within_the_float_range_is_summed(self, capsys):
        code, out, err = run(capsys, "discrepancy", "--kind", "champ", "--N", "10", "--weyl-h", "1" + "0" * 300)
        assert code == 0, err
        rows, _ = read_csv(out)
        assert rows[0]["weyl_h"] == "1" + "0" * 300


BIG = "1" * 5000  # past the 4300-digit limit of int()

# argv up to an integer option, and whether a huge positive value may be
# tried: --digits and --dmax have no cap, so only their negatives are
_LITERAL_OPTIONS = [
    (["tail", "--kind", "champ", "--digits", "5", "--n"], True),
    (["tail", "--kind", "champ", "--n", "1", "--digits"], False),
    (["tail", "--kind", "champ", "--n", "1", "--digits", "5", "--base"], True),
    (["tail", "--kind", "mult", "--n", "1", "--digits", "5", "--k"], True),
    (["count", "--kind", "champ", "--N"], True),
    (["count", "--kind", "mult", "--N", "10", "--k"], True),
    (["count", "--kind", "champ", "--N", "10", "--base"], True),
    (["scan", "--kind", "mult", "--k", "3", "--jmax"], True),
    (["scan", "--kind", "poly", "--coeffs", "0,0,1", "--Jmax"], True),
    (["scan", "--kind", "mult", "--k"], True),
    (["scan", "--kind", "mult", "--k", "3", "--base"], True),
    (["benford", "--gen", "mult", "--N", "5", "--k"], True),
    (["benford", "--gen", "naturals", "--N"], True),
    (["limits", "--dmax"], False),
    (["discrepancy", "--kind", "champ", "--N"], True),
    (["discrepancy", "--kind", "mult", "--N", "10", "--k"], True),
    (["discrepancy", "--kind", "champ", "--N", "10", "--base"], True),
    (["discrepancy", "--kind", "champ", "--N", "10", "--weyl-h"], True),
]
_LITERAL_ARGVS = [
    [*argv, sign + BIG] for argv, positive in _LITERAL_OPTIONS for sign in (["", "-"] if positive else ["-"])
] + [
    [*argv, f"--coeffs={coeffs}"]
    for argv in (
        ["tail", "--kind", "poly", "--n", "1", "--digits", "5"],
        ["count", "--kind", "poly", "--N", "10"],
        ["scan", "--kind", "poly"],
        ["benford", "--gen", "poly", "--N", "5"],
        ["discrepancy", "--kind", "poly", "--N", "10"],
    )
    for coeffs in (f"{BIG},1", f"-{BIG},1", f"0,{BIG}")
]


class TestLiteralsOfAnyLength:
    @pytest.mark.parametrize(
        "argv", _LITERAL_ARGVS, ids=[" ".join(a).replace(BIG, "<5000 ones>") for a in _LITERAL_ARGVS]
    )
    def test_every_integer_option_takes_5000_digits(self, capsys, deadline, argv):
        with deadline(20.0, "a command with a 5000-digit integer"):
            code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert len(err) < 300 and "Exceeds the limit" not in err + out

    def test_benford_multiple_of_a_5000_digit_k(self, capsys):
        k = int("1" * 4000) * 10**1000 + int("1" * 1000)
        code, out, err = run(capsys, "benford", "--gen", "mult", "--k", BIG, "--N", "5", "--format", "json")
        assert (code, err) == (0, "")
        report = concat_equidist.family_benford_report(MultipleTail(k), 1, 5)
        doc = json.loads(out)
        assert [r["observed_freq"] for r in doc["records"]] == [float(f"{f:.12g}") for f in report.digit_freq]
        assert doc["meta"]["log_discrepancy"] == float(f"{report.log_discrepancy:.12g}")

    def test_invalid_literal_keeps_the_argparse_message(self, capsys):
        code, out, err = run(capsys, "count", "--kind", "champ", "--N", "1x")
        assert (code, out) == (1, "")
        assert err == "error: argument --N: invalid int value: '1x'\n"

    @pytest.mark.parametrize(
        "argv,shown",
        [
            (["count", "--kind", "champ", "--N", BIG + "x"], "x' (5001 characters)"),
            (["count", "--kind", "poly", "--N", "5", f"--coeffs={BIG}x,1"], "x,1' (5003 characters)"),
            (["count", "--kind", "champ", "--N", "5", "--lo", f"0.{BIG}x"], "(5003 characters) has digits out of range for base 10"),
        ],
        ids=["N", "coeffs", "lo"],
    )
    def test_invalid_long_literal_is_shortened(self, capsys, argv, shown):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err) < 300 and err.endswith(shown + "\n")


class TestStartup:
    def test_numpy_loads_only_for_the_diagnostics(self):
        script = """
import contextlib, io, json, sys
import concat_equidist.cli as cli
built_at_import = cli.build_parser.cache_info().currsize
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["scan", "--kind", "mult", "--k", "3"]), cli.main(["count", "--kind", "champ", "--N", "100"])]
before = "numpy" in sys.modules
from concat_equidist import benford_report, PointSet
print(json.dumps([built_at_import, codes, before, benford_report([1, 2]).N, len(PointSet.of([0.5]))]))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(concat_equidist.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, [0, 0], False, 2, 1]


class TestModuleEntry:
    def _run_module(self, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(concat_equidist.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "concat_equidist", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_limits_table(self):
        proc = self._run_module("limits", "--dmax", "2")
        assert proc.returncode == 0
        rows, meta = read_csv(proc.stdout)
        assert [r["d"] for r in rows] == ["1", "2"]
        assert "y_limit" in meta

    def test_bad_flag(self):
        proc = self._run_module("limits", "--bogus")
        assert proc.returncode == 1
        assert "unrecognized arguments" in proc.stderr


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "count", "--kind", "mult", "--N", "10")[0] == 1  # missing --k
        assert run(capsys, "count", "--kind", "champ", "--N", "0")[0] == 1
        assert run(capsys, "nope")[0] == 1

    def test_domain_error(self, capsys):
        # n below the certified n_min of n^2 - 10n + 10
        code, _, err = run(
            capsys, "tail", "--kind", "poly", "--coeffs", "10,-10,1", "--n", "1", "--digits", "5"
        )
        assert code == 2
        assert "domain" in err

    def test_bad_coefficient_is_named(self, capsys):
        code, _, err = run(capsys, "count", "--kind", "poly", "--coeffs", "3,0", "--N", "5")
        assert code == 1
        assert "leading coefficient must be >= 1, got 0 in (3, 0)" in err

    def test_undecided_membership(self, capsys):
        # lo is a long prefix of x_1's expansion; membership cannot resolve
        code, _, err = run(
            capsys,
            "count",
            "--kind",
            "champ",
            "--lo",
            "0.12345678910111213141516171819202122232425",
            "--hi",
            "0.9",
            "--N",
            "1",
        )
        assert code == 3
        assert "undecided" in err

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["--N", "20"], 0),
            (["--N", "0"], 1),
            (["--N", "-3"], 1),
            (["--lo", "0.2", "--hi", "0.1", "--N", "20"], 1),
            (["--lo", "0.123456789101112131415161718", "--hi", "0.9", "--N", "1"], 3),
        ],
    )
    def test_count_exit_codes(self, capsys, argv, code):
        assert run(capsys, "count", "--kind", "champ", *argv)[0] == code

    def test_n_cap(self, capsys):
        code, _, err = run(capsys, "count", "--kind", "champ", "--N", str(2 * 10**7))
        assert code == 1 and "cap" in err


# one argv for each command that takes --output
_OUTPUT_ARGVS = [
    ["tail", "--kind", "champ", "--n", "1", "--digits", "5"],
    ["count", "--kind", "champ", "--N", "5"],
    ["scan", "--kind", "mult", "--k", "3", "--jmax", "2"],
    ["benford", "--gen", "naturals", "--N", "5"],
    ["limits", "--dmax", "2"],
    ["discrepancy", "--kind", "champ", "--N", "5"],
]


class TestUnwritableOutput:
    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("argv", _OUTPUT_ARGVS, ids=[a[0] for a in _OUTPUT_ARGVS])
    def test_is_a_usage_error(self, capsys, tmp_path, argv, target):
        path = tmp_path / "missing" / "out.csv" if target == "missing_dir" else tmp_path
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err


_BIG = 10**30


def _mostly(valid, invalid):
    """Draws from ``valid`` seven times in eight, and shrinks towards it."""
    return st.integers(0, 7).flatmap(lambda r: invalid if r == 7 else valid)


def _int_arg(option, lo, hi):
    """An integer option within [lo, hi], sometimes 0 or negative."""
    return _mostly(st.integers(lo, hi), st.integers(-1, 0)).map(lambda value: [option, str(value)])


# small values too, since a scan has no points below j = the digit length of k or of f(1)
_COEFF = st.one_of(st.integers(-9, 9), st.integers(-_BIG, _BIG))
_LEADING = st.one_of(st.integers(1, 9), st.integers(1, _BIG))
_POLYNOMIAL = st.tuples(st.lists(_COEFF, min_size=1, max_size=4), _LEADING).map(lambda c: [*c[0], c[1]])
_COEFFS = _mostly(_POLYNOMIAL, st.lists(_COEFF, max_size=3))


@st.composite
def _family_args(draw, kinds=("champ", "mult", "poly"), option="--kind"):
    """A family option with its --k or --coeffs, sometimes missing or out of range."""
    kind = draw(st.sampled_from(kinds))
    argv = [option, kind]
    if kind == "mult":
        argv += draw(_mostly(st.one_of(_int_arg("--k", 1, 999), _int_arg("--k", 1, _BIG)), st.just([])))
    elif kind == "poly" and draw(_mostly(st.just(True), st.just(False))):
        # "=" keeps a list that starts with "-" the option's value
        argv.append("--coeffs=" + ",".join(map(str, draw(_COEFFS))))
    if option == "--kind":
        bases = st.sampled_from([1, 2, 3, 7, 16, 36, 37]).map(lambda b: ["--base", str(b)])
        argv += draw(_mostly(st.just([]), bases))
    return argv


_MALFORMED_ENDPOINTS = ["0", "1", "0.5", "", "1.5", "0.1x", "-0.1", "x", "0..1"]
# "0.d..." without trailing zeros: such strings sort as their values
_ENDPOINT = st.text("0123456789", min_size=1, max_size=30).map(
    lambda digits: "0." + digits.rstrip("0") if digits.strip("0") else "0"
)


def _ordered(ends):
    lo, hi = sorted(ends)
    return [lo, "1" if hi == lo else hi]


def _interval_args(lo="--lo", hi="--hi"):
    ordered = st.tuples(_ENDPOINT, _ENDPOINT).map(_ordered)
    anything = st.lists(st.one_of(_ENDPOINT, st.sampled_from(_MALFORMED_ENDPOINTS)), min_size=2, max_size=2)
    return _mostly(ordered, anything).map(lambda ends: [f"{lo}={ends[0]}", f"{hi}={ends[1]}"])


def _concat(*parts):
    return st.tuples(*parts).map(lambda lists: [arg for part in lists for arg in part])


_FORMAT = st.sampled_from([[], ["--format", "csv"], ["--format", "json"]])
_COMMANDS = st.one_of(
    _concat(st.just(["tail"]), _family_args(), _int_arg("--n", 1, _BIG), _int_arg("--digits", 1, 2000)),
    _concat(st.just(["count"]), _family_args(), _interval_args(), _int_arg("--N", 1, 10**7), _FORMAT),
    _concat(st.just(["scan"]), _family_args(("mult",)), _interval_args(), _int_arg("--jmax", 1, 6), _FORMAT),
    _concat(st.just(["scan"]), _family_args(("poly",)), _interval_args(), _int_arg("--Jmax", 1, 8), _FORMAT),
    _concat(
        st.just(["benford"]),
        _family_args(("naturals", "pow2", "mult", "poly"), option="--gen"),
        _int_arg("--N", 1, 2000),
        _FORMAT,
    ),
    _concat(st.just(["limits"]), _int_arg("--dmax", 1, 30), _FORMAT),
    _concat(
        st.just(["discrepancy"]),
        _family_args(),
        _int_arg("--N", 1, 2000),
        # every tail lies in [1/base, 1), and ud_deviation needs all points in [alpha, beta)
        _mostly(st.sampled_from([[], ["--alpha=0"], ["--alpha=0", "--beta=1"]]), _interval_args("--alpha", "--beta")),
        _mostly(_int_arg("--weyl-h", 1, 10**6), _int_arg("--weyl-h", -_BIG, _BIG)),
        _FORMAT,
    ),
)


class TestEveryArgvWithinTheCaps:
    # the fixtures are shared by every example: each example reads back its own
    # output, and the output files are overwritten
    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_COMMANDS, output=st.sampled_from(["stdout", "file", "missing_dir"]))
    def test_exits_with_a_cli_code(self, capsys, tmp_path, deadline, argv, output):
        if output != "stdout":
            path = tmp_path / "missing" / "out" if output == "missing_dir" else tmp_path / "out"
            argv = [*argv, "--output", str(path)]
        with deadline(10.0, " ".join(argv)):
            code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err


class TestDeterminism:
    def test_thread_hint_does_not_change_bytes(self, capsys, monkeypatch):
        args = ["scan", "--kind", "mult", "--k", "3", "--jmax", "4"]
        monkeypatch.setenv("CONCAT_EQUIDIST_THREADS", "1")
        _, out1, _ = run(capsys, *args)
        monkeypatch.setenv("CONCAT_EQUIDIST_THREADS", "4")
        _, out4, _ = run(capsys, *args)
        assert out1 == out4


class TestRoundTrip:
    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--kind", "champ", "--N", "50"],
            ["scan", "--kind", "mult", "--k", "3", "--jmax", "4"],
            ["scan", "--kind", "poly", "--coeffs", "0,0,1", "--jmax", "5"],
            ["benford", "--gen", "naturals", "--N", "500"],
            ["limits", "--dmax", "4"],
            ["discrepancy", "--kind", "champ", "--N", "200"],
        ],
    )
    def test_csv_round_trips(self, capsys, args):
        from concat_equidist.cli import render_csv

        code, out, _ = run(capsys, *args)
        assert code == 0
        rows, meta = read_csv(out)
        assert rows, "no data rows"
        # re-rendering the parsed rows reproduces the emitted bytes exactly
        assert render_csv(rows, meta) == out

    def test_csv_json_agree(self, capsys):
        args = ["scan", "--kind", "mult", "--k", "7", "--jmax", "4"]
        _, csv_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--format", "json")
        rows, meta = read_csv(csv_out)
        doc = json.loads(json_out)
        for row, rec in zip(rows, doc["records"]):
            for key, value in row.items():
                assert float(value) == pytest.approx(float(rec[key]), rel=1e-12)
        assert float(meta["target_constant"]) == pytest.approx(doc["meta"]["target_constant"])

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = run(capsys, "count", "--kind", "champ", "--N", "20", "--output", str(path))
        assert code == 0 and out == ""
        rows, _ = read_csv(path.read_text())
        assert rows[0]["count"] == "11"
