import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import concat_equidist
from concat_equidist.cli import main, read_csv


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

    def test_n_cap(self, capsys):
        code, _, err = run(capsys, "count", "--kind", "champ", "--N", str(2 * 10**7))
        assert code == 1 and "cap" in err


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
        assert render_csv(list(rows[0].keys()), rows, meta) == out

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
