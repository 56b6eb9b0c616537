"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
import math
import time

import pytest

from every_index import in_interval
from per_term import leading_digit
from concat_equidist.asymptotics import (
    Y_LIMIT,
    inverse_epsilon,
    poly_floor_inverse,
    ratio_scan,
    scan_points,
    y_sequence,
)
from concat_equidist.counting import count_A
from concat_equidist.equidist import benford_report, census, log_fracparts, star_discrepancy, PointSet
from concat_equidist.exactnum import HalfOpenInterval
from concat_equidist.seqgen import ChampernowneTail, IntPoly, MultipleTail, PolyTail, lemma1_main_term, term

I12 = HalfOpenInterval.parse("0.1", "0.2")
CHAMP = ChampernowneTail()


def check(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_champernowne_half_bound():
    start = time.perf_counter()
    ok = True
    for J in range(1, 6):
        N = 2 * 10**J
        res = count_A(CHAMP, I12, N)
        ok &= 2 * res.count >= N
    elapsed = time.perf_counter() - start
    check("1 Champernowne ratio >= 1/2 at N = 2*10^J, J = 1..5", ok)
    check("1 runtime < 5 s", elapsed < 5.0)


def test_criterion_2_k1_exact_counts():
    ok = True
    for j in range(6):
        res = count_A(CHAMP, I12, 2 * 10**j)
        ok &= res.count == 10**j + (10**j - 1) // 9
    # brute-force oracle for j <= 3: first digit of the actual concatenation
    for j in range(4):
        N = 2 * 10**j
        brute = sum(str(n)[0] == "1" for n in range(1, N + 1))
        ok &= count_A(CHAMP, I12, N).count == brute
    ratio_j5 = count_A(CHAMP, I12, 2 * 10**5).ratio
    ok &= abs(ratio_j5 - 5 / 9) <= 1e-4
    check("2 k=1 closed-form counts and |ratio - 5/9| <= 1e-4 at j=5", ok)


def test_criterion_3_general_k():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 7):
        report = ratio_scan(MultipleTail(k), I12, scan_points(MultipleTail(k), 6))
        ok &= abs(report.final_ratio - 5 / 9) <= 0.02
        for rec in report.records:
            ok &= abs(rec.count - lemma1_main_term(k, rec.j)) <= 2 * (rec.j + 1)
    elapsed = time.perf_counter() - start
    check("3 k in {2,3,7}: |final ratio - 5/9| <= 0.02 and residual <= 2(j+1)", ok)
    check("3 runtime < 10 s", elapsed < 10.0)


def test_criterion_4_degree_two():
    start = time.perf_counter()
    spec = PolyTail(IntPoly((0, 0, 1)))
    report = ratio_scan(spec, I12, scan_points(spec, 8))
    target = math.sqrt(5) * (math.sqrt(2) - 1) / (math.sqrt(10) - 1)
    elapsed = time.perf_counter() - start
    check("4 n^2 scan: |final ratio - 2*y_2| <= 0.05", abs(report.final_ratio - target) <= 0.05)
    check("4 n^2 scan: final ratio > 1/9 + 0.25", report.final_ratio > 1 / 9 + 0.25)
    check(
        "4 n^2 scan: paper lower bound y_2 also holds",
        report.final_ratio >= report.constants.paper_lower_bound,
    )
    check("4 runtime < 5 s", elapsed < 5.0)


def test_criterion_5_order_lemma():
    polys = [IntPoly((0, 0, 1)), IntPoly((0, 10, 1)), IntPoly((1, 0, 0, 2))]
    ok_bracket = True
    ok_eps = True
    for poly in polys:
        d = poly.degree
        eps_bound = abs(poly.coeffs[d - 1] / (d * poly.coeffs[d])) + 2
        for e in range(4, 11):
            m = 10**e
            g = poly_floor_inverse(poly, m)
            ok_bracket &= poly.eval(g) <= m < poly.eval(g + 1)
            ok_eps &= abs(inverse_epsilon(poly, m)) <= eps_bound
    check("5 floor inverse brackets m for decade m in [1e4, 1e10]", ok_bracket)
    check("5 |inverse epsilon| <= |c_{d-1}/(d c_d)| + 2", ok_eps)

    ok_linear = True
    for poly in polys:
        n = poly.n_min
        for m in range(poly.eval(poly.n_min), 10**5 + 1):
            while poly.eval(n + 1) <= m:
                n += 1
            if poly_floor_inverse(poly, m) != n:
                ok_linear = False
                break
    check("5 binary search equals linear search for all m <= 1e5", ok_linear)


def test_criterion_6_y_sequence():
    ys = y_sequence(50)
    # Rate of approach to Y = log 2/(2 log 10).  With u = 1/d,
    #   (2^u - 1)/(10^u - 1) = 2Y (1 - u ln5/2 + u^2 ln5 ln(5/2)/12 + O(u^3))
    # and 5^u = 1 + u ln5 + u^2 ln^2(5)/2 + O(u^3); in the product the
    # ln^2(5)/2 terms cancel, so y_d = Y (1 + c1 u + c2 u^2 + O(u^3)) with
    # c1 = ln5/2 and c2 = ln5 ln(5/2)/12.  The u^3 coefficient is negative
    # (about -0.075), and
    #   0 <= y_d - Y - Y c1/d <= Y c2/d^2
    # holds at 40 digits for every d <= 5000.  Hence y_d - Y ~ 0.121/d:
    # y_50 - Y = 0.00243, and |y_d - Y| <= 1e-3 first holds at d = 122.
    lim = math.log(2) / (2 * math.log(10))
    c1 = math.log(5) / 2
    c2 = math.log(5) * math.log(5 / 2) / 12
    results = [
        ("6 y_d strictly decreasing for d <= 50", all(a > b for a, b in zip(ys, ys[1:]))),
        ("6 y_1 = 5/18 within 1e-12", abs(ys[0] - 5 / 18) <= 1e-12),
        (
            "6 0 <= y_d - Y - Y ln5/(2d) <= Y ln5 ln(5/2)/(12 d^2) for d <= 50",
            all(0 <= y - lim - lim * c1 / d <= lim * c2 / d**2 for d, y in enumerate(ys, start=1)),
        ),
        ("6 y_d > 1/9 for d <= 50", all(y > 1 / 9 for y in ys)),
        ("6 limit constant", abs(Y_LIMIT - math.log(2) / (2 * math.log(10))) < 1e-15),
    ]
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
    failed = [name for name, ok in results if not ok]
    assert not failed, failed


def test_criterion_7_benford_negative_control():
    ok = True
    for N in (2 * 10**3, 2 * 10**4, 2 * 10**5):
        terms = range(1, N + 1)
        disc = star_discrepancy(log_fracparts(terms))
        freq1 = census(terms)[0] / N
        ok &= disc >= 0.2 and freq1 >= 0.5
    check("7 naturals: log10 star discrepancy >= 0.2 and digit-1 freq >= 0.5", ok)


def test_criterion_8_benford_positive_control():
    rotation = PointSet.of((n * math.log10(2)) % 1.0 for n in range(1, 10**4 + 1))
    check("8 rotation {n log10 2}: star discrepancy <= 0.01", star_discrepancy(rotation) <= 0.01)
    report = benford_report([2**n for n in range(1, 10**4 + 1)])
    check("8 powers of two: max census gap vs Benford <= 0.02", report.max_abs_gap <= 0.02)


def test_criterion_9_discrepancy_identities():
    ok = True
    for N in (10, 100, 1000):
        left_grid = PointSet.of(i / N for i in range(N))
        centered = PointSet.of((2 * i - 1) / (2 * N) for i in range(1, N + 1))
        ok &= abs(star_discrepancy(left_grid) - 1 / N) <= 1e-12
        ok &= abs(star_discrepancy(centered) - 1 / (2 * N)) <= 1e-12
    check("9 D*(grid) = 1/N and D*(centered grid) = 1/(2N) to 1e-12", ok)


def test_criterion_10_first_digit_reduction():
    ok = True
    families = [CHAMP, MultipleTail(3), PolyTail(IntPoly((0, 0, 1)))]
    for spec in families:
        start = spec.n_min
        running = 0
        for i, n in enumerate(range(start, start + 10**4), start=1):
            member = in_interval(spec, n, I12)
            lead_one = leading_digit(term(spec, n)) == 1
            if member != lead_one:
                ok = False
                break
            running += member
        ok &= running == count_A(spec, I12, 10**4).count
        ok &= running == census(term(spec, n) for n in range(start, start + 10**4))[0]
    check("10 count_A == digit-1 census, exhaustively for N <= 1e4, all families", ok)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
