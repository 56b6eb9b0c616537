import math
from decimal import Decimal

import mpmath
import pytest
from hypothesis import event, example, given, settings, strategies as st

from concat_equidist import counting
from concat_equidist.asymptotics import (
    Y_LIMIT,
    inverse_epsilon,
    lemma2_main_term,
    limit_constants,
    poly_floor_inverse,
    ratio_scan,
    scan_points,
    y_sequence,
)
from concat_equidist.counting import count_A
from concat_equidist.exactnum import HalfOpenInterval
from concat_equidist.seqgen import ChampernowneTail, IntPoly, MultipleTail, PolyTail, _iroot, lemma1_main_term

I12 = HalfOpenInterval.parse("0.1", "0.2")
NSQ = IntPoly((0, 0, 1))


def gallop_floor_inverse(poly, m):
    """Oracle: g(m) by galloping up from n_min and bisecting, O(bits of m) Horner passes."""
    lo = poly.n_min
    if m < poly.eval(lo):
        raise ValueError(f"m = {m} below f(n_min) = {poly.eval(lo)}")
    hi = lo + 1
    while poly.eval(hi) <= m:
        hi = 2 * hi - lo + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poly.eval(mid) <= m:
            lo = mid
        else:
            hi = mid
    return lo


@st.composite
def polys(draw):
    """Degree 1-6, coefficients up to 10^30 in size; many have n_min > 1."""
    d = draw(st.integers(1, 6))
    lower = draw(st.lists(st.integers(-(10**30), 10**30), min_size=d, max_size=d))
    return IntPoly((*lower, draw(st.integers(1, 10**30))))


@st.composite
def floor_inverse_cases(draw):
    """(poly, m) with f(n_min) <= m, m up to 10^200 or at f(n) - 1, f(n), f(n) + 1."""
    poly = draw(polys())
    low = poly.eval(poly.n_min)
    if draw(st.booleans()):
        return poly, draw(st.integers(low, max(low, 10**200)))
    top = poly.n_min + _iroot(10**200 // poly.coeffs[-1], poly.degree)
    m = poly.eval(draw(st.integers(poly.n_min, top))) + draw(st.sampled_from((-1, 0, 1)))
    return poly, max(m, low)


class TestLemma1MainTerm:
    def test_k1(self):
        assert lemma1_main_term(1, 2) == 111

    def test_k3(self):
        assert lemma1_main_term(3, 2) == 36

    def test_k7_against_division_oracle(self):
        oracle = 10**0 // 7 + 10**1 // 7 + 10**2 // 7 + 10**3 // 7
        assert oracle == 157
        assert lemma1_main_term(7, 3) == oracle

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lemma1_main_term(0, 3)
        with pytest.raises(ValueError):
            lemma1_main_term(2, -1)


class TestSubsequencePoints:
    def test_k1(self):
        assert scan_points(MultipleTail(1), 3) == [(0, 2), (1, 20), (2, 200), (3, 2000)]

    def test_k3(self):
        assert scan_points(MultipleTail(3), 2) == [(1, 6), (2, 66)]

    def test_threshold_exclusion(self):
        assert scan_points(MultipleTail(200), 2) == []

    def test_all_points_valid(self):
        for k in (1, 2, 13, 999):
            for j, n in scan_points(MultipleTail(k), 6):
                assert n == 2 * 10**j // k >= 1

    def test_poly_points(self):
        pts = scan_points(PolyTail(NSQ), 3)
        assert pts == [(1, 4), (2, 14), (3, 44)]


class TestPolyFloorInverse:
    def test_square(self):
        assert poly_floor_inverse(NSQ, 200) == 14

    def test_identity(self):
        assert poly_floor_inverse(IntPoly((0, 1)), 17) == 17

    def test_cubic_exact(self):
        assert poly_floor_inverse(IntPoly((0, 0, 0, 2)), 2 * 10**6) == 100

    def test_below_domain(self):
        poly = IntPoly((10, -10, 1))
        with pytest.raises(ValueError):
            poly_floor_inverse(poly, poly.eval(poly.n_min) - 1)

    @pytest.mark.parametrize("coeffs", [(0, 0, 1), (10, -10, 1), (1, 0, 0, 2), (3, 1)])
    def test_bracketing(self, coeffs):
        poly = IntPoly(coeffs)
        for m in [poly.eval(poly.n_min), 10**3, 10**6, 10**9, 10**12]:
            if m < poly.eval(poly.n_min):
                continue
            g = poly_floor_inverse(poly, m)
            assert poly.eval(g) <= m < poly.eval(g + 1)

    def test_matches_linear_search(self):
        poly = IntPoly((0, 2, 1))  # n^2 + 2n
        n = poly.n_min
        for m in range(poly.eval(n), 3000):
            while poly.eval(n + 1) <= m:
                n += 1
            assert poly_floor_inverse(poly, m) == n

    @given(floor_inverse_cases())
    @settings(max_examples=300)
    @example((IntPoly((10, -10, 1)), 11))  # n_min = 9, f(9) = 1: m just past f(n_min)
    @example((IntPoly((-420000, 5, 2)), 2 * 10**200))  # n_min = 458
    @example((IntPoly((-(10**30), 1)), 10**30 + 1))  # n_min = 10^30 + 1, the root guess is 0
    def test_matches_the_galloping_oracle(self, case):
        poly, m = case
        event(f"n_min > 1: {poly.n_min > 1}")
        assert poly_floor_inverse(poly, m) == gallop_floor_inverse(poly, m)

    @given(st.integers(0, 10**300), st.integers(1, 8))
    @example(2**300 - 1, 3)
    @example(10**200, 7)
    def test_integer_root_brackets(self, x, d):
        r = _iroot(x, d)
        assert r >= 0 and r**d <= x < (r + 1) ** d

    @pytest.mark.parametrize(
        "coeffs", [(0, 1), (3, 1), (0, 0, 1), (0, 10, 1), (5, -3, 1), (1, 0, 0, 2), (3, -7, 0, 2, 0, 1), (2, 9, 3)]
    )
    def test_horner_passes_do_not_grow_with_the_digits_of_m(self, coeffs, monkeypatch):
        # |c_{d-1}| / c_d <= 10 here, so the root of m // c_d starts within a
        # few places of g(m); galloping up from n_min took O(bits of m) passes
        poly = IntPoly(coeffs)
        poly.n_min
        calls = 0
        horner = IntPoly.eval

        def counted(self, n):
            nonlocal calls
            calls += 1
            return horner(self, n)

        monkeypatch.setattr(IntPoly, "eval", counted)
        for e in (100, 200, 400):
            for m in (10**e - 1, 10**e, 10**e + 1, 7 * 10**e // 3):
                calls = 0
                n = poly_floor_inverse(poly, m)
                assert calls <= 12, (e, m, calls)
                assert horner(poly, n) <= m < horner(poly, n + 1)


class TestInverseEpsilon:
    def test_square_bounded(self):
        eps = inverse_epsilon(NSQ, 10**8)
        assert -1.0 <= eps <= 1.0

    def test_shifted_square(self):
        # for n^2 + 10n the correction tends to -c_{d-1}/(d c_d) = -5
        eps = inverse_epsilon(IntPoly((0, 10, 1)), 10**10)
        assert abs(eps - (-5.0)) < 0.01

    def test_linear_shift_exact(self):
        # f(n) = n + 3 inverts exactly to g(m) = m - 3
        eps = inverse_epsilon(IntPoly((3, 1)), 10**6)
        assert abs(eps - (-3.0)) < 1e-9

    def test_m_past_the_float_range(self):
        # m / c_d as a float overflowed past about 1.8e308
        assert inverse_epsilon(IntPoly((0, 1)), 10**400) == 0.0
        assert inverse_epsilon(IntPoly((0, 10, 1)), 10**400) == -5.0


class TestLemma2MainTerm:
    def test_linear_degree(self):
        assert lemma2_main_term(IntPoly((0, 1)), 1) == pytest.approx(10.0)
        assert lemma2_main_term(IntPoly((0, 1)), 3) == pytest.approx(1110.0)

    def test_square_against_mpmath(self):
        with mpmath.workdps(40):
            oracle = (mpmath.sqrt(2) - 1) * (mpmath.sqrt(10) + 10)
        assert lemma2_main_term(NSQ, 2) == pytest.approx(float(oracle), abs=1e-12)

    def test_leading_coefficient_scaling(self):
        with mpmath.workdps(40):
            oracle = (mpmath.cbrt(2) - 1) / mpmath.cbrt(2) * sum(
                mpmath.power(10, mpmath.mpf(i) / 3) for i in range(1, 5)
            )
        assert lemma2_main_term(IntPoly((1, 0, 0, 2)), 4) == pytest.approx(float(oracle), rel=1e-12)

    def test_rejects_bad_J(self):
        with pytest.raises(ValueError):
            lemma2_main_term(NSQ, 0)

    def test_float_up_to_the_float_range_then_decimal(self):
        # for f(n) = n the main term is (10^(J+1) - 10) / 9, a float up to
        # J = 308; from J = 309 the Decimal is that integer exactly
        assert isinstance(lemma2_main_term(IntPoly((0, 1)), 308), float)
        for J in (309, 400):
            main = lemma2_main_term(IntPoly((0, 1)), J)
            assert isinstance(main, Decimal)
            assert main == (10 ** (J + 1) - 10) // 9

    def test_decimal_against_mpmath(self):
        with mpmath.workdps(400):
            oracle = (mpmath.cbrt(2) - 1) / mpmath.cbrt(2) * sum(
                mpmath.power(10, mpmath.mpf(i) / 3) for i in range(1, 1001)
            )
            main = lemma2_main_term(IntPoly((1, 0, 0, 2)), 1000)
            assert abs(mpmath.mpf(str(main)) / oracle - 1) < mpmath.mpf(10) ** -300

    def test_leading_coefficient_past_the_float_range(self):
        # c_d^(1/d) overflows as a float, the main term itself does not
        main = lemma2_main_term(IntPoly((0, 10**400)), 500)
        assert isinstance(main, float)
        assert main == pytest.approx((10**501 - 10) // 9 / 10**400, rel=1e-15)

    def test_scan_residuals_past_the_float_range(self):
        # f(n) = n: from J = 309 on the main term is a Decimal and count - main
        # is the exact residual 1, as a float
        spec = PolyTail(IntPoly((0, 1)))
        points = [(J, 2 * 10**J) for J in range(305, 313)]
        for r in ratio_scan(spec, HalfOpenInterval.parse("0.1", "0.2"), points).records:
            assert r.ratio == r.count / r.N
            if r.j >= 309:
                assert isinstance(r.main_term, Decimal) and r.residual == 1.0


class TestLimitConstants:
    def test_degree_one(self):
        c = limit_constants(1)
        assert c.paper_lower_bound == pytest.approx(5 / 18, abs=1e-15)
        assert c.scan_limit == pytest.approx(5 / 9, abs=1e-15)
        assert c.baseline_density == pytest.approx(1 / 9, abs=1e-15)

    def test_scan_limit_doubles_lower_bound(self):
        for d in range(1, 20):
            c = limit_constants(d)
            assert c.scan_limit == pytest.approx(2 * c.paper_lower_bound)

    def test_large_degree_limit(self):
        assert limit_constants(10**6).paper_lower_bound == pytest.approx(Y_LIMIT, abs=1e-6)

    def test_exceeds_baseline(self):
        for d in range(1, 51):
            assert limit_constants(d).paper_lower_bound > 1 / 9


class TestYSequence:
    def test_first_value(self):
        assert y_sequence(1)[0] == pytest.approx(5 / 18, abs=1e-12)

    def test_decreasing(self):
        ys = y_sequence(50)
        assert all(a > b for a, b in zip(ys, ys[1:]))

    def test_limit(self):
        # frozen from a 40-digit mpmath oracle; converges to Y_LIMIT like ~0.12/d
        assert y_sequence(50)[-1] == pytest.approx(0.152944751649, abs=1e-9)
        assert abs(y_sequence(1000)[-1] - Y_LIMIT) < 1e-3
        assert Y_LIMIT == pytest.approx(math.log(2) / (2 * math.log(10)))

    def test_bounded_below(self):
        assert all(y > Y_LIMIT for y in y_sequence(50))


class TestRatioScan:
    def test_champernowne_exact_counts(self):
        report = ratio_scan(ChampernowneTail(), I12, scan_points(MultipleTail(1), 4))
        for rec in report.records:
            assert rec.count == 10**rec.j + (10**rec.j - 1) // 9
        ratios = [rec.ratio for rec in report.records[1:]]
        assert ratios == [0.55, 0.555, 0.5555, 0.55555]
        assert report.target_constant == pytest.approx(5 / 9)

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_lemma1_residual_bound(self, k):
        report = ratio_scan(MultipleTail(k), I12, scan_points(MultipleTail(k), 4))
        for rec in report.records:
            assert abs(rec.residual) <= 2 * (rec.j + 1)

    def test_poly_scan_converges(self):
        spec = PolyTail(NSQ)
        report = ratio_scan(spec, I12, scan_points(spec, 6))
        assert report.kind == "poly-d"
        assert abs(report.final_ratio - report.target_constant) < 0.05

    @pytest.mark.parametrize("coeffs", [(0, 0, 1), (0, 1, 1), (1, 0, 0, 2)])
    def test_lemma2_residual_bound(self, coeffs):
        spec = PolyTail(IntPoly(coeffs))
        report = ratio_scan(spec, I12, scan_points(spec, 6))
        for rec in report.records:
            assert abs(rec.residual) <= 10 * (rec.j + 1)

    def test_rejects_empty_points(self):
        with pytest.raises(ValueError):
            ratio_scan(MultipleTail(200), I12, scan_points(MultipleTail(200), 2))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ratio_scan(MultipleTail(1), I12, [(1, 20), (2, 20)])

    @pytest.mark.parametrize("spec,j", [(MultipleTail(7), -1), (PolyTail(NSQ), 0)])
    def test_rejects_an_index_below_the_main_terms(self, spec, j):
        with pytest.raises(ValueError, match="scan points need j >= 0, and J >= 1 for a polynomial"):
            ratio_scan(spec, I12, [(j, 1), (j + 2, 5)])

    def test_rejects_non_decimal_base(self):
        # "0.2" has no base-2 reading, so an interval of it never reached the base check
        with pytest.raises(ValueError, match="spec.base must be 10"):
            ratio_scan(
                ChampernowneTail(base=2),
                HalfOpenInterval.parse("0.1", "0.11", base=2),
                [(0, 2)],
            )

    @pytest.mark.parametrize(
        "spec",
        [ChampernowneTail(), MultipleTail(7), MultipleTail(13), PolyTail(NSQ), PolyTail(IntPoly((5, -3, 1))),
         PolyTail(IntPoly((1, 0, 0, 2)))],
    )
    @pytest.mark.parametrize("lo,hi", [("0.1", "0.2"), ("0.123", "0.1231"), ("0.99", "1")])
    def test_one_walk_matches_a_count_per_point(self, spec, lo, hi):
        interval = HalfOpenInterval.parse(lo, hi)
        for rec in ratio_scan(spec, interval, scan_points(spec, 12)).records:
            res = count_A(spec, interval, rec.N)
            assert (rec.count, rec.ratio) == (res.count, res.ratio)

    @pytest.mark.parametrize("lo,hi", [("0.1", "0.2"), ("0.123", "0.1231")])
    def test_index_le_calls_per_decade(self, lo, hi, monkeypatch):
        # one walk for all 200 points: two calls per decade and at most one per tie,
        # where a count per point made 40 600
        spec = PolyTail(IntPoly((1, 0, 0, 2)))
        points = scan_points(spec, 200)
        calls, ties = [], []
        index_le, budget = PolyTail.index_le, counting.default_max_digits
        monkeypatch.setattr(PolyTail, "index_le", lambda self, m: calls.append(m) or index_le(self, m))
        monkeypatch.setattr(counting, "default_max_digits", lambda spec, n: ties.append(n) or budget(spec, n))
        ratio_scan(spec, HalfOpenInterval.parse(lo, hi), points)
        decades = len(str(spec.term(spec.n_min + points[-1][1] - 1))) - len(str(spec.term(spec.n_min))) + 1
        assert len(calls) <= 2 * decades + len(ties)

    def test_nonuniform_evidence(self):
        # final ratio sits far above the 1/9 density u.d. would force
        report = ratio_scan(MultipleTail(2), I12, scan_points(MultipleTail(2), 4))
        assert report.final_ratio > 1 / 9 + 0.3


def lemma2_oracle(poly, J, digits=80):
    """Oracle: the Lemma 2 main term at ``digits`` significant digits."""
    d, c = poly.degree, poly.coeffs[-1]
    with mpmath.workdps(digits):
        root = mpmath.mpf(1) / d
        return (mpmath.power(2, root) - 1) / mpmath.power(c, root) * sum(
            mpmath.power(10, i * root) for i in range(1, J + 1)
        )


@st.composite
def lemma2_cases(draw):
    """(poly, J): degree 1-5, c_d up to 10^30, J up to 120."""
    d = draw(st.integers(1, 5))
    lower = draw(st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d))
    return IntPoly((*lower, draw(st.integers(1, 10**30)))), draw(st.integers(1, 120))


class TestScanResiduals:
    def test_identity_residual_is_exactly_one(self):
        # f(n) = n: the count at N_J = 2*10^J is the main term plus 1; the
        # float difference would be rounding noise from J = 16 on
        spec = PolyTail(IntPoly((0, 1)))
        records = ratio_scan(spec, I12, scan_points(spec, 60)).records
        assert [r.j for r in records] == list(range(1, 61))
        assert all(r.residual == 1.0 and isinstance(r.residual, float) for r in records)

    @pytest.mark.parametrize("coeffs", [(0, 0, 1), (1, 0, 0, 2), (5, -3, 1)])
    def test_poly_main_term_and_residual_are_the_oracle_rounded_once(self, coeffs):
        # n^2, 2n^3 + 1 and n^2 - 3n + 5 at every J <= 60; a float sum of the
        # powers printed wrong residual digits from J = 10 on
        spec = PolyTail(IntPoly(coeffs))
        records = ratio_scan(spec, I12, scan_points(spec, 60)).records
        assert len(records) >= 59
        for r in records:
            with mpmath.workdps(80):
                main = lemma2_oracle(spec.poly, r.j)
                assert (r.main_term, r.residual) == (float(main), float(r.count - main)), r.j
            assert lemma2_main_term(spec.poly, r.j) == r.main_term

    @given(lemma2_cases())
    @settings(max_examples=150)
    @example((IntPoly((3, 0, 0, 0, 0, 7)), 120))
    @example((IntPoly((0, 10**30)), 1))  # a main term of 10^-29
    def test_lemma2_matches_the_oracle(self, case):
        poly, J = case
        digits = J // poly.degree + 60
        with mpmath.workdps(digits):
            main = lemma2_oracle(poly, J, digits)
            assert lemma2_main_term(poly, J) == float(main)
            if 2 * 10**J >= poly.n_min_value:
                N = poly_floor_inverse(poly, 2 * 10**J) - poly.n_min + 1
                (r,) = ratio_scan(PolyTail(poly), I12, [(J, N)]).records
                assert (r.main_term, r.residual) == (float(main), float(r.count - main))

    def test_linear_residual_is_the_exact_integer_difference(self):
        records = ratio_scan(MultipleTail(7), I12, scan_points(MultipleTail(7), 40)).records
        for r in records:
            assert r.residual == float(r.count - lemma1_main_term(7, r.j))
            assert r.main_term == float(lemma1_main_term(7, r.j))
