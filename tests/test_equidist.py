import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from concat_equidist.counting import leading_digit
from concat_equidist.equidist import (
    BENFORD_FREQ,
    PointSet,
    benford_report,
    log10_fracpart,
    log10_int,
    log_fracparts,
    poly_log_ratio,
    star_discrepancy,
    ud_deviation,
    weyl_sum,
)
from concat_equidist.exactnum import ExactEndpoint
from concat_equidist.seqgen import ChampernowneTail, IntPoly, tail_digits

LOG2 = math.log10(2)


def grid(n):
    # left-closed grid {i/n : i = 0..n-1}; D* = 1/n, same as the right-closed one
    return PointSet.of(i / n for i in range(n))


def centered_grid(n):
    return PointSet.of((2 * i - 1) / (2 * n) for i in range(1, n + 1))


def rotation(n, step=LOG2):
    return PointSet.of((i * step) % 1.0 for i in range(1, n + 1))


def champ_values(n_max, depth=18):
    spec = ChampernowneTail()
    vals = []
    for n in range(1, n_max + 1):
        ds = tail_digits(spec, n, depth)
        acc = 0
        for d in ds.digits:
            acc = acc * 10 + d
        vals.append(acc / 10**depth)
    return PointSet.of(vals)


class TestStarDiscrepancy:
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_uniform_grid(self, n):
        assert star_discrepancy(grid(n)) == pytest.approx(1 / n, abs=1e-12)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_centered_grid_is_optimal(self, n):
        assert star_discrepancy(centered_grid(n)) == pytest.approx(1 / (2 * n), abs=1e-12)

    def test_rotation_sequence_small(self):
        assert star_discrepancy(rotation(10**4)) <= 0.01

    def test_decreases_with_n(self):
        assert star_discrepancy(rotation(10**4)) < star_discrepancy(rotation(10**2))

    def test_range_bound(self):
        for pts in [grid(7), rotation(50), PointSet.of([0.0] * 5)]:
            d = star_discrepancy(pts)
            assert 0.0 < d <= 1.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            star_discrepancy(PointSet.of([]))


class TestPointSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PointSet.of([0.5, 1.0])
        with pytest.raises(ValueError):
            PointSet.of([-0.1])


class TestUdDeviation:
    def test_grid_on_subinterval(self):
        n = 1000
        pts = PointSet.of(0.1 + 0.9 * i / n for i in range(n))
        dev = ud_deviation(pts, ExactEndpoint.parse("0.1"), ExactEndpoint.parse("1"))
        assert dev == pytest.approx(1 / n, abs=1e-9)

    def test_champernowne_tails_deviate(self):
        pts = champ_values(2 * 10**4)
        dev = ud_deviation(pts, ExactEndpoint.parse("0.1"), ExactEndpoint.parse("1"))
        assert dev >= 0.4

    def test_degenerate_mass_point(self):
        pts = PointSet.of([0.1] * 20)
        dev = ud_deviation(pts, ExactEndpoint.parse("0.1"), ExactEndpoint.parse("1"))
        assert dev == pytest.approx(1.0)

    def test_rejects_point_outside(self):
        with pytest.raises(ValueError):
            ud_deviation(PointSet.of([0.05]), ExactEndpoint.parse("0.1"), ExactEndpoint.parse("1"))


class TestWeylSum:
    def test_full_period_cancellation(self):
        assert weyl_sum(grid(100), 1) <= 1e-12

    def test_no_cancellation(self):
        for h in (1, 2, -3):
            assert weyl_sum(PointSet.of([0.0] * 10), h) == pytest.approx(1.0)

    def test_rotation_geometric_bound(self):
        n = 10**4
        z = np.exp(2j * np.pi * LOG2)
        oracle_bound = 2 / (n * abs(1 - z))
        assert weyl_sum(rotation(n), 1) <= oracle_bound
        assert oracle_bound <= 0.01

    def test_rejects_h_zero(self):
        with pytest.raises(ValueError):
            weyl_sum(grid(10), 0)


class TestLogFracparts:
    def test_powers_of_ten(self):
        pts = log_fracparts([10**i for i in range(6)])
        assert pts.values == (0.0,) * 6

    def test_multiples_of_powers(self):
        assert log10_fracpart(3 * 10**25) == pytest.approx(math.log10(3), abs=1e-12)
        assert log10_fracpart(2 * 10**6) == pytest.approx(LOG2, abs=1e-12)

    def test_powers_of_two(self):
        pts = log_fracparts([2**n for n in range(1, 6)])
        expected = [(n * LOG2) % 1.0 for n in range(1, 6)]
        assert pts.values == pytest.approx(expected, abs=1e-12)

    def test_single_digits(self):
        pts = log_fracparts(range(1, 10))
        assert pts.values == pytest.approx([math.log10(c) for c in range(1, 10)], abs=1e-15)

    def test_big_power_of_two_matches_rotation(self):
        # 2^5000 is far beyond float range; the digit-based log must still agree
        assert log10_fracpart(2**5000) == pytest.approx((5000 * LOG2) % 1.0, abs=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            log10_fracpart(0)


class TestLog10Int:
    def test_matches_float_log(self):
        for m in [1, 7, 999, 10**6, 123456789, 2**50]:
            assert log10_int(m) == pytest.approx(math.log10(m), abs=1e-12)

    def test_huge_values(self):
        assert log10_int(10**100) == pytest.approx(100.0, abs=1e-12)
        assert log10_int(10**40 - 1) == pytest.approx(40.0, abs=1e-12)


def str_log10_int(m):
    s = str(m)
    mant = s[:17]
    return (len(s) - 1) + math.log10(int(mant)) - (len(mant) - 1)


def str_log10_fracpart(m):
    s = str(m).rstrip("0")
    if s == "" or s == "1":
        return 0.0
    mant = s[:17]
    return (math.log10(int(mant)) - (len(mant) - 1)) % 1.0


def str_leading_digit(m):
    return int(str(m)[0])


@st.composite
def huge_terms(draw):
    """Positive integers up to 6000 digits, weighted towards the cases the
    17-digit mantissa rule distinguishes."""
    kind = draw(st.sampled_from(["small", "bits", "pow2", "scaled", "zero_run", "near_power"]))
    if kind == "small":
        return draw(st.integers(1, 10**40))
    if kind == "bits":
        return draw(st.integers(1, 20_000).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1)))
    if kind == "pow2":
        return 2 ** draw(st.integers(0, 20_000))
    if kind == "scaled":  # c * 10^k, mantissa stripped to c
        return draw(st.integers(1, 10**20)) * 10 ** draw(st.integers(0, 6000))
    if kind == "zero_run":
        # a 17-digit head ending in zeros with a nonzero digit later: the head
        # is used unstripped, which can differ from the stripped one by an ulp
        zeros = draw(st.integers(1, 16))
        head = draw(st.integers(10 ** (16 - zeros), 10 ** (17 - zeros) - 1)) * 10**zeros
        later = draw(st.integers(1, 6000))
        tail = draw(st.one_of(st.just(1), st.integers(1, 10**later - 1)))
        return (head * 10**later + tail) * 10 ** draw(st.integers(0, 3))
    k = draw(st.integers(1, 6000))
    return 10**k + draw(st.integers(-3, 3))


class TestMatchesStrOracle:
    """log10_int, log10_fracpart and leading_digit equal the str()-based rules
    bit for bit, also past Python's 4300-digit int-to-str limit."""

    @settings(max_examples=600)
    @given(huge_terms())
    # (b - 1) log10(2) lies just below an integer at b = 13302 and 26603 bits:
    # the digit count estimate must round down there
    @example(2**13301)
    @example(2**26602 + 1)
    def test_bitwise_equal(self, m):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = (str_log10_int(m), str_log10_fracpart(m), str_leading_digit(m))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (log10_int(m), log10_fracpart(m), leading_digit(m)) == expected

    def test_powers_of_two_past_the_str_limit(self, deadline):
        with deadline(5.0, "log10 parts of 2^1..2^15000"):
            fracs = log_fracparts(2**n for n in range(1, 15_001)).values
            digits = [leading_digit(2**n) for n in range(1, 15_001)]
        assert fracs[-1] == pytest.approx((15_000 * LOG2) % 1.0, abs=1e-9)
        assert digits[-1] == 2  # 2^15000 = 2.8…e4515


class TestBenfordReport:
    def test_naturals_pile_up_on_digit_one(self):
        report = benford_report(range(1, 2 * 10**4 + 1))
        assert report.digit_freq[0] >= 0.5
        assert report.max_abs_gap >= 0.2
        assert report.log_discrepancy >= 0.2

    def test_powers_of_two_follow_benford(self):
        report = benford_report([2**n for n in range(1, 2001)])
        assert report.max_abs_gap <= 0.02

    def test_single_term(self):
        report = benford_report([1])
        assert report.digit_freq == (1.0, 0, 0, 0, 0, 0, 0, 0, 0)

    def test_reference_frequencies(self):
        assert sum(BENFORD_FREQ) == pytest.approx(1.0)
        assert BENFORD_FREQ[0] == pytest.approx(math.log10(2))

    def test_gap_bounded_by_discrepancy(self):
        # one-interval mass gap is at most twice the star discrepancy
        for terms in [range(1, 2001), [2**n for n in range(1, 800)], [7] * 50]:
            report = benford_report(terms)
            assert report.max_abs_gap <= 2 * report.log_discrepancy + 2 / report.N

    def test_negative_control_scales(self):
        for N in (2 * 10**3, 2 * 10**4):
            disc = star_discrepancy(log_fracparts(range(1, N + 1)))
            assert disc >= 0.2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            benford_report([])


class TestPolyLogRatio:
    def test_square(self):
        assert poly_log_ratio(IntPoly((0, 0, 1)), 10**6, 10) == pytest.approx(2.0, abs=1e-6)

    def test_cubic(self):
        assert poly_log_ratio(IntPoly((0, 1, 0, 1)), 10**4, 10) == pytest.approx(3.0, abs=1e-3)

    def test_identity(self):
        assert poly_log_ratio(IntPoly((0, 1)), 100, 10) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_n_one(self):
        with pytest.raises(ValueError):
            poly_log_ratio(IntPoly((0, 0, 1)), 1, 10)

    def test_log_difference_converges_to_leading_coefficient(self):
        poly = IntPoly((5, -3, 7))  # 7n^2 - 3n + 5
        n = 10**6
        diff = log10_int(poly.eval(n)) - 2 * log10_int(n)
        assert diff == pytest.approx(math.log10(7), abs=1e-5)
