import dataclasses
import decimal
import itertools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import per_term
from concat_equidist import equidist
from concat_equidist.equidist import (
    _BATCH,
    _EPS,
    _STAR_BLOCK,
    _WHOLE,
    _LOG10_2_FIXED,
    _FINER,
    _certified_star,
    _certify,
    _counts_below,
    _digit_counts,
    _grid,
    _grid_of,
    _int64_reader,
    _mantissa,
    _pow2_mantissa,
    _pow2_parts,
    _unwrap,
    BENFORD_FREQ,
    BenfordReport,
    PointSet,
    _quotients,
    benford_report,
    census,
    family_benford_report,
    log_fracparts,
    pow2_benford_report,
    star_discrepancy,
    tail_points,
    ud_deviation,
    weyl_sum,
)
from concat_equidist.exactnum import ExactEndpoint
from concat_equidist.seqgen import (
    ChampernowneTail,
    DomainError,
    IntPoly,
    MultipleTail,
    PolyTail,
    tail_digits,
    tail_prefixes,
)

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
        for c in ds.text:
            acc = acc * 10 + int(c)
        vals.append(acc / 10**depth)
    return PointSet.of(vals)


def formula_star_discrepancy(points):
    """D*_N as ``star_discrepancy`` wrote it before it shared its terms with
    the Benford pass: integer ranks, divided as whole arrays."""
    v = np.sort(points.array)
    n = len(v)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - v), np.max(v - (i - 1) / n)))


class TestStarDiscrepancy:
    @settings(max_examples=200)
    @given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=300), st.integers(0, 3))
    def test_bitwise_equal_to_the_formula(self, values, repeat):
        points = PointSet(values * (1 + repeat))
        assert repr(star_discrepancy(points)) == repr(formula_star_discrepancy(points))

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


class TestPointSetValidation:
    @pytest.mark.parametrize("bad", [math.nan, 1.0, -1e-300, math.inf, -math.inf, np.float64(np.nan)])
    def test_rejects_outside_unit_interval(self, bad):
        for values in ([bad], [0.25, bad, 0.5], [0.5] * 3 + [bad]):
            with pytest.raises(ValueError, match=r"all points must lie in \[0, 1\)"):
                PointSet.of(values)
            with pytest.raises(ValueError, match=r"all points must lie in \[0, 1\)"):
                PointSet(tuple(values))

    def test_negative_zero_is_kept(self):
        pts = PointSet.of([0.5, -0.0, np.float64(-0.0)])
        assert pts.values == (0.5, 0.0, 0.0)
        assert [math.copysign(1.0, v) for v in pts.values] == [1.0, -1.0, -1.0]
        assert all(type(v) is float for v in pts.values)

    def test_largest_float_below_one(self):
        below = math.nextafter(1.0, 0.0)
        assert PointSet.of([below, 0.0]).values == (below, 0.0)

    def test_empty(self):
        assert PointSet.of([]).values == ()


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
        with pytest.raises(ValueError, match=r"^x_0 = 0\.05 outside \[0\.1, 1\)$"):
            ud_deviation(PointSet.of([0.05]), ExactEndpoint.parse("0.1"), ExactEndpoint.parse("1"))

    def test_names_the_first_point_outside_by_its_index(self):
        points = PointSet.of([0.5, 0.95, 0.2, 0.99])
        with pytest.raises(ValueError, match=r"^x_8 = 0\.95 outside \[0\.1, 0\.9\)$"):
            ud_deviation(points, ExactEndpoint.parse("0.1"), ExactEndpoint.parse("0.9"), first_index=7)

    def test_a_window_below_float_spacing_is_not_called_empty(self):
        points, alpha = PointSet.of([0.1]), ExactEndpoint.parse("0.1")
        with pytest.raises(ValueError, match=r"^require alpha < beta$"):
            ud_deviation(points, alpha, ExactEndpoint.parse("0.0999999999999999999999"))
        with pytest.raises(ValueError, match=r"^\[0\.1, 0\.1000000000000000000001\) is narrower than float64 spacing"):
            ud_deviation(points, alpha, ExactEndpoint.parse("0.1000000000000000000001"))


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

    @pytest.mark.parametrize(
        "h,shown",
        [(10**400, "<1329-bit int>"), (-(2**1024), "-<1025-bit int>"), (10**308, "<1024-bit int>"), (-(2**1022), "-<1023-bit int>")],
    )
    def test_rejects_h_past_the_float_range_by_size(self, h, shown):
        with pytest.raises(ValueError, match=f"^h = {shown} is too large to convert to float$"):
            weyl_sum(grid(10), h)

    def test_h_within_the_float_range_is_summed_as_before(self):
        h = 10**300
        assert weyl_sum(rotation(50), h) == float(abs(np.exp(2j * np.pi * h * rotation(50).array).mean()))

    @pytest.mark.parametrize("h", [2 * 10**307, -(2**1020)])
    def test_h_with_a_finite_angle_is_summed_as_before(self, h):
        assert weyl_sum(rotation(50), h) == float(abs(np.exp(2j * np.pi * h * rotation(50).array).mean()))


def prefix_points(spec, n, count, depth=18):
    """The reference points: each ``tail_prefixes`` integer divided in
    Python, one point at a time, and clamped below 1."""
    scale = spec.base**depth
    below_one = math.nextafter(1.0, 0.0)
    prefixes = tail_prefixes(spec, n, count, depth)
    return np.fromiter((min(p / scale, below_one) for p in prefixes), dtype=np.float64)


@st.composite
def point_cases(draw):
    """(spec, n, count, depth): a tail in base 2-36 (b^18 < 2^63 up to base
    11), k up to 10^20, polynomials of degree 1-6 whose constant term mostly
    pushes n_min above 1; a start often just below a change of term length;
    counts around multiples of the block, zero and negative ones."""
    base = draw(st.integers(2, 36))
    kind = draw(st.sampled_from(["champ", "mult", "poly"]))
    if kind == "champ":
        spec = ChampernowneTail(base)
    elif kind == "mult":
        spec = MultipleTail(draw(st.one_of(st.integers(1, 50), st.integers(1, 10**20))), base)
    else:
        degree = draw(st.integers(1, 6))
        constant = draw(st.integers(-60, 5))
        middle = draw(st.lists(st.integers(-20, 20), min_size=degree - 1, max_size=degree - 1))
        spec = PolyTail(IntPoly((constant, *middle, draw(st.integers(1, 4)))), base)
    if draw(st.booleans()):
        j = draw(st.integers(1, 30))
        last_short = spec.n_min + spec.index_le(base**j - 1) - 1
        n = max(spec.n_min, last_short - draw(st.integers(0, 5)))
    else:
        n = spec.n_min + draw(st.integers(0, 3000))
    edges = [_BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH - 1, 2 * _BATCH, 2 * _BATCH + 1]
    count = draw(st.one_of(st.sampled_from(edges), st.integers(-3, 60)))
    return spec, n, count, draw(st.one_of(st.just(18), st.integers(1, 24)))


class TestTailPoints:
    @settings(max_examples=200)
    @given(point_cases())
    @example((ChampernowneTail(), 9990, 2 * _BATCH + 1, 18))  # four- to five-digit terms
    @example((MultipleTail(922337203685477), 9990, _BATCH, 18))  # k*n passes 2^63 at n = 10001
    @example((PolyTail(IntPoly((0, 0, 0, 0, 0, 0, 1))), 1440, 30, 18))  # n^6 passes 2^63 at n = 1449
    @example((ChampernowneTail(11), 1, _BATCH + 1, 18))  # the largest base of int64 blocks
    @example((ChampernowneTail(12), 1, 40, 18))  # the first base read from tail_prefixes
    @example((MultipleTail(2 * 10**12), 499_990, _BATCH, 18))  # 18 to 19 digits at n = 500000, below 2^63
    @example((PolyTail(IntPoly((1, 0, 0, 2))), 999_990, 40, 18))  # every term has 19 digits, below 2^63
    @example((ChampernowneTail(2), 1, _BATCH + 1, 24))  # runs shorter than their windows
    @example((ChampernowneTail(), 10**5 - _BATCH, 2 * _BATCH + 1, 18))  # the second block starts at 10^5
    def test_bitwise_equal_to_prefix_division(self, case):
        spec, n, count, depth = case
        got = tail_points(spec, n, count, depth).array
        want = prefix_points(spec, n, count, depth)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("base", [10, 12])
    @pytest.mark.parametrize("count", [0, -1, -_BATCH])
    def test_no_points_is_an_empty_point_set(self, base, count):
        points = tail_points(ChampernowneTail(base), 1, count)
        assert len(points) == len(prefix_points(ChampernowneTail(base), 1, count)) == 0
        with pytest.raises(ValueError, match="^empty point set$"):
            star_discrepancy(points)

    def test_prefix_rounding_to_one_stays_below_one(self):
        # x_1 = 0.999999999999999991999...: its 18-digit prefix rounds to 1.0
        assert tail_points(MultipleTail(99999999999999999), 1, 1).values == (math.nextafter(1.0, 0.0),)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            tail_points(ChampernowneTail(), 1, 5, 0)

    @pytest.mark.parametrize("base", [10, 12])
    def test_rejects_index_below_n_min(self, base):
        spec = PolyTail(IntPoly((10, -10, 1)), base)
        with pytest.raises(DomainError, match="below the sequence domain"):
            tail_points(spec, spec.n_min - 1, 0)


@st.composite
def quotient_cases(draw):
    """(prefixes, scale): scale = b^depth < 2^63 for a base 2-11, and int64
    prefixes below it: 0, scale - 1 (which rounds to 1.0 for depth 18),
    anything, and prefixes next to P / scale = a float64 midpoint, where
    rounding twice can go wrong."""
    base = draw(st.integers(2, 11))
    depth = draw(st.integers(1, max(d for d in range(1, 64) if base**d < 2**63)))
    scale = base**depth
    near = st.builds(
        lambda q, delta: int((Fraction(q) + Fraction(math.nextafter(q, 1.0))) / 2 * scale) + delta,
        st.floats(0.0, 1.0, exclude_max=True),
        st.integers(-2, 2),
    )
    prefix = st.one_of(st.just(0), st.just(scale - 1), st.integers(0, scale - 1), near)
    values = draw(st.lists(prefix, min_size=1, max_size=50))
    return [min(max(v, 0), scale - 1) for v in values], scale


def is_float64_midpoint(x):
    """Whether the np.longdouble x lies halfway between two float64 neighbours, in Fractions."""
    exact = Fraction(*x.as_integer_ratio())
    near = float(exact)
    toward = math.nextafter(near, math.inf if exact > near else -math.inf)
    return exact != near and exact == (Fraction(near) + Fraction(toward)) / 2


class TestQuotients:
    """``_quotients`` against Python's correctly rounded int / int."""

    # 0 stands for a long-double layout the bit test does not know, a plain double among them
    @pytest.mark.parametrize("finer", [_FINER, 0], ids=["this-host", "python-route"])
    @settings(max_examples=300)
    @given(quotient_cases())
    # the extended quotient is a float64 midpoint, the exact one lies above it
    @example(([677830477250592367, 10**18 - 1, 0], 10**18))
    def test_bitwise_equal_to_python_division(self, finer, case):
        prefixes, scale = case
        with mock.patch.object(equidist, "_FINER", finer):
            got = _quotients(np.array(prefixes, dtype=np.int64), scale)
        want = np.array([p / scale for p in prefixes])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.skipif(_FINER not in (11, 60), reason="no bit test for this long-double layout")
    @settings(max_examples=200)
    @given(quotient_cases())
    @example(([677830477250592367, 10**18 - 1, 0], 10**18))
    def test_python_divides_exactly_the_midpoints(self, case):
        prefixes, scale = case
        with mock.patch.object(equidist, "_python_quotients", wraps=equidist._python_quotients) as python:
            _quotients(np.array(prefixes, dtype=np.int64), scale)
        (divided, _), _ = python.call_args
        assert divided == [p for p in prefixes if is_float64_midpoint(np.longdouble(p) / np.longdouble(scale))]

    def test_the_bit_test_knows_this_hosts_layout(self):
        # x87 extended and IEEE quad, little-endian in 16 bytes, hold every int64; a plain double does not
        known = np.finfo(np.longdouble).nmant in (63, 112) and np.dtype(np.longdouble).itemsize == 16
        assert (_FINER in (11, 60)) == (known and sys.byteorder == "little")

    @pytest.mark.skipif(_FINER not in (11, 60), reason="no bit test for this long-double layout")
    def test_a_midpoint_is_divided_again(self):
        # rounding the extended quotient straight to float64 would be one ulp low
        p, scale = 677830477250592367, 10**18
        assert float(np.longdouble(p) / np.longdouble(scale)) < p / scale
        assert _quotients(np.array([p], dtype=np.int64), scale)[0] == p / scale


class TestLogFracparts:
    def test_powers_of_ten(self):
        pts = log_fracparts([10**i for i in range(6)])
        assert pts.values == (0.0,) * 6

    def test_multiples_of_powers(self):
        assert per_term.log10_fracpart(3 * 10**25) == pytest.approx(math.log10(3), abs=1e-12)
        assert per_term.log10_fracpart(2 * 10**6) == pytest.approx(LOG2, abs=1e-12)

    def test_powers_of_two(self):
        pts = log_fracparts([2**n for n in range(1, 6)])
        expected = [(n * LOG2) % 1.0 for n in range(1, 6)]
        assert pts.values == pytest.approx(expected, abs=1e-12)

    def test_single_digits(self):
        pts = log_fracparts(range(1, 10))
        assert pts.values == pytest.approx([math.log10(c) for c in range(1, 10)], abs=1e-15)

    def test_big_power_of_two_matches_rotation(self):
        # 2^5000 is far beyond float range; the digit-based log must still agree
        assert per_term.log10_fracpart(2**5000) == pytest.approx((5000 * LOG2) % 1.0, abs=1e-9)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            per_term.log10_fracpart(0)


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
    """The per-term log10_fracpart and leading_digit equal the str()-based rules
    bit for bit, also past Python's 4300-digit int-to-str limit."""

    @settings(max_examples=600)
    @given(huge_terms())
    # (b - 1) log10(2) lies just below an integer at b = 13302 and 26603 bits,
    # where _mantissa's digit count estimate must round down (TestMantissa)
    @example(2**13301)
    @example(2**26602 + 1)
    def test_bitwise_equal(self, m):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = (str_log10_fracpart(m), str_leading_digit(m))
        finally:
            sys.set_int_max_str_digits(limit)
        assert (per_term.log10_fracpart(m), per_term.leading_digit(m)) == expected

    def test_powers_of_two_past_the_str_limit(self, deadline):
        with deadline(5.0, "log10 parts of 2^1..2^15000"):
            fracs = log_fracparts(2**n for n in range(1, 15_001)).values
            digits = [per_term.leading_digit(2**n) for n in range(1, 15_001)]
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


def two_pass_report(terms):
    """The report as it was built before it read each term once: a census
    pass and a separate pass of log10 fractional parts."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty term stream")
    n = len(terms)
    freq = tuple(c / n for c in per_term.census(terms))
    gap = max(abs(f - b) for f, b in zip(freq, BENFORD_FREQ))
    return BenfordReport(n, freq, BENFORD_FREQ, gap, star_discrepancy(log_fracparts(terms)))


def _report_or_error(terms):
    try:
        return benford_report(terms), two_pass_report(terms)
    except ValueError as exc:
        new = str(exc)
    with pytest.raises(ValueError) as old:
        two_pass_report(terms)
    return new, str(old.value)


class TestFusedBenfordReport:
    @settings(max_examples=300)
    @given(st.lists(huge_terms(), min_size=1, max_size=12))
    def test_equals_two_pass_oracle(self, terms):
        fused, oracle = _report_or_error(terms)
        assert fused == oracle

    @settings(max_examples=100)
    @given(
        st.lists(st.integers(1, 10**30), max_size=8),
        st.integers(-5, 0),
        st.lists(st.integers(1, 10**30), max_size=8),
    )
    def test_nonpositive_term_raises_the_census_message(self, before, bad, after):
        fused, oracle = _report_or_error([*before, bad, *after])
        assert fused == oracle == f"m must be >= 1, got {bad}"

    @pytest.mark.parametrize(
        "terms",
        [range(1, 5001), [7 * n for n in range(1, 3001)], [2**n for n in range(1, 1200)], [10**k for k in range(300)]],
        ids=["naturals", "mult7", "pow2", "powers_of_ten"],
    )
    def test_generated_streams(self, terms):
        fused, oracle = _report_or_error(terms)
        assert fused == oracle

    def test_empty(self):
        assert _report_or_error([]) == ("empty term stream", "empty term stream")


def per_term_report(terms):
    """The report as it was built before the pass was batched: one
    ``leading_digit`` and one ``log10_fracpart`` call per term."""
    counts = [0] * 9
    fracs = []
    for m in terms:
        counts[per_term.leading_digit(m) - 1] += 1
        fracs.append(per_term.log10_fracpart(m))
    n = len(fracs)
    freq = tuple(c / n for c in counts)
    gap = max(abs(f - b) for f, b in zip(freq, BENFORD_FREQ))
    return BenfordReport(n, freq, BENFORD_FREQ, gap, star_discrepancy(PointSet.of(fracs)))


@st.composite
def batch_terms(draw):
    """One term of the kinds the batched pass treats apart."""
    kind = draw(st.sampled_from(["small", "scaled", "nines", "wide", "huge_exact", "huge_zero_head"]))
    if kind == "small":
        return draw(st.integers(1, 10**6))
    if kind == "scaled":  # c * 10^k: the trailing zeros are stripped
        return draw(st.integers(1, 999)) * 10 ** draw(st.integers(0, 40))
    if kind == "nines":  # 9-runs just below 10^15 ... 10^19
        return 10 ** draw(st.integers(15, 19)) - draw(st.integers(1, 20))
    if kind == "wide":  # 17 to 19 digits: read through the 17-digit head
        return draw(st.integers(10**16, 10**19 - 1))
    # past 10^256, where the head is read without str()
    later = draw(st.integers(260, 400))
    head = draw(st.integers(10**16, 10**17 - 1))
    if kind == "huge_exact":
        return head * 10**later
    # a head ending in 0 followed by a nonzero digit: its zeros are kept
    return (head // 10 * 10) * 10**later + draw(st.integers(1, 10**later - 1))


@st.composite
def batch_streams(draw):
    """Streams one term long, around one batch and over several batches:
    consecutive integers from a drawn start, every k-th replaced by a drawn term."""
    n = draw(st.sampled_from([1, 2, _BATCH - 1, _BATCH, _BATCH + 1, 3 * _BATCH + 7]))
    start = draw(st.one_of(
        st.integers(1, 10**6),
        st.integers(10**16 - 2 * _BATCH, 10**16 + 5),
        st.integers(10**17 - 2 * _BATCH, 10**17 + 5),
        st.integers(10**16, 10**19),
    ))
    pool = draw(st.lists(batch_terms(), min_size=1, max_size=12))
    every = draw(st.integers(1, 5))
    return [pool[i // every % len(pool)] if i % every == 0 else start + i for i in range(n)]


class TestBatchedBenfordReport:
    @settings(max_examples=120)
    @given(batch_streams())
    # a head whose log10 differs from that of the head with one more digit 1
    @example([30299863170964240 * 10**300 + 1, 7])
    def test_equals_per_term_oracle(self, terms):
        # repr tells floats apart bit for bit and NumPy scalars from floats
        assert repr(dataclasses.astuple(benford_report(iter(terms)))) == repr(
            dataclasses.astuple(per_term_report(terms))
        )

    def test_log_fracparts_equal_per_term(self):
        terms = [*range(1, _BATCH + 2), 10**16, 10**17 - 1, 2**900, 10**300, 1230 * 10**300 + 1]
        assert log_fracparts(terms).values == tuple(map(per_term.log10_fracpart, terms))

    @pytest.mark.parametrize("position", [0, _BATCH - 1, _BATCH, _BATCH + 1])
    def test_bad_term_stops_the_stream(self, position):
        def stream():
            yield from range(1, position + 1)
            yield 0
            raise AssertionError("read past the bad term")

        with pytest.raises(ValueError, match="m must be >= 1, got 0"):
            benford_report(stream())


class TestBatchedCensus:
    """``census`` counts each term's leading digit as the reports do (``_digit_counts``),
    equal to the per-term census."""

    @settings(max_examples=200)
    @given(st.one_of(st.lists(huge_terms(), min_size=1, max_size=12), batch_streams()))
    def test_equals_the_per_term_census(self, terms):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = per_term.census(terms)
        finally:
            sys.set_int_max_str_digits(limit)
        assert repr(census(iter(terms))) == repr(expected)

    def test_no_mantissas_count_nothing(self):
        assert _digit_counts(np.empty(0, dtype=np.int64)).tolist() == [0] * 9

    def test_rising_run_on_every_digit_edge(self):
        # c 10^e - 1, c 10^e and c 10^e + 1 for every edge below 10^17, ending at 10^17 - 1
        edges = sorted({c * 10**e + d for e in range(17) for c in range(1, 11) for d in (-1, 0, 1)} - {0, 10**17, 10**17 + 1})
        mant = np.array(edges, dtype=np.int64)
        assert edges[-1] == 10**17 - 1
        assert _digit_counts(mant).tolist() == per_term.census(edges)
        # the same edges as a rising run, counted at the grid's digit cuts
        report = _certify(mant[:0], _grid_of(1), _counts_below(_grid_of(1), [mant])[0], lambda a, b: mant[a:b])
        assert report.digit_freq == tuple(c / len(edges) for c in per_term.census(edges))


@st.composite
def cut_cases(draw):
    """(spec, n, count): a family started so that its first term from 10^17
    on, the first one ``_mantissa`` cuts, is term 4095, 4096 or 4097 of the
    stream, or one place off; counts end before, at and after it."""
    if draw(st.booleans()):
        spec = MultipleTail(draw(st.one_of(st.integers(1, 50), st.integers(1, 2 * 10**13))))
    else:
        coeffs = (draw(st.integers(-5, 10**9)), draw(st.integers(-3, 3)), draw(st.integers(1, 4 * 10**9)))
        spec = PolyTail(IntPoly(coeffs))
    cut = draw(st.sampled_from([_BATCH - 1, _BATCH, _BATCH + 1])) + draw(st.integers(-1, 1))
    n = max(spec.n_min, spec.n_min + spec.index_le(10**17 - 1) - cut)
    count = draw(st.one_of(st.sampled_from([cut - 1, cut, cut + 1, 2 * _BATCH + 1]), st.integers(-2, 3)))
    return spec, n, count


class TestFamilyBenfordReport:
    @settings(max_examples=60)
    @given(cut_cases())
    @example((MultipleTail(20000000000000), 1, 6000))  # k*n = 10^17 at n = 5000
    @example((PolyTail(IntPoly((1, 0, 4000000000))), 1, 6000))  # f(5000) = 10^17 + 1
    def test_bitwise_equal_to_the_report_of_the_terms(self, case):
        spec, n, count = case
        terms = list(itertools.islice(spec.terms(n), max(count, 0)))
        assert _report_or_error_of(lambda: family_benford_report(spec, n, count)) == _report_or_error_of(
            lambda: benford_report(terms)
        )

    def test_naturals_across_the_cut(self):
        n = 10**17 - _BATCH
        terms = range(n, n + 2 * _BATCH + 1)
        assert repr(dataclasses.astuple(family_benford_report(ChampernowneTail(), n, len(terms)))) == repr(
            dataclasses.astuple(per_term_report(terms))
        )

    def test_rejects_index_below_n_min(self):
        spec = PolyTail(IntPoly((10, -10, 1)))
        with pytest.raises(DomainError, match="below the sequence domain"):
            family_benford_report(spec, spec.n_min - 1, 10)


def log10_per_term_report(terms):
    """The report as it was built while every logarithm came from
    ``math.log10``, one call per term: mantissas in batches of ``_BATCH``,
    their trailing zeros and guard digits stripped, every leading digit
    counted by ``bincount``, and D* from ``formula_star_discrepancy``."""
    pow10 = 10 ** np.arange(18, dtype=np.int64)
    counts = np.zeros(10, dtype=np.int64)
    parts = []
    terms = iter(terms)
    while (mant := np.fromiter(map(_mantissa, itertools.islice(terms, _BATCH)), dtype=np.int64)).size:
        tens = np.flatnonzero(mant % 10 == 0)
        while tens.size:
            mant[tens] //= 10
            tens = tens[mant[tens] % 10 == 0]
        mant[mant >= 10**17] //= 10
        length = np.searchsorted(pow10, mant, side="right")
        counts += np.bincount(mant // pow10[length - 1], minlength=10)
        logs = np.fromiter(map(math.log10, mant.tolist()), dtype=np.float64, count=mant.size)
        parts.append((logs - (length - 1)) % 1.0)
    if not parts:
        raise ValueError("empty term stream")
    fracs = np.concatenate(parts)
    n = len(fracs)
    freq = tuple(c / n for c in counts[1:].tolist())
    gap = max(abs(f - b) for f, b in zip(freq, BENFORD_FREQ))
    return BenfordReport(n, freq, BENFORD_FREQ, gap, formula_star_discrepancy(PointSet(fracs)))


@st.composite
def near_powers(draw):
    """10^k - 1, 10^k, 10^k + 1 and their neighbours up to 10^19, whose
    {log10} sit at the 0/1 wrap, or 17-19 digit terms around them."""
    k = draw(st.integers(0, 19))
    return max(1, 10**k + draw(st.integers(-3, 3)))


@st.composite
def tie_streams(draw):
    """Streams of 1 to 2 * _BATCH + 1 terms, most of them repeats of a small
    pool (near-powers of ten, 17-19 digit and huge terms), the others
    consecutive integers from a drawn start."""
    pool = draw(st.lists(st.one_of(near_powers(), batch_terms()), min_size=1, max_size=6))
    n = draw(st.sampled_from([1, 2, 3, 50, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1]))
    start = draw(st.one_of(st.integers(1, 10**6), st.integers(10**17 - _BATCH, 10**19)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    share = draw(st.sampled_from([0.5, 0.9, 1.0]))
    return [rng.choice(pool) if rng.random() < share else start + i for i in range(n)]


@st.composite
def family_cases(draw):
    """(spec, n, count): k up to 10^17, or polynomials of degree 1-6 whose
    constant term mostly pushes n_min above 1; a start at n_min, anywhere,
    or so that 10^17 is crossed within the first two batches."""
    if draw(st.booleans()):
        spec = MultipleTail(draw(st.one_of(st.integers(1, 50), st.integers(1, 10**17))))
    else:
        degree = draw(st.integers(1, 6))
        middle = draw(st.lists(st.integers(-20, 20), min_size=degree - 1, max_size=degree - 1))
        spec = PolyTail(IntPoly((draw(st.integers(-10**6, 10)), *middle, draw(st.integers(1, 10**9)))))
    where = draw(st.sampled_from(["n_min", "anywhere", "cross"]))
    if where == "cross":
        cross = spec.n_min + spec.index_le(10**17 - 1)
        n = max(spec.n_min, cross - draw(st.integers(0, 2 * _BATCH + 1)))
    else:
        n = spec.n_min + (draw(st.integers(0, 10**6)) if where == "anywhere" else 0)
    count = draw(st.sampled_from([1, 2, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1]))
    return spec, n, count


class TestCertifiedLogDiscrepancy:
    """Reports whose D* is taken from np.log10 parts, made exact only where
    the ranks could tell, against the report of one math.log10 call per term."""

    @settings(max_examples=150)
    @given(st.one_of(tie_streams(), batch_streams()))
    @example([10**17 - 1] * 3 + [10**17 + 1] * 2)  # both wrap: 17 nines round to 17.0
    @example([99999999999999999, 10000000000000001] * (_BATCH // 2 + 1))
    @example([7] * 100)  # every point ties: each rank's window holds all of them
    @example([int(10 ** (16 + i / 1000)) for i in range(1000)])  # a grid: every rank is near D*
    def test_streams_equal_the_per_term_oracle(self, terms):
        assert repr(dataclasses.astuple(benford_report(iter(terms)))) == repr(
            dataclasses.astuple(log10_per_term_report(terms))
        )

    @settings(max_examples=80)
    @given(family_cases())
    @example((ChampernowneTail(), 1, 85_000))
    @example((MultipleTail(99999999999999999), 1, 2000))  # every term past 10^17, near the wrap
    @example((PolyTail(IntPoly((99999999999999000, 1))), 1, 3000))  # crosses 10^17 at n = 1000
    def test_families_equal_the_per_term_oracle(self, case):
        spec, n, count = case
        assert repr(dataclasses.astuple(family_benford_report(spec, n, count))) == repr(
            dataclasses.astuple(log10_per_term_report(itertools.islice(spec.terms(n), count)))
        )

    @pytest.mark.parametrize(
        "build,most",
        [
            (lambda: family_benford_report(ChampernowneTail(), 1, 85_000), 64),
            (lambda: benford_report(range(1, 85_001)), 64),
            (lambda: benford_report([123456789] * 5000), 5000),
            (lambda: benford_report([10**17 - 1] * 3000 + [99999999999999999 * 10**40] * 3000), 6000),
            # every point lies within 2^-40 of the wrap (the terms cross 10^17 at n = 1000): each takes math.log10 once
            (lambda: family_benford_report(PolyTail(IntPoly((99999999999999000, 1))), 1, 20_000), 20_000),
        ],
        ids=["family-naturals", "naturals", "all-ties", "ties-at-the-wrap", "family-at-the-wrap"],
    )
    def test_math_log10_calls(self, build, most):
        with mock.patch.object(math, "log10", wraps=math.log10) as log10:
            build()
        assert log10.call_count <= most


GRID_SIZES = (1, 2, 4, 16, 64, 256, 1024)


@st.composite
def rising_runs(draw):
    """(run, K, loose): an increasing run of terms below 10^17, a grid of K
    even cuts to count it on, and loose terms.  The runs hold consecutive
    integers, terms spread in log, equal parts across decades (c, 10c,
    100c, ...), clusters on one cut of the grid (ceil(c 10^(e-16)) and its
    neighbours for e = 8..16, whose parts lie within 2^-40 of the cut from
    e = 13 on), terms at the 0/1 wrap (10^e - d and 10^e + d), or a mix."""
    K = draw(st.sampled_from(GRID_SIZES))
    grid = _grid_of(K)
    rng = random.Random(draw(st.integers(0, 2**32)))
    run = set()
    for kind in draw(st.lists(st.sampled_from(["consecutive", "spread", "equal", "cut", "wrap"]), min_size=1, max_size=3)):
        if kind == "consecutive":
            start = draw(st.one_of(st.integers(1, 10**6), st.integers(10**16 - 5000, 10**17 - 1)))
            run.update(range(start, min(start + draw(st.integers(1, 3000)), 10**17)))
        elif kind == "spread":
            run.update(int(10 ** rng.uniform(0, 17)) for _ in range(draw(st.integers(1, 2000))))
        elif kind == "equal":
            run.update(c * 10**e for c in draw(st.lists(st.integers(1, 999), min_size=1, max_size=4)) for e in range(17))
        elif kind == "cut":
            j = draw(st.integers(1, grid.column.shape[1] - 2))
            run.update(
                int(grid.thresholds[grid.column[e, j]]) + d for e in range(8, 17) for d in range(-2, 3) if rng.random() < 0.7
            )
        else:
            run.update(10**e + d for e in range(13, 18) for d in range(-3, 4))
    run = sorted(a for a in run if 1 <= a < 10**17)
    loose = draw(st.lists(st.one_of(batch_terms(), near_powers()), min_size=0 if run else 1, max_size=20))
    return run, K, loose


@st.composite
def gridded_families(draw):
    """(spec, n, count, K): ``family_cases`` on a drawn grid of K even cuts."""
    spec, n, count = draw(family_cases())
    return spec, n, count, draw(st.sampled_from(GRID_SIZES))


class TestCutCertifier:
    """Reports whose terms below 10^17 are counted at integer cuts and
    certified only in the cells that can hold D*, against the report of one
    math.log10 call per term, and D* against the formula over the exact
    parts."""

    @staticmethod
    def check(report, terms):
        assert repr(dataclasses.astuple(report)) == repr(dataclasses.astuple(log10_per_term_report(terms)))
        exact = PointSet.of(per_term.log10_fracpart(a) for a in terms)
        assert repr(report.log_discrepancy) == repr(formula_star_discrepancy(exact))

    @settings(max_examples=150, deadline=None)
    @given(rising_runs(), st.integers(1, 3000))
    @example((sorted(c * 10**e for c in (2, 3) for e in range(17)), 64, []), 5)  # equal parts
    @example((list(range(10**16 - 40, 10**16 + 40)) + [10**17 - 1], 16, [10**17 + 1]), 7)  # at the wrap
    @example((list(range(1, 2000)), 1, []), 100)  # a single cell
    def test_rising_runs_equal_the_per_term_oracle(self, case, size):
        run, K, loose = case
        grid, mant = _grid_of(K), np.array(run, dtype=np.int64)
        below, _ = _counts_below(grid, [mant[i : i + size] for i in range(0, len(mant), size)])
        loose_mant = np.array([_mantissa(a) for a in loose], dtype=np.int64)
        self.check(_certify(loose_mant, grid, below, lambda a, b: mant[a:b]), run + loose)
        self.check(benford_report(iter(run + loose)), run + loose)

    @settings(max_examples=60, deadline=None)
    @given(gridded_families())
    @example((ChampernowneTail(), 1, 65_000, None))  # flat tops: D* can lie in many cells
    @example((ChampernowneTail(), 1, 85_000, None))
    @example((PolyTail(IntPoly((5, -3, 1))), 2, 35_000, None))
    @example((PolyTail(IntPoly((99999999999999000, 1))), 1, 3000, 64))  # crosses 10^17 at n = 1000
    @example((MultipleTail(10**15 + 1), 1, 200, 256))  # from 10^15 + 1 to past 10^17
    @example((ChampernowneTail(), 1, 4000, None))  # a single cell below 2^14 terms
    def test_families_equal_the_per_term_oracle(self, case):
        spec, n, count, K = case
        grid = _grid(count) if K is None else _grid_of(K)
        with mock.patch.object(equidist, "_grid", lambda count: grid):
            report = family_benford_report(spec, n, count)
        self.check(report, list(itertools.islice(spec.terms(n), count)))

    def test_a_rank_of_d_star_on_a_cut(self):
        # ceil(c 10^(e-16)) - 1, ... + 1 for e = 13..16 on one cut of the grid, whose
        # parts lie within 2^-40 of it, and terms spread in log above them: the
        # smallest of the cluster's parts, x_(0), is D*, its fall term
        grid = _grid_of(1024)
        j = int(np.searchsorted(grid.g, 0.3))
        cluster = [int(grid.thresholds[grid.column[e, j]]) + d for e in range(13, 17) for d in (-1, 0, 1)]
        spread = [int(10 ** (16 + grid.g[j] + 0.01 + i / 300)) for i in range(200)]
        run = sorted(set(cluster + spread))
        parts = sorted(per_term.log10_fracpart(a) for a in run)
        assert abs(parts[0] - grid.g[j]) < 2 * _EPS
        mant = np.array(run, dtype=np.int64)
        report = _certify(mant[:0], grid, _counts_below(grid, [mant])[0], lambda a, b: mant[a:b])
        assert report.log_discrepancy == parts[0]
        self.check(report, run)

    def test_a_term_past_the_edge_of_the_cells_left_out(self):
        # 600 terms just below a cut near 0.05 set the lower bound on D*, and 188
        # terms at the bottom of the wide cell u from 0.109 reach just past it,
        # so u is kept and holds D*; a term z just below the threshold of the
        # cut g_(u+1) above has a log part that rounds up to g_(u+1), and the
        # 2211 terms spread above leave every cell from u + 1 on out: z's rank
        # counts none of them
        grid, N = _grid_of(64), 3000
        wide = np.flatnonzero(np.diff(grid.g) > 1 / 128)
        low, u = (int(wide[np.searchsorted(grid.g[wide], y)]) for y in (0.04, 0.1))
        threshold = lambda j: int(grid.thresholds[grid.column[16, j]])
        m1 = math.ceil((0.2 - grid.g[low + 1] + grid.g[u]) * N) - 600 + 1
        z = next(threshold(u + 1) - d for d in range(1, 1000) if per_term.log10_fracpart(threshold(u + 1) - d) >= grid.g[u + 1])
        spread = N - 600 - m1 - 1
        run = sorted(
            [threshold(low + 1) - 1 - i for i in range(600)]
            + [threshold(u) + i for i in range(m1)]
            + [z]
            + [int(10 ** (16 + grid.g[u + 1] + 1 / 32 + i * (0.99 - grid.g[u + 1] - 1 / 32) / spread)) for i in range(spread)]
        )
        mant = np.array(run, dtype=np.int64)
        report = _certify(mant[:0], grid, _counts_below(grid, [mant])[0], lambda a, b: mant[a:b])
        self.check(report, run)
        assert report.log_discrepancy == (600 + m1) / N - per_term.log10_fracpart(threshold(u) + m1 - 1)


# the denominators q of the convergents p/q of log10 2 up to 10^7: there
# {q log10 2} comes closer to the 0/1 wrap than at any smaller q
LOG2_DENOMINATORS = (1, 3, 10, 93, 196, 485, 2136, 13301, 28738, 42039, 70777, 254370, 325147, 6107016, 6432163)


class TestPow2BenfordReport:
    """The report of 2^1, ..., 2^N from fixed-point points against the report
    of the powers themselves, and those points against mpmath."""

    @staticmethod
    def check(N):
        assert repr(dataclasses.astuple(pow2_benford_report(N))) == repr(
            dataclasses.astuple(benford_report(1 << n for n in range(1, N + 1)))
        )

    @settings(max_examples=100)
    @given(st.integers(1, 3000))
    def test_equals_the_report_of_the_powers(self, N):
        self.check(N)

    # n = 1, 2, 3 lie on the digit edges log10 2, 4 and 8; 2^56 < 10^17 <= 2^57,
    # where the mantissa gains its guard digit; and convergent denominators
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 56, 57, 58, 93, 196, 485, 2136])
    def test_pinned_counts(self, N):
        self.check(N)

    def test_fixed_point_constant(self):
        with mpmath.workdps(60):
            assert _LOG10_2_FIXED == int(mpmath.floor(mpmath.log10(2) * 2**128))

    @settings(max_examples=50)
    @given(st.lists(st.integers(1, 10**7), min_size=1, max_size=20))
    @example(list(LOG2_DENOMINATORS))
    @example([2**32 - 1, 1578339557, 1923400330])  # the docstring's bound n < 2^32, and two more denominators
    def test_points_lie_less_than_2_to_the_minus_52_below(self, ns):
        w = _pow2_parts(np.array(ns, dtype=np.uint64)).tolist()
        with mpmath.workdps(60):
            alpha = mpmath.log10(2)
            for n, x in zip(ns, w):
                assert 0.0 <= x < 1.0
                assert 0 < mpmath.frac(mpmath.frac(n * alpha) - x) < mpmath.mpf(2) ** -52, n

    def test_exact_powers_only_where_they_decide(self):
        with mock.patch.object(equidist, "_mantissa", wraps=_mantissa) as mantissa:
            pow2_benford_report(100_000)
        built = sorted(m.bit_length() - 1 for (m,), _ in mantissa.call_args_list)
        assert built[:3] == [1, 2, 3]  # on the digit edges
        assert len(built) == len(set(built)) <= 8
        assert built[-1] < 57  # past 10^17 the head comes from the fixed-point log10 2

    @pytest.mark.parametrize("N", [0, -5])
    def test_no_terms_is_an_empty_stream(self, N):
        with pytest.raises(ValueError, match="empty term stream"):
            pow2_benford_report(N)

    def test_rejects_N_from_2_to_the_32(self):
        with pytest.raises(ValueError, match=r"N < 2\^32"):
            pow2_benford_report(2**32)


def pow2_head_oracle(m):
    """``_mantissa(1 << m)`` for 2^m >= 10^17 from 60-digit mpmath: 10 floor(10^(16 + {m log10 2})) + 1."""
    with mpmath.workdps(60):
        y = mpmath.power(10, 16 + mpmath.frac(m * mpmath.log10(2)))
        assert min(y - mpmath.floor(y), mpmath.ceil(y) - y) > mpmath.mpf(10) ** -30  # the oracle itself is sure
        return 10 * int(mpmath.floor(y)) + 1


class TestPow2Mantissa:
    """The mantissa of 2^m from the 17-digit head 10^(16 + {m log10 2}) against 2^m itself."""

    def test_every_m_to_20000(self):
        power = 1
        for m in range(1, 20_001):
            power <<= 1
            assert _pow2_mantissa(m) == _mantissa(power), m

    @settings(max_examples=60)
    @given(st.one_of(st.integers(57, 10**6), st.integers(10**6, 2**32 - 1)))
    @example(2**32 - 1)
    def test_heads_below_2_to_the_32(self, m):
        assert _pow2_mantissa(m) == (_mantissa(1 << m) if m <= 10**6 else pow2_head_oracle(m))

    def test_the_rank_of_D_star_at_ten_million_builds_no_power(self):
        # 2^9719029 holds D* of 2^1..2^(10^7); its exact mantissa took over a second to divide out
        with mock.patch.object(equidist, "_mantissa", side_effect=AssertionError("2^m was built")):
            assert _pow2_mantissa(9_719_029) == 181020644784451651 == pow2_head_oracle(9_719_029)

    def test_a_head_in_the_band_takes_the_exact_power(self):
        # a band of half a unit holds every value: each head is left to 2^m itself
        with mock.patch.object(equidist, "_HEAD_BAND", decimal.Decimal("0.5")):
            with mock.patch.object(equidist, "_mantissa", wraps=_mantissa) as mantissa:
                got = [_pow2_mantissa(m) for m in (57, 1000, 20_000)]
            assert repr(dataclasses.astuple(pow2_benford_report(3000))) == repr(
                dataclasses.astuple(benford_report(1 << n for n in range(1, 3001)))
            )
        assert [m.bit_length() - 1 for (m,), _ in mantissa.call_args_list[:3]] == [57, 1000, 20_000]
        assert got == [_mantissa(1 << m) for m in (57, 1000, 20_000)]


def from_roots(roots, lead, shift):
    """Coefficients, constant first, of lead * prod(x - r) + shift."""
    coeffs = [lead]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]
    coeffs[0] += shift
    return tuple(coeffs)


@st.composite
def block_cases(draw):
    """(spec, n, bound, sizes): k up to 10^17, or a polynomial of degree 1-6
    with coefficients up to 10^30, mostly built from roots up to 10^5 so
    that n_min > 1 and its differences pass int64 while its terms are still
    small; a start at n_min or so that the run reaches the bound 2^63 or
    10^17 within its reads; read sizes around a block, single terms and
    those of ``_prefix_blocks`` at depth 18: depth - 1 more than a block,
    or than a few points."""
    bound = draw(st.sampled_from([2**63, 10**17]))
    kind = draw(st.sampled_from(["mult", "poly", "roots"]))
    if kind == "mult":
        spec = MultipleTail(draw(st.one_of(st.integers(1, 50), st.integers(1, 10**17))))
    elif kind == "poly":
        degree = draw(st.integers(1, 6))
        coeffs = draw(st.lists(st.integers(-(10**30), 10**30), min_size=degree, max_size=degree))
        spec = PolyTail(IntPoly((*coeffs, draw(st.integers(1, 10**30)))))
    else:
        roots = draw(st.lists(st.integers(-(10**5), 10**5), min_size=1, max_size=6))
        spec = PolyTail(IntPoly(from_roots(roots, draw(st.integers(1, 1000)), draw(st.integers(-50, 50)))))
    size = st.sampled_from([1, 2, 7, 17, 18, 24, _BATCH - 1, _BATCH, _BATCH + 1, _BATCH + 17])
    sizes = draw(st.lists(size, min_size=1, max_size=5))
    n = spec.n_min
    if draw(st.booleans()):
        n = max(n, n + spec.index_le(bound - 1) - draw(st.integers(0, sum(sizes) + 2)))
    return spec, n, bound, sizes


class TestInt64Reader:
    @settings(max_examples=200)
    @given(block_cases())
    @example((PolyTail(IntPoly((9223372036854775000, 1))), 1, 2**63, [_BATCH]))  # 2^63 at n = 808
    @example((MultipleTail(10**17), 1, 10**17, [1, 1]))  # the first term is the bound
    @example((PolyTail(IntPoly(from_roots([10**5] * 6, 1, 1))), 10**5, 2**63, [_BATCH, 7]))
    # the constant 2 10^30 wraps mod 2^64; f(1) = 6 and f(2) = 11 lie below 2^63, f(3) above
    @example((PolyTail(IntPoly((2 * 10**30 + 1, -3 * 10**30 + 5, 10**30))), 1, 2**63, [1, 2]))
    @example((MultipleTail(10**17), 1, 2**63, [7, _BATCH]))  # k n passes 2^63 at n = 93
    @example((PolyTail(IntPoly((0, 0, 0, 1))), 5, 2**63, [1]))  # a single term
    @example((MultipleTail(7), 14285714285714276, 10**17, [10, 1]))  # the first read ends at the bound
    def test_blocks_equal_the_term_stream(self, case):
        spec, n, bound, sizes = case
        _, read = _int64_reader(spec, n, bound, lambda rest: (-(a % 1000) - 1 for a in rest))
        got = np.concatenate([read(j) for j in sizes])
        terms = itertools.islice(spec.terms(n), sum(sizes))
        want = [a if a < bound else -(a % 1000) - 1 for a in terms]
        assert got.dtype == np.int64
        assert got.tolist() == want

    def test_rejects_index_below_n_min(self):
        spec = PolyTail(IntPoly((10, -10, 1)))
        with pytest.raises(DomainError, match="below the sequence domain"):
            _int64_reader(spec, spec.n_min - 1, 2**63, iter)


def _report_or_error_of(build):
    # repr tells floats apart bit for bit and NumPy scalars from floats
    try:
        return repr(dataclasses.astuple(build()))
    except ValueError as exc:
        return str(exc)


@st.composite
def near_rank_values(draw):
    """Exact parts in [0, 1) of the shapes that stress the certification: a
    grid, where every rank is near D*; runs of ties; points at the wrap; and
    clusters a few _EPS apart, so that the bands about the ranks overlap."""
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["grid", "centered", "ties", "wrap", "clusters", "mixed"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "grid":
        return [i / n for i in range(n)]
    if kind == "centered":
        return [(2 * i + 1) / (2 * n) for i in range(n)]
    pool = [rng.random() for _ in range(draw(st.integers(1, 6)))]
    if kind == "ties":
        return [rng.choice(pool) for _ in range(n)]
    if kind == "wrap":
        return [rng.choice([j * _EPS, 1 - (j + 1) * _EPS]) for j in (rng.randint(0, 5) for _ in range(n))]
    if kind == "clusters":
        return [min(max(rng.choice(pool) + rng.randint(-8, 8) * _EPS / 2, 0.0), 0.9) for _ in range(n)]
    return [rng.choice([i / n, rng.choice(pool), rng.randint(0, 3) * _EPS, 1 - rng.randint(1, 3) * _EPS]) for i in range(n)]


class TestOneSort:
    """The certified Benford D* comes out of one sort and one scan of the
    ranks, and is read from the band the certification patched;
    ud_deviation rescales the sorted array; the census of a rising run is
    one search."""

    @settings(max_examples=300)
    @given(near_rank_values(), st.integers(0, 2**32))
    @example([i / 3000 for i in range(3000)], 0)  # every rank attains D*
    @example([0.5] * 1000 + [1 - _EPS / 4] * 1000, 1)  # ties, and ties at the wrap
    @example([0.5] * 7, 2)  # the first and last rank attain D*, and their runs overlap
    def test_banded_points_equal_the_exact_parts(self, values, seed):
        # w is each exact part moved by less than _EPS / 80, wrapped mod 1,
        # as the np.log10 parts are
        exact = np.array(values)
        rng = np.random.default_rng(seed)
        w = (exact + rng.uniform(-_EPS / 100, _EPS / 100, len(exact))) % 1.0
        w = np.minimum(w, math.nextafter(1.0, 0.0))
        parts = lambda idx: exact[idx]
        d_star = _certified_star(_WHOLE, [len(w)], lambda keep: (_unwrap(w, parts), parts))
        # the D* of the runs about the ranks is that of a full scan of the patched w, and of the exact parts
        assert repr(d_star) == repr(star_discrepancy(PointSet(w))) == repr(formula_star_discrepancy(PointSet(exact)))

    @pytest.mark.parametrize(
        "raised,patched",
        [
            ({-1: 1e-6}, [2 * _STAR_BLOCK]),  # D* only in the last block
            ({100: 1e-6, _STAR_BLOCK + 100: 1e-6}, [100, _STAR_BLOCK + 100]),  # two blocks tied at the top
            # the later block higher by less than 4e keeps the earlier one's rank, by more drops it
            ({100: 1e-6, _STAR_BLOCK + 100: 1e-6 + 2 * _EPS}, [100, _STAR_BLOCK + 100]),
            ({100: 1e-6, _STAR_BLOCK + 100: 1e-6 + 8 * _EPS}, [_STAR_BLOCK + 100]),
        ],
        ids=["last", "tied", "within", "beyond"],
    )
    def test_d_star_past_one_block(self, raised, patched):
        # a centered grid, where every D* term is 1/(2n), in three blocks of
        # ranks; a raised point lifts its fall term by as much, stays in
        # order, and is the only point within 2e of a rank that attains D*
        n = 2 * _STAR_BLOCK + 1
        exact = (2 * np.arange(n) + 1) / (2 * n)
        for i, lift in raised.items():
            exact[i] += lift
        w = exact + np.random.default_rng(0).uniform(-_EPS / 100, _EPS / 100, n)
        asked = []
        parts = lambda idx: asked.extend(idx.tolist()) or exact[idx]
        d_star = _certified_star(_WHOLE, [n], lambda keep: (_unwrap(w, parts), parts))
        assert asked == patched
        assert repr(d_star) == repr(star_discrepancy(PointSet(w))) == repr(formula_star_discrepancy(PointSet(exact)))

    @settings(max_examples=80)
    @given(family_cases())
    @example((PolyTail(IntPoly((99999999999999000, 1))), 1, 3000))  # crosses 10^17 at n = 1000
    @example((MultipleTail(10**16), 1, 2 * _BATCH + 1))  # 10^16, 2 10^16, ..., past 10^17 at n = 10
    @example((ChampernowneTail(), 10**17 - 50, 50))  # the run ends at 10^17 - 1
    @example((ChampernowneTail(), 10**17 - 50, 100))  # and crosses it
    def test_rising_census_equals_bincount(self, case):
        spec, n, count = case
        terms = list(itertools.islice(spec.terms(n), count))
        run = np.array([a for a in terms if a < 10**17], dtype=np.int64)
        assert run.tolist() == terms[: len(run)] and (run[1:] > run[:-1]).all()
        grid = _grid_of(64)
        below, last = _counts_below(grid, [run[i : i + 1000] for i in range(0, len(run), 1000)])
        # the counts below every threshold of the run's decades, one search of the whole run
        decades = slice(len(str(terms[0])) - 1, len(str(terms[len(run) - 1]))) if len(run) else slice(0, 1)
        assert below.tolist() == np.searchsorted(run, grid.thresholds[grid.column[decades]]).tolist()
        assert last.tolist() == run[(len(run) - 1) // 1000 * 1000 :].tolist()
        mant = np.array([_mantissa(a) for a in terms], dtype=np.int64)
        pow10 = 10 ** np.arange(18, dtype=np.int64)
        counts = np.bincount(mant // pow10[np.searchsorted(pow10, mant, side="right") - 1], minlength=10)[1:]
        assert family_benford_report(spec, n, count).digit_freq == tuple(c / count for c in counts.tolist())

    @settings(max_examples=200)
    @given(
        st.sampled_from([("0", "1"), ("0.1", "1"), ("0.1", "0.9"), ("0.25", "0.2501"), ("0.3333", "0.77777")]),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300),
        st.integers(0, 3),
    )
    def test_ud_deviation_equals_rescale_then_sort(self, window, fractions, repeat):
        alpha, beta = (ExactEndpoint.parse(x) for x in window)
        a, b = float(alpha.value()), float(beta.value())
        # points spread over [a, b), with a itself and the floats just below b
        v = np.minimum(a + np.array(fractions * (1 + repeat)) * (b - a), math.nextafter(b, 0.0))
        v[::7] = a
        points = PointSet(v)
        old = np.minimum((points.array - a) / (b - a), np.nextafter(1.0, 0.0))
        assert repr(ud_deviation(points, alpha, beta)) == repr(formula_star_discrepancy(PointSet(old)))

    @pytest.mark.parametrize(
        "build,most",
        [
            # a family's terms below 10^17 are certified only in the cells that can hold D*
            (lambda: family_benford_report(ChampernowneTail(), 1, 85_000), 8_500),
            (lambda: family_benford_report(PolyTail(IntPoly((41, 1, 1))), 1, 85_000), 8_500),
            # loose points are certified all together
            (lambda: benford_report(range(1, 20_001)), None),
            (lambda: pow2_benford_report(15_000), None),
        ],
        ids=["naturals", "poly", "file", "pow2"],
    )
    def test_a_report_scans_its_ranks_once(self, build, most):
        with mock.patch.object(equidist, "_star_blocks", wraps=equidist._star_blocks) as blocks:
            with mock.patch.object(equidist, "star_discrepancy") as second_pass:
                report = build()
        assert blocks.call_count == 1 and not second_pass.called
        if most is None:
            assert len(blocks.call_args.args[0]) == report.N
        else:
            assert len(blocks.call_args.args[0]) <= most

    @pytest.mark.parametrize(
        "argv,most",
        [
            (["benford", "--gen", "naturals", "--N", "85000"], 8_500),
            (["benford", "--gen", "poly", "--coeffs", "41,1,1", "--N", "85000"], 8_500),
            (["benford", "--gen", "pow2", "--N", "4000"], None),
            (["discrepancy", "--kind", "champ", "--N", "27500"], None),
            (["discrepancy", "--kind", "mult", "--k", "7", "--N", "10000", "--alpha", "0"], None),
        ],
        ids=["benford-naturals", "benford-poly", "benford-pow2", "discrepancy-champ", "discrepancy-mult"],
    )
    def test_np_sort_runs_once_per_report(self, capsys, argv, most):
        from concat_equidist.cli import main

        assert main(argv) == 0  # builds the grid of cuts, which is kept
        # the certification's band is sorted in place, over the few points near the ranks
        with mock.patch.object(np, "sort", wraps=np.sort) as sort, mock.patch.object(np, "log10", wraps=np.log10) as log10:
            assert main(argv) == 0
        capsys.readouterr()
        sorted_sizes = [len(c.args[0]) for c in sort.call_args_list]
        if most is None:
            assert sorted_sizes == [int(argv[argv.index("--N") + 1])]
        else:
            # a family's log parts are taken and sorted only in the cells that can hold D*
            assert len(sorted_sizes) == 1 and sorted_sizes[0] <= most
            assert sum(len(c.args[0]) for c in log10.call_args_list) <= most
