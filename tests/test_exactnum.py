import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from concat_equidist.exactnum import (
    DigitString,
    ExactEndpoint,
    HalfOpenInterval,
    PrefixOrder,
    compare_prefix,
    digit_length,
    digits_to_int,
    int_to_digits,
)


def brute_digits(n, base):
    # independent oracle: repeated division, collected LSB-first
    out = []
    while n:
        out.append(n % base)
        n //= base
    return tuple(reversed(out))


class TestIntToDigits:
    def test_single_digit(self):
        assert int_to_digits(1, 10).digits == (1,)

    def test_twenty(self):
        assert int_to_digits(20, 10).digits == (2, 0)

    def test_hex_255(self):
        assert int_to_digits(255, 16).digits == brute_digits(255, 16) == (15, 15)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            int_to_digits(0, 10)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            int_to_digits(5, 1)
        with pytest.raises(ValueError):
            int_to_digits(5, 37)

    @given(st.integers(1, 10**12), st.sampled_from([2, 10, 16]))
    def test_round_trip(self, n, base):
        assert digits_to_int(int_to_digits(n, base)) == n

    @given(st.integers(1, 10**12), st.sampled_from([2, 10, 16]))
    def test_matches_oracle(self, n, base):
        assert int_to_digits(n, base).digits == brute_digits(n, base)


class TestDigitLength:
    @pytest.mark.parametrize("n,base,expected", [(9, 10, 1), (10, 10, 2), (10**6, 10, 7)])
    def test_examples(self, n, base, expected):
        assert digit_length(n, base) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            digit_length(0, 10)

    @given(st.integers(1, 10**15), st.sampled_from([2, 10, 16]))
    def test_equals_expansion_length(self, n, base):
        assert digit_length(n, base) == len(int_to_digits(n, base))

    def test_near_powers_of_ten(self):
        # the floating-log shortcut misclassifies these
        for k in range(1, 20):
            assert digit_length(10**k, 10) == k + 1
            assert digit_length(10**k - 1, 10) == k
            assert digit_length(10**k + 1, 10) == k + 1


class TestExactEndpoint:
    def test_parse_basic(self):
        assert ExactEndpoint.parse("0.1").digits == (1,)
        assert ExactEndpoint.parse("0").digits == ()
        assert ExactEndpoint.parse("1").is_one
        assert ExactEndpoint.parse("1.0").is_one

    def test_parse_canonicalizes(self):
        assert ExactEndpoint.parse("0.10") == ExactEndpoint.parse("0.1")

    @pytest.mark.parametrize("bad", ["1.5", "2", "0.1x", "", "-0.1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ExactEndpoint.parse(bad)

    def test_no_trailing_zeros(self):
        with pytest.raises(ValueError):
            ExactEndpoint(10, (1, 0))

    def test_one_has_no_digits(self):
        with pytest.raises(ValueError):
            ExactEndpoint(10, (5,), is_one=True)

    def test_values(self):
        assert ExactEndpoint.parse("0.25").value() == Fraction(1, 4)
        assert ExactEndpoint.parse("1").value() == 1
        assert ExactEndpoint.parse("0").value() == 0

    @given(
        st.lists(st.integers(0, 9), max_size=6),
        st.lists(st.integers(0, 9), max_size=6),
    )
    def test_order_agrees_with_rationals(self, a, b):
        def mk(ds):
            t = tuple(ds)
            while t and t[-1] == 0:
                t = t[:-1]
            return ExactEndpoint(10, t)

        ea, eb = mk(a), mk(b)
        frac = lambda e: sum(Fraction(d, 10 ** (i + 1)) for i, d in enumerate(e.digits))
        assert (ea < eb) == (frac(ea) < frac(eb))


@st.composite
def _endpoint_pairs(draw, base):
    """Two canonical endpoints of one base: 0, 1, digit strings, and extensions
    of each other (the cases where padding decides the order)."""

    def canonical(digits):
        digits = tuple(digits)
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        return ExactEndpoint(base, digits)

    digit_lists = st.lists(st.integers(0, base - 1), max_size=6)

    def endpoint():
        choice = draw(st.sampled_from(["zero", "one", "digits"]))
        if choice == "zero":
            return ExactEndpoint(base)
        if choice == "one":
            return ExactEndpoint(base, (), is_one=True)
        return canonical(draw(digit_lists))

    a = endpoint()
    if draw(st.booleans()) and not a.is_one:
        b = canonical(a.digits + tuple(draw(digit_lists)))
    else:
        b = endpoint()
    return (a, b) if draw(st.booleans()) else (b, a)


class TestEndpointOrder:
    @settings(max_examples=500)
    @given(st.integers(2, 36).flatmap(_endpoint_pairs))
    def test_order_matches_values(self, pair):
        a, b = pair
        assert (a < b) == (a.value() < b.value())
        assert (a <= b) == (a.value() <= b.value())

    @given(
        st.tuples(st.integers(2, 36), st.integers(2, 36)).filter(lambda bases: bases[0] != bases[1]),
        st.data(),
    )
    def test_different_bases_raise(self, bases, data):
        a = data.draw(_endpoint_pairs(bases[0]))[0]
        b = data.draw(_endpoint_pairs(bases[1]))[0]
        with pytest.raises(ValueError, match="different bases"):
            a < b
        with pytest.raises(ValueError, match="different bases"):
            a <= b


class TestComparePrefix:
    def test_definitely_less(self):
        p = DigitString(10, (1, 9))
        assert compare_prefix(p, ExactEndpoint.parse("0.2")) is PrefixOrder.DEFINITELY_LESS

    def test_definitely_greater_or_equal(self):
        p = DigitString(10, (2, 0))
        e = ExactEndpoint.parse("0.2")
        assert compare_prefix(p, e) is PrefixOrder.DEFINITELY_GREATER_OR_EQUAL

    def test_undecided(self):
        p = DigitString(10, (1,))
        assert compare_prefix(p, ExactEndpoint.parse("0.15")) is PrefixOrder.UNDECIDED

    def test_against_one(self):
        assert compare_prefix(DigitString(10, (9, 9)), ExactEndpoint.parse("1")) is (
            PrefixOrder.DEFINITELY_LESS
        )

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            compare_prefix(DigitString(16, (1,)), ExactEndpoint.parse("0.1", base=10))

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=8),
        st.lists(st.integers(0, 9), min_size=0, max_size=6),
        st.integers(0, 9),
    )
    def test_extension_never_flips(self, prefix, endpoint_digits, extra):
        t = tuple(endpoint_digits)
        while t and t[-1] == 0:
            t = t[:-1]
        e = ExactEndpoint(10, t)
        before = compare_prefix(DigitString(10, tuple(prefix)), e)
        after = compare_prefix(DigitString(10, tuple(prefix) + (extra,)), e)
        if before is not PrefixOrder.UNDECIDED:
            assert after is before


class TestHalfOpenInterval:
    def test_requires_lo_lt_hi(self):
        with pytest.raises(ValueError):
            HalfOpenInterval.parse("0.2", "0.2")
        with pytest.raises(ValueError):
            HalfOpenInterval.parse("0.3", "0.2")

    def test_str(self):
        assert str(HalfOpenInterval.parse("0.1", "0.2")) == "[0.1,0.2)"

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            HalfOpenInterval(ExactEndpoint.parse("0.1", 10), ExactEndpoint.parse("0.2", 16))
