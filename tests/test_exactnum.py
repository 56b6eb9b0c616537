import re
import sys
from fractions import Fraction

import pytest

from hypothesis import example, given, settings, strategies as st

from concat_equidist.exactnum import (
    _POW10_STEP,
    DigitString,
    ExactEndpoint,
    HalfOpenInterval,
    PrefixOrder,
    compare_prefix,
    decimal_head,
    STR_BELOW,
    decimal_int,
    digit_length,
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
        assert int(str(int_to_digits(n, base)), base) == n

    # past STR_BELOW no base converts through str()
    @given(st.one_of(st.integers(1, 10**12), st.integers(STR_BELOW, 10**400)), st.integers(2, 36))
    def test_matches_oracle(self, n, base):
        assert int_to_digits(n, base).digits == brute_digits(n, base)


class TestDigitString:
    def test_holds_its_digits_as_text(self):
        ds = DigitString(16, "1f0")
        assert (ds.base, str(ds), len(ds), ds.digits) == (16, "1f0", 3, (1, 15, 0))
        assert ds == int_to_digits(0x1F0, 16) != DigitString(10, "1")

    @pytest.mark.parametrize(
        "base,text,shown",
        [(10, "1a", "10"), (2, "0120", "2"), (16, "fg", "16"), (36, "z!", "'!'"), (10, "9A", "'A'"), (10, "1\u00e9", "'\u00e9'")],
    )
    def test_rejects_a_bad_character_or_digit(self, base, text, shown):
        with pytest.raises(ValueError, match=f"^digit {re.escape(shown)} out of range for base {base}$"):
            DigitString(base, text)


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

    @given(st.integers(2, 36), st.integers(1, 3000), st.sampled_from((-1, 0, 1)))
    @example(3, 2966, -1)  # bits log_3(2) = 2966.0008, the nearest to an integer for e <= 3000
    def test_near_powers_against_the_division_loop(self, base, e, delta):
        n = base**e + delta
        length, m = 0, n
        while m:
            m //= base
            length += 1
        assert digit_length(n, base) == length


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
        p = DigitString(10, "19")
        assert compare_prefix(p, ExactEndpoint.parse("0.2")) is PrefixOrder.DEFINITELY_LESS

    def test_definitely_greater_or_equal(self):
        p = DigitString(10, "20")
        e = ExactEndpoint.parse("0.2")
        assert compare_prefix(p, e) is PrefixOrder.DEFINITELY_GREATER_OR_EQUAL

    def test_undecided(self):
        p = DigitString(10, "1")
        assert compare_prefix(p, ExactEndpoint.parse("0.15")) is PrefixOrder.UNDECIDED

    def test_against_one(self):
        assert compare_prefix(DigitString(10, "99"), ExactEndpoint.parse("1")) is (
            PrefixOrder.DEFINITELY_LESS
        )

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            compare_prefix(DigitString(16, "1"), ExactEndpoint.parse("0.1", base=10))

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
        text = "".join(map(str, prefix))
        before = compare_prefix(DigitString(10, text), e)
        after = compare_prefix(DigitString(10, text + str(extra)), e)
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

    @pytest.mark.parametrize(
        "lo,hi,base,window",
        [
            ("0.1", "0.2", 10, (1, 1, 2)),
            ("0.123", "0.1231", 10, (4, 1230, 1231)),
            ("0", "0.1", 10, (1, 0, 1)),
            ("0.9", "1", 10, (1, 9, 10)),
            ("0", "1", 10, (1, 0, 10)),
            ("0.101", "0.11", 2, (3, 5, 6)),
        ],
    )
    def test_window(self, lo, hi, base, window):
        interval = HalfOpenInterval.parse(lo, hi, base)
        assert interval.window == window
        assert interval.window is interval.window  # computed once per interval
        assert interval == HalfOpenInterval.parse(lo, hi, base)  # the cache is not a field


def str_decimal_head(m):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        s = str(m)
    finally:
        sys.set_int_max_str_digits(limit)
    return len(s), s[:17], not s[17:].strip("0")


# runs of terms that share a digit count, as consecutive powers of two do, and
# c * 10^k, whose later digits are all zero
head_runs = st.lists(
    st.one_of(
        st.integers(1, 6000).map(lambda b: 2**b),
        st.tuples(st.integers(1, 10**20), st.integers(0, 3000)).map(lambda t: t[0] * 10 ** t[1]),
        st.tuples(st.integers(250, 3000), st.integers(-5, 5)).map(lambda t: 10 ** t[0] + t[1]),
    ),
    min_size=1,
    max_size=30,
)


class TestDecimalHead:
    """The powers of ten kept between calls never change an answer, whichever
    order the terms come in."""

    @settings(max_examples=150)
    @given(head_runs, st.sampled_from(["increasing", "decreasing", "as drawn"]))
    def test_equals_str_oracle_in_any_order(self, ms, order):
        if order != "as drawn":
            ms = sorted(ms, reverse=order == "decreasing")
        ms = [m for m in ms for _ in range(3)]  # repeated terms hit the kept powers
        assert [decimal_head(m) for m in ms] == [str_decimal_head(m) for m in ms]

    @pytest.mark.parametrize("step", [1, _POW10_STEP, _POW10_STEP + 1])
    def test_digit_counts_growing_by_a_step(self, step):
        # a power within _POW10_STEP of the last is built from it, a farther one afresh
        ms = [7 * 10 ** (300 + step * i) + i for i in range(40)]
        assert [decimal_head(m) for m in ms] == [str_decimal_head(m) for m in ms]

    def test_consecutive_powers_of_two(self):
        ms = [2**b for b in range(850, 4000)]
        assert [decimal_head(m) for m in ms] == [str_decimal_head(m) for m in ms]
        assert [decimal_head(m) for m in reversed(ms)] == [str_decimal_head(m) for m in reversed(ms)]


@st.composite
def int_literals(draw):
    """Texts around a digit run of up to 6000 digits: whitespace that int()
    takes or refuses, signs, single and double underscores, non-ASCII digits
    and stray characters, at drawn places."""
    block = draw(st.text("0123456789", min_size=1, max_size=12))
    body = (block * (6000 // len(block) + 1))[: draw(st.integers(1, 6000))]
    if draw(st.booleans()):  # grouped like 1_000_000
        group = draw(st.integers(1, 4))
        body = "_".join(body[i : i + group] for i in range(0, len(body), group))
    body = list(body)
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from(["_", "__", " ", "x", "\u0663", "-"])))
    space = st.sampled_from(["", " ", "\t\n", "\xa0", "\x1c"])
    return draw(space) + draw(st.sampled_from(["", "+", "-", "+-"])) + "".join(body) + draw(space)


def _int_or_error(read, text):
    try:
        return read(text)
    except ValueError:
        return "refused"


class TestDecimalInt:
    @settings(max_examples=300)
    @given(int_literals())
    def test_takes_what_int_takes_at_any_length(self, text):
        # the oracle is int() with the str-digit limit lifted; decimal_int
        # runs under the default limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = _int_or_error(int, text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert _int_or_error(decimal_int, text) == expected

    @pytest.mark.parametrize("sign", ["", "-", "+"])
    def test_5000_digits_under_the_default_limit(self, sign):
        text = sign + "9" * 5000
        with pytest.raises(ValueError, match="Exceeds the limit"):
            int(text)
        assert decimal_int(text) == int(sign + "1") * (10**5000 - 1)

    def test_sign_of_a_zero_high_part(self):
        # the high part "-0" reads as 0, so the sign comes from the text
        assert decimal_int(" -0" + "5" * 5000 + " ") == -(5 * (10**5000 - 1) // 9)
