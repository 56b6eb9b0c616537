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
    _DIGIT_CHARS,
    _INT_CHUNK,
    _read_int,
    decimal_int,
    digit_length,
    digit_text,
    int_to_digits,
)


def brute_digits(n, base):
    # independent oracle: repeated division, collected LSB-first
    out = []
    while n:
        out.append(_DIGIT_CHARS[n % base])
        n //= base
    return "".join(reversed(out))


class TestIntToDigits:
    def test_single_digit(self):
        assert str(int_to_digits(1, 10)) == "1"

    def test_twenty(self):
        assert str(int_to_digits(20, 10)) == "20"

    def test_hex_255(self):
        assert str(int_to_digits(255, 16)) == brute_digits(255, 16) == "ff"

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
        assert str(int_to_digits(n, base)) == brute_digits(n, base)


@st.composite
def _long_ints(draw):
    """(n, base): n of up to 3000 digits, often b^m or b^m - 1, whose low halves are all 0 or b - 1."""
    base = draw(st.integers(2, 36))
    m = draw(st.integers(1, 3000))
    n = draw(st.sampled_from([base**m, base**m - 1, draw(st.integers(1, base**m))]))
    return n, base


class TestDigitText:
    @settings(max_examples=300)
    @given(_long_ints())
    @example((10**600, 10))
    @example((7**5000 - 1, 7))
    def test_matches_one_divmod_per_digit(self, case):
        n, base = case
        # one division per digit, as digit_text wrote every long term before it split them
        assert digit_text(n, base) == brute_digits(n, base)


class TestDigitString:
    def test_holds_its_digits_as_text(self):
        ds = DigitString(16, "1f0")
        assert (ds.base, str(ds), len(ds), ds.text) == (16, "1f0", 3, "1f0")
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
        assert ExactEndpoint.parse("0.1") == ExactEndpoint(10, 1, 1)
        assert ExactEndpoint.parse("0.250") == ExactEndpoint(10, 2, 25)
        assert ExactEndpoint.parse("0") == ExactEndpoint(10, 0, 0)
        assert ExactEndpoint.parse("1") == ExactEndpoint.parse("1.0") == ExactEndpoint(10, 0, 1)
        assert ExactEndpoint.parse("0.0Z", 36) == ExactEndpoint(36, 2, 35)

    def test_parse_canonicalizes(self):
        assert ExactEndpoint.parse("0.10") == ExactEndpoint.parse("0.1")

    @pytest.mark.parametrize("bad", ["1.5", "2", "0.1x", "", "-0.1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            ExactEndpoint.parse(bad)

    def test_no_trailing_zeros(self):
        with pytest.raises(ValueError, match="not in lowest terms"):
            ExactEndpoint(10, 2, 10)

    def test_one_has_no_digits(self):
        with pytest.raises(ValueError, match="not in lowest terms"):
            ExactEndpoint(10, 1, 10)

    def test_values(self):
        assert ExactEndpoint.parse("0.25").value() == Fraction(1, 4)
        assert ExactEndpoint.parse("1").value() == 1
        assert ExactEndpoint.parse("0").value() == 0

    @given(
        st.lists(st.integers(0, 9), max_size=6),
        st.lists(st.integers(0, 9), max_size=6),
    )
    def test_order_agrees_with_rationals(self, a, b):
        mk = lambda ds: ExactEndpoint.parse("0." + "".join(map(str, ds)))
        frac = lambda ds: sum(Fraction(d, 10 ** (i + 1)) for i, d in enumerate(ds))
        assert (mk(a) < mk(b)) == (frac(a) < frac(b))


@st.composite
def _endpoint_pairs(draw, base):
    """Two canonical endpoints of one base: 0, 1, digit strings, and extensions
    of each other (the cases where padding decides the order)."""
    fracs = st.text(_DIGIT_CHARS[:base], max_size=6)
    texts = st.sampled_from(["0", "1"]) | fracs.map("0.".__add__)
    a = draw(texts)
    b = "0." + a[2:] + draw(fracs) if a != "1" and draw(st.booleans()) else draw(texts)
    pair = (ExactEndpoint.parse(a, base), ExactEndpoint.parse(b, base))
    return pair if draw(st.booleans()) else pair[::-1]


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


def _with_value(base, length, scaled):
    """The endpoint of the pair, and its value as a Fraction."""
    return ExactEndpoint(base, length, scaled), Fraction(scaled, base**length)


@st.composite
def _long_endpoints(draw, base, max_length=300):
    """(c, value): 0, 1, or c = scaled / b^length of up to ``max_length``
    digits, built from the pair, never from text."""
    length = draw(st.integers(0, max_length))
    if not length:
        return _with_value(base, 0, draw(st.integers(0, 1)))
    scaled = draw(st.integers(1, base**length - 1))
    return _with_value(base, length, scaled + (scaled % base == 0))  # a last digit 0 becomes 1


@st.composite
def _long_endpoint_pairs(draw, base):
    """Two endpoints of ``_long_endpoints``, the second often the first with up to 20 digits appended."""
    a, b = draw(_long_endpoints(base)), draw(_long_endpoints(base))
    c = a[0]
    if c.length and draw(st.booleans()):
        k = draw(st.integers(1, 20))
        scaled = c.scaled * base**k + draw(st.integers(1, base**k - 1))
        b = _with_value(base, c.length + k, scaled + (scaled % base == 0))
    return a, b


class TestEndpointForm:
    """The pair (length, scaled) against texts and Fractions: bases 2-36, up to 300 digits, 0 and 1."""

    @settings(max_examples=300)
    @given(st.integers(2, 36).flatmap(_long_endpoints))
    def test_parse_of_str_is_the_endpoint(self, case):
        e, _ = case
        assert ExactEndpoint.parse(str(e), e.base) == e

    @settings(max_examples=300)
    @given(st.integers(2, 36), st.data())
    def test_str_of_parse_is_the_canonical_text(self, base, data):
        digits = data.draw(st.text(_DIGIT_CHARS[:base], max_size=300)).rstrip("0")
        e = ExactEndpoint.parse("0." + digits + "0" * data.draw(st.integers(0, 3)), base)
        assert (e.length, e.scaled) == (len(digits), int(digits or "0", base))
        assert str(e) == ("0." + digits if digits else "0")

    @settings(max_examples=300)
    @given(st.integers(2, 36).flatmap(_long_endpoint_pairs))
    def test_order_matches_fractions(self, pair):
        (a, x), (b, y) = pair
        assert (a < b, a <= b, b < a, b <= a) == (x < y, x <= y, y < x, y <= x)

    @settings(max_examples=300)
    @given(st.integers(2, 36), st.integers(-2, 40), st.data())
    def test_constructor_takes_only_lowest_terms_in_0_1(self, base, length, data):
        top = base ** max(length, 0)
        scaled = data.draw(st.integers(-2, top + 2) | st.integers(-1, top // base + 1).map(lambda q: q * base))
        if length >= 0 and 0 <= scaled <= top and (length == 0 or scaled % base):
            assert ExactEndpoint(base, length, scaled).value() == Fraction(scaled, top)
        else:
            with pytest.raises(ValueError, match=r"outside \[0, 1\]|not in lowest terms"):
                ExactEndpoint(base, length, scaled)


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

    @settings(max_examples=500)
    @given(
        st.integers(2, 36).flatmap(lambda b: st.tuples(_long_endpoints(b, 30), st.text(_DIGIT_CHARS[:b], max_size=35))),
        st.integers(0, 35),
        st.booleans(),
    )
    def test_decides_when_every_extension_lies_on_one_side(self, case, m, own):
        (c, value), text = case
        if own:  # the endpoint's own first m digits, so that p = floor(c b^m)
            text = (str(c)[2:] + "0" * m)[:m]
        base, m = c.base, len(text)
        low = Fraction(int(text or "0", base), base**m)  # the extensions fill [low, low + b^-m)
        if low + Fraction(1, base**m) <= value:
            expected = PrefixOrder.DEFINITELY_LESS
        else:
            expected = PrefixOrder.DEFINITELY_GREATER_OR_EQUAL if low >= value else PrefixOrder.UNDECIDED
        assert compare_prefix(DigitString(base, text), c) is expected

    @given(
        st.lists(st.integers(0, 9), min_size=1, max_size=8),
        st.lists(st.integers(0, 9), min_size=0, max_size=6),
        st.integers(0, 9),
    )
    def test_extension_never_flips(self, prefix, endpoint_digits, extra):
        e = ExactEndpoint.parse("0." + "".join(map(str, endpoint_digits)))
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

    @settings(max_examples=200)
    @given(st.integers(2, 36), st.integers(0, 8), st.integers(-2, 2), st.randoms(use_true_random=False))
    def test_read_int_is_int_around_the_chunk_lengths(self, base, chunks, delta, rng):
        # the halves split the text at every length; the oracle is int() with
        # the str-digit limit lifted, _read_int runs under the default limit
        digits = "".join(rng.choice(_DIGIT_CHARS[:base]) for _ in range(max(chunks * _INT_CHUNK + delta, 0)))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = int(digits or "0", base)
        finally:
            sys.set_int_max_str_digits(limit)
        assert _read_int(digits, base) == expected

    def test_500000_digits_in_under_a_second(self, deadline):
        # one multiply of the growing value per 640-digit piece took 2 s
        text = "7" * 500_000
        with deadline(1.0, "decimal_int of 500 000 digits"):
            value = decimal_int(text)
        assert value == 7 * (10**500_000 - 1) // 9

    def test_sign_of_a_zero_high_part(self):
        # the high part "-0" reads as 0, so the sign comes from the text
        assert decimal_int(" -0" + "5" * 5000 + " ") == -(5 * (10**5000 - 1) // 9)
