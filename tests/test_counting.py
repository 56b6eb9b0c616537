from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from concat_equidist import counting
from concat_equidist.asymptotics import lemma1_main_term
from concat_equidist.counting import (
    UndecidedMembershipError,
    _membership_stream,
    count_A,
    default_max_digits,
    in_interval,
)
from concat_equidist.equidist import census, leading_digit
from concat_equidist.exactnum import (
    DigitString,
    ExactEndpoint,
    HalfOpenInterval,
    PrefixOrder,
    compare_prefix,
    digit_length,
    int_to_digits,
)
from concat_equidist.seqgen import (
    ChampernowneTail,
    IntPoly,
    MultipleTail,
    PolyTail,
    tail_digits,
    term,
)

CHAMP = ChampernowneTail()
I12 = HalfOpenInterval.parse("0.1", "0.2")
FULL = HalfOpenInterval.parse("0", "1")
FAMILIES = [CHAMP, MultipleTail(3), PolyTail(IntPoly((0, 0, 1)))]


def brute_member(spec, n, lo: str, hi: str) -> bool:
    # independent oracle: build a long decimal-string prefix of x_n and compare
    # it as a rational against the terminating endpoints
    s = ""
    offset = 0
    while len(s) < 40:
        s += str(term(spec, n, offset))
        offset += 1
    p = 40
    x_scaled = int(s[:p])  # x_n ~ x_scaled / 10^p, truncation < 10^-p

    def scaled(endpoint: str) -> int:
        frac = endpoint.split(".")[1] if "." in endpoint else ""
        return int((frac + "0" * p)[:p]) if endpoint.startswith("0") else 10**p

    return scaled(lo) <= x_scaled < scaled(hi)


class TestLeadingDigit:
    @pytest.mark.parametrize("m,expected", [(19, 1), (2 * 10**6, 2), (45 * 45, 2)])
    def test_examples(self, m, expected):
        assert leading_digit(m, 10) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            leading_digit(0, 10)

    def test_other_base(self):
        assert leading_digit(255, 16) == 15
        assert leading_digit(255, 2) == 1


class TestInInterval:
    def test_champ_20_examples(self):
        assert in_interval(CHAMP, 20, HalfOpenInterval.parse("0.2", "0.3"), 64)
        assert not in_interval(CHAMP, 20, I12, 64)

    def test_multiple_example(self):
        # x_4 of the 3n family is 0.1215182124...
        assert in_interval(MultipleTail(3), 4, I12, 64)

    @pytest.mark.parametrize("spec", FAMILIES)
    @pytest.mark.parametrize("n", [1, 7, 19, 99, 123])
    def test_agrees_with_string_oracle(self, spec, n):
        for lo, hi in [("0.1", "0.2"), ("0.15", "0.35"), ("0.2", "1"), ("0", "0.5")]:
            interval = HalfOpenInterval.parse(lo, hi)
            expected = brute_member(spec, n, lo, hi)
            assert in_interval(spec, n, interval) == expected

    def test_undecided_raises_with_prefix(self):
        # endpoint equal to a long prefix of x_1 starves the comparison
        lo = ExactEndpoint.parse("0." + "12345678910111213141516")
        interval = HalfOpenInterval(lo, ExactEndpoint.parse("0.9"))
        with pytest.raises(UndecidedMembershipError) as exc:
            in_interval(CHAMP, 1, interval, max_digits=20)
        assert len(exc.value.prefix) == 20

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            in_interval(ChampernowneTail(base=2), 1, I12)


class TestCountA:
    def test_champ_20(self):
        res = count_A(CHAMP, I12, 20)
        assert res.count == 11
        assert res.ratio == 0.55

    def test_champ_200(self):
        assert count_A(CHAMP, I12, 200).count == 111

    def test_full_interval(self):
        for spec in FAMILIES:
            assert count_A(spec, FULL, 150).count == 150

    def test_no_leading_zero(self):
        low = HalfOpenInterval.parse("0", "0.1")
        for spec in FAMILIES:
            assert count_A(spec, low, 1000).count == 0

    def test_brute_force_oracle_small(self):
        expected = sum(brute_member(CHAMP, n, "0.1", "0.2") for n in range(1, 21))
        assert expected == 11
        assert count_A(CHAMP, I12, 20).count == expected

    def test_digit_partition(self):
        for spec in FAMILIES:
            N = 500
            total = sum(
                count_A(spec, HalfOpenInterval.parse(f"0.{c}", "1" if c == 9 else f"0.{c + 1}"), N).count
                for c in range(1, 10)
            )
            assert total == N

    def test_additivity(self):
        prev = 0
        for N in range(1, 80):
            cur = count_A(CHAMP, I12, N).count
            assert cur - prev in (0, 1)
            prev = cur

    def test_slow_path_matches_fast_path(self):
        for spec in FAMILIES:
            assert count_A(spec, I12, 300, fast=False).count == count_A(spec, I12, 300).count

    def test_closed_form_at_huge_N(self):
        # indices 1 .. 2*10^j with leading digit 1: sum of 10^i for i = 0..j
        assert count_A(CHAMP, I12, 2 * 10**100).count == lemma1_main_term(1, 100)

    def test_rejects_bad_N(self):
        with pytest.raises(ValueError):
            count_A(CHAMP, I12, 0)

    def test_poly_counts_from_n_min(self):
        spec = PolyTail(IntPoly((10, -10, 1)))
        res = count_A(spec, FULL, 50)
        assert res.count == 50  # indices anchored at n_min, all values valid


def _outcome(fn):
    try:
        return fn()
    except UndecidedMembershipError as exc:
        return ("undecided", exc.prefix)


@st.composite
def _specs(draw, base, huge=False):
    """A family in ``base``; with ``huge``, k and the constant term may have
    30-40 digits, so that the first term can be longer than any endpoint."""
    kind = draw(st.sampled_from(["champ", "mult", "poly"]))
    big = st.integers(10**30, 10**40) if huge else st.nothing()
    if kind == "champ":
        return ChampernowneTail(base)
    if kind == "mult":
        return MultipleTail(draw(st.integers(1, 10**18) | big), base)
    degree = draw(st.integers(1, 3))
    constant = draw(st.integers(-60, 5) | big)  # mostly negative, so that n_min > 1
    middle = draw(st.lists(st.integers(-20, 20), min_size=degree - 1, max_size=degree - 1))
    return PolyTail(IntPoly((constant, *middle, draw(st.integers(1, 4)))), base)


def _endpoint(base, digits):
    digits = list(digits)
    while digits and digits[-1] == 0:
        digits.pop()
    return ExactEndpoint(base, tuple(digits))


@st.composite
def _cases(draw, max_n, max_len=5, max_budget=24, min_len=0, huge=False):
    """(spec, interval, N or index, max_digits), endpoints of min_len-max_len
    digits before trailing zeros are dropped.

    Some endpoints are prefixes of tail values in range, so that narrow
    intervals still catch members.
    """
    base = draw(st.integers(2, 16))
    spec = draw(_specs(base, huge))
    n = draw(st.integers(1, max_n))

    def endpoint():
        choice = draw(st.sampled_from(["one", "digits", "prefix"]))
        if choice == "one":
            return ExactEndpoint(base, (), is_one=True)
        if choice == "digits":
            digits = st.lists(st.integers(0, base - 1), min_size=min_len, max_size=max_len)
            return _endpoint(base, draw(digits))
        m = spec.n_min + draw(st.integers(0, n - 1))
        return _endpoint(base, tail_digits(spec, m, draw(st.integers(max(min_len, 1), max_len))).digits)

    a, b = endpoint(), endpoint()
    if a == b:
        a = ExactEndpoint(base)
        if a == b:
            b = ExactEndpoint(base, (), is_one=True)
    lo, hi = (a, b) if a < b else (b, a)
    max_digits = draw(st.one_of(st.none(), st.integers(1, max_budget)))
    return spec, HalfOpenInterval(lo, hi), n, max_digits


def _decade(spec, n):
    return digit_length(term(spec, n, 0), spec.base)


class TestClosedFormMatchesOracle:
    @settings(max_examples=500)
    @given(_cases(max_n=1500))
    def test_count_A(self, case):
        spec, interval, N, max_digits = case
        fast = _outcome(lambda: count_A(spec, interval, N, max_digits))
        oracle = _outcome(lambda: count_A(spec, interval, N, max_digits, fast=False))
        assert fast == oracle

    # endpoints of 9-30 digits: terms shorter than them tie with their
    # prefixes, and the default budget 4e + 16 runs out below 21 digits
    @settings(max_examples=300)
    @given(_cases(max_n=1500, max_len=30, max_budget=40, min_len=9, huge=True))
    def test_count_A_long_endpoints(self, case):
        spec, interval, N, max_digits = case
        fast = _outcome(lambda: count_A(spec, interval, N, max_digits))
        oracle = _outcome(lambda: count_A(spec, interval, N, max_digits, fast=False))
        assert fast == oracle

    @settings(max_examples=200)
    @given(st.integers(2, 16).flatmap(_specs), st.integers(0, 30), st.integers(1, 14), st.integers(1, 300), st.booleans())
    def test_undecided_in_a_short_decade(self, spec, i, extra, N, as_lo):
        # an endpoint that is a prefix of x_m longer than m's budget 4e + 16
        m = spec.n_min + i
        endpoint = _endpoint(spec.base, tail_digits(spec, m, 4 * _decade(spec, m) + 16 + extra).digits)
        edge = ExactEndpoint(spec.base, (), is_one=as_lo)
        interval = HalfOpenInterval(endpoint, edge) if as_lo else HalfOpenInterval(edge, endpoint)
        fast = _outcome(lambda: count_A(spec, interval, N))
        assert fast == _outcome(lambda: count_A(spec, interval, N, fast=False))

    @settings(max_examples=300)
    @given(_cases(max_n=1500, max_len=30, max_budget=40, min_len=9, huge=True))
    def test_at_most_two_streamed_indices_per_decade_below_L(self, case):
        spec, interval, N, max_digits = case
        L = interval.window[0]
        if max_digits is not None and max_digits < L:
            max_digits = L
        with mock.patch.object(counting, "_membership_stream", wraps=counting._membership_stream) as stream:
            _outcome(lambda: count_A(spec, interval, N, max_digits))
        decades = Counter(_decade(spec, c.args[1]) for c in stream.call_args_list)
        assert all(e < L and calls <= 2 for e, calls in decades.items())

    @pytest.mark.parametrize(
        "lo,hi,ties",
        [
            # x_1 = 0.123456789101..., x_12 = 0.1213..., x_123 = 0.123124...
            ("0.123456789", "0.12345679", [1, 12, 123, 1234, 12345, 123456, 1234567]),
            ("0.1", "0.123456789", [1, 12, 123, 1234, 12345, 123456, 1234567]),
            # lo_k = hi_k = 12 at e = 2 with both endpoints longer: one tie
            ("0.121", "0.122", [1, 12]),
            ("0.0123", "0.5", []),  # lo_k has fewer than e digits: no tie
        ],
    )
    def test_ties_are_the_endpoint_prefixes(self, lo, hi, ties):
        interval = HalfOpenInterval.parse(lo, hi)
        with mock.patch.object(counting, "_membership_stream", wraps=counting._membership_stream) as stream:
            count_A(CHAMP, interval, 10**7)
        assert [c.args[1] for c in stream.call_args_list] == ties
        assert count_A(CHAMP, interval, 3000) == count_A(CHAMP, interval, 3000, fast=False)

    @pytest.mark.parametrize("max_digits", [None, 9, 12, 40])
    def test_first_term_longer_than_the_endpoints(self, max_digits):
        # a 31-digit k, and f(2) = 10^31 - 2 with n_min = 2: every decade is at or above L
        for spec in (MultipleTail(10**30 + 7), PolyTail(IntPoly((10**31, -3, 1)))):
            interval = HalfOpenInterval.parse("0.100000000000000000000000000003", "0.31622776601683793319988935444")
            fast = _outcome(lambda: count_A(spec, interval, 2000, max_digits))
            assert fast == _outcome(lambda: count_A(spec, interval, 2000, max_digits, fast=False))

    # stop = n_min + N with a_{stop-1} = 10^e - 1 or 10^e
    @pytest.mark.parametrize(
        "spec,N",
        [
            (CHAMP, 99), (CHAMP, 100), (CHAMP, 999), (CHAMP, 1000),
            (MultipleTail(9), 111), (MultipleTail(5), 200),
            (PolyTail(IntPoly((0, 0, 1))), 3), (PolyTail(IntPoly((0, 0, 1))), 100),
            (PolyTail(IntPoly((-5, 1))), 99), (PolyTail(IntPoly((-5, 1))), 1000),
        ],
    )
    @pytest.mark.parametrize(
        "lo,hi", [("0.1", "0.2"), ("0.123", "0.1231"), ("0.99", "1"), ("0.09", "0.1"), ("0", "0.1")]
    )
    def test_decade_boundaries(self, spec, N, lo, hi):
        assert term(spec, spec.n_min + N - 1, 0) in (9, 99, 999, 100, 1000, 10**4)
        interval = HalfOpenInterval.parse(lo, hi)
        assert count_A(spec, interval, N) == count_A(spec, interval, N, fast=False)


def digit_list_stream(spec, n, interval, max_digits):
    """The membership stream before it kept its prefix as an integer: a
    DigitString rebuilt per term and compared with ``compare_prefix``."""
    base = spec.base
    buf = ""
    lo_state = PrefixOrder.UNDECIDED
    hi_state = PrefixOrder.UNDECIDED
    offset = 0
    while len(buf) < max_digits:
        buf += str(int_to_digits(term(spec, n, offset), base))
        offset += 1
        prefix = DigitString(base, buf[:max_digits])
        if lo_state is PrefixOrder.UNDECIDED:
            lo_state = compare_prefix(prefix, interval.lo)
        if hi_state is PrefixOrder.UNDECIDED:
            hi_state = compare_prefix(prefix, interval.hi)
        if lo_state is PrefixOrder.DEFINITELY_LESS:
            return False, len(prefix)
        if hi_state is PrefixOrder.DEFINITELY_GREATER_OR_EQUAL:
            return False, len(prefix)
        if (
            lo_state is PrefixOrder.DEFINITELY_GREATER_OR_EQUAL
            and hi_state is PrefixOrder.DEFINITELY_LESS
        ):
            return True, len(prefix)
    raise UndecidedMembershipError(DigitString(base, buf[:max_digits]), interval)


class TestIntegerStreamMatchesDigitList:
    @settings(max_examples=600)
    @given(_cases(max_n=3000, max_len=8, max_budget=30))
    def test_same_outcome_and_digits_used(self, case):
        spec, interval, i, max_digits = case
        n = spec.n_min + i - 1
        budget = max_digits if max_digits is not None else default_max_digits(spec, n)
        new = _outcome(lambda: _membership_stream(spec, n, interval, budget))
        old = _outcome(lambda: digit_list_stream(spec, n, interval, budget))
        assert new == old

    @settings(max_examples=300)
    @given(
        st.integers(2, 16).flatmap(_specs),
        st.integers(1, 500),
        st.integers(1, 12),
        st.integers(1, 14),
        st.booleans(),
    )
    def test_endpoint_on_the_tail(self, spec, i, length, budget, as_lo):
        # an endpoint that is a prefix of x_n itself is undecided below its length
        n = spec.n_min + i - 1
        endpoint = _endpoint(spec.base, tail_digits(spec, n, length).digits)
        edge = ExactEndpoint(spec.base, (), is_one=as_lo)
        if endpoint == edge:
            return
        interval = HalfOpenInterval(endpoint, edge) if as_lo else HalfOpenInterval(edge, endpoint)
        new = _outcome(lambda: _membership_stream(spec, n, interval, budget))
        old = _outcome(lambda: digit_list_stream(spec, n, interval, budget))
        assert new == old

    @pytest.mark.parametrize("max_digits", [0, -1])
    def test_empty_budget_is_undecided_with_empty_prefix(self, max_digits):
        with pytest.raises(UndecidedMembershipError) as exc:
            _membership_stream(CHAMP, 1, I12, max_digits)
        assert exc.value.prefix == DigitString(10, "")


class TestDigitBudget:
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("max_digits", [0, -1])
    def test_nonpositive_budget_is_rejected_by_both(self, max_digits, fast):
        message = f"max_digits must be >= 1, got {max_digits}"
        with pytest.raises(ValueError, match=message):
            count_A(CHAMP, I12, 20, max_digits, fast=fast)
        with pytest.raises(ValueError, match=message):
            in_interval(CHAMP, 1, I12, max_digits)

    def test_one_digit_budget_decides_a_one_digit_interval(self):
        assert count_A(CHAMP, I12, 20, max_digits=1).count == 11
        assert in_interval(CHAMP, 1, I12, max_digits=1)


class TestFirstDigitReduction:
    @pytest.mark.parametrize("spec", FAMILIES)
    def test_single_digit_intervals_reduce_to_leading_digit(self, spec):
        for c in range(1, 10):
            hi = "1" if c == 9 else f"0.{c + 1}"
            interval = HalfOpenInterval.parse(f"0.{c}", hi)
            for n in range(1, 400):
                assert in_interval(spec, n, interval) == (
                    leading_digit(term(spec, n, 0), 10) == c
                )


class TestCensus:
    def test_first_twenty_naturals(self):
        counts = census(range(1, 21), 10)
        assert counts[0] == 11
        assert sum(counts) == 20

    def test_constant_stream(self):
        assert census([5] * 7, 10) == [0, 0, 0, 0, 7, 0, 0, 0, 0]

    def test_powers_of_ten(self):
        assert census([10**i for i in range(6)], 10)[0] == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            census([], 10)
