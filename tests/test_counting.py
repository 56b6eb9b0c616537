from collections import Counter
from functools import partial
from itertools import pairwise
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import every_index
from per_term import leading_digit
from concat_equidist import counting
from concat_equidist.counting import (
    UndecidedMembershipError,
    _cells,
    _rank,
    count_A,
    default_max_digits,
)
from concat_equidist.equidist import census
from concat_equidist.exactnum import (
    _DIGIT_CHARS,
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
    lemma1_main_term,
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
        s += str(term(spec, n + offset))
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
        assert census([m]) == [int(c == expected) for c in range(1, 10)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
            census([0])


class TestInInterval:
    def test_champ_20_examples(self):
        assert every_index.in_interval(CHAMP, 20, HalfOpenInterval.parse("0.2", "0.3"))
        assert not every_index.in_interval(CHAMP, 20, I12)

    def test_multiple_example(self):
        # x_4 of the 3n family is 0.1215182124...
        assert every_index.in_interval(MultipleTail(3), 4, I12)

    @pytest.mark.parametrize("spec", FAMILIES)
    @pytest.mark.parametrize("n", [1, 7, 19, 99, 123])
    def test_agrees_with_string_oracle(self, spec, n):
        for lo, hi in [("0.1", "0.2"), ("0.15", "0.35"), ("0.2", "1"), ("0", "0.5")]:
            interval = HalfOpenInterval.parse(lo, hi)
            expected = brute_member(spec, n, lo, hi)
            assert every_index.in_interval(spec, n, interval) == expected

    def test_undecided_raises_with_index_and_prefix(self):
        # endpoint equal to a 23-digit prefix of x_1 starves x_1's budget 4 + 16
        lo = ExactEndpoint.parse("0." + "12345678910111213141516")
        interval = HalfOpenInterval(lo, ExactEndpoint.parse("0.9"))
        with pytest.raises(UndecidedMembershipError) as exc:
            every_index.in_interval(CHAMP, 1, interval)
        assert exc.value.n == 1
        assert exc.value.prefix == DigitString(10, "12345678910111213141")
        assert str(exc.value) == (
            f"membership of x_1 in {interval} undecided after 20 digits (prefix 0.12345678910111213141)"
        )

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            every_index.in_interval(ChampernowneTail(base=2), 1, I12)


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

    def test_every_index_matches_the_walk(self):
        for spec in FAMILIES:
            assert every_index.count_A(spec, I12, 300).count == count_A(spec, I12, 300).count

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
        return ("undecided", exc.n, exc.prefix)


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
    """The endpoint 0.<digits> of a base-b digit text."""
    return ExactEndpoint.parse("0." + digits, base)


@st.composite
def _cases(draw, max_n, max_len=5, max_budget=24, min_len=0, huge=False):
    """(spec, interval, N or index, digit budget or None), endpoints of
    min_len-max_len digits before trailing zeros are dropped.

    Some endpoints are prefixes of tail values in range, so that narrow
    intervals still catch members.
    """
    base = draw(st.integers(2, 16))
    spec = draw(_specs(base, huge))
    n = draw(st.integers(1, max_n))

    def endpoint():
        choice = draw(st.sampled_from(["one", "digits", "prefix"]))
        if choice == "one":
            return ExactEndpoint(base, 0, 1)
        if choice == "digits":
            return _endpoint(base, draw(st.text(_DIGIT_CHARS[:base], min_size=min_len, max_size=max_len)))
        m = spec.n_min + draw(st.integers(0, n - 1))
        return _on_tail(spec, m, draw(st.integers(max(min_len, 1), max_len)))

    a, b = endpoint(), endpoint()
    if a == b:
        a = ExactEndpoint(base, 0, 0)
        if a == b:
            b = ExactEndpoint(base, 0, 1)
    lo, hi = (a, b) if a < b else (b, a)
    budget = draw(st.one_of(st.none(), st.integers(1, max_budget)))
    return spec, HalfOpenInterval(lo, hi), n, budget


def _decade(spec, n):
    return digit_length(term(spec, n), spec.base)


@st.composite
def _walks(draw, cases):
    """(spec, interval, cuts, stops): the cuts lo and hi, and 1-4 ascending stops up to a case's N."""
    spec, interval, N, _ = draw(cases)
    stops = sorted(draw(st.lists(st.integers(1, N), min_size=1, max_size=4)))
    return spec, interval, [interval.lo, interval.hi], stops


def _on_tail(spec, m, length):
    """The endpoint of x_m's first ``length`` digits."""
    return _endpoint(spec.base, tail_digits(spec, m, length).text)


@st.composite
def _grids(draw, max_n=1000):
    """(spec, interval, cuts, stops): 2-8 ascending cuts, the interval from
    the first to the last, and 1-4 ascending stops up to ``max_n``.

    A cut is 0, 1, random digits, or a prefix of a tail value in range:
    short, or of 9-40 digits, which can outlast the budget 4e + 16 of the
    terms it ties.  The prefixes are of at most three tail values, so that
    one term often ties several cuts.
    """
    base = draw(st.integers(2, 16))
    spec = draw(_specs(base, huge=draw(st.booleans())))
    stops = sorted(draw(st.lists(st.integers(1, max_n), min_size=1, max_size=4)))
    tails = draw(st.lists(st.integers(spec.n_min, spec.n_min + stops[-1] - 1), min_size=1, max_size=3))

    def cut():
        choice = draw(st.sampled_from(["zero", "one", "digits", "prefix", "long"]))
        if choice in ("zero", "one"):
            return ExactEndpoint(base, 0, int(choice == "one"))
        if choice == "digits":
            return _endpoint(base, draw(st.text(_DIGIT_CHARS[:base], max_size=6)))
        m = draw(st.sampled_from(tails))
        return _on_tail(spec, m, draw(st.integers(1, 8) if choice == "prefix" else st.integers(9, 40)))

    cuts = {cut() for _ in range(draw(st.integers(2, 8)))}
    if len(cuts) < 2:
        cuts |= {ExactEndpoint(base, 0, 0), ExactEndpoint(base, 0, 1)}
    cuts = sorted(cuts)
    return spec, HalfOpenInterval(cuts[0], cuts[-1]), cuts, stops


# x_12 = 0.1213..., x_4 = 0.1215... (3n) and x_4 = 0.1625... (n^2): endpoints of
# 26 digits on them outlast the budget 4 * 2 + 16 below the last stop
_SQUARE = PolyTail(IntPoly((0, 0, 1)))
_UNDECIDED_WALKS = [
    (spec, interval, [interval.lo, interval.hi], stops)
    for spec, interval, stops in [
        (CHAMP, HalfOpenInterval(_on_tail(CHAMP, 12, 26), ExactEndpoint(10, 0, 1)), [5, 12, 13, 40]),
        (MultipleTail(3), HalfOpenInterval(ExactEndpoint(10, 0, 0), _on_tail(MultipleTail(3), 4, 26)), [3, 4, 50]),
        (_SQUARE, HalfOpenInterval(_on_tail(_SQUARE, 4, 26), ExactEndpoint.parse("0.2")), [2, 10]),
    ]
]
# 0.100, ..., 0.999, 1
_GRID = [ExactEndpoint.parse(f"0.{c}") for c in range(100, 1000)] + [ExactEndpoint.parse("1")]


class TestClosedFormMatchesOracle:
    @settings(max_examples=500)
    @given(_cases(max_n=1500))
    def test_count_A(self, case):
        spec, interval, N, _ = case
        fast = _outcome(lambda: count_A(spec, interval, N))
        oracle = _outcome(lambda: every_index.count_A(spec, interval, N))
        assert fast == oracle

    # endpoints of 9-30 digits: terms shorter than them tie with their
    # prefixes, and the default budget 4e + 16 runs out below 21 digits
    @settings(max_examples=300)
    @given(_cases(max_n=1500, max_len=30, max_budget=40, min_len=9, huge=True))
    def test_count_A_long_endpoints(self, case):
        spec, interval, N, _ = case
        fast = _outcome(lambda: count_A(spec, interval, N))
        oracle = _outcome(lambda: every_index.count_A(spec, interval, N))
        assert fast == oracle

    @settings(max_examples=600)
    @given(
        _walks(_cases(max_n=1000) | _cases(max_n=1000, max_len=30, max_budget=40, min_len=9, huge=True))
        | _grids()
    )
    @example(_UNDECIDED_WALKS[0])
    @example(_UNDECIDED_WALKS[1])
    @example(_UNDECIDED_WALKS[2])
    def test_one_walk_counts_every_stop(self, walk):
        # the F differences, digits consulted and first undecided index of the
        # oracle at each stop, on an interval's two endpoints or on a grid
        spec, interval, cuts, stops = walk
        oracle = _outcome(lambda: [every_index.cells(spec, interval, cuts, N) for N in stops])
        assert _outcome(lambda: _cells(spec, interval, cuts, stops)) == oracle

    @pytest.mark.parametrize("spec,interval,cuts,stops", _UNDECIDED_WALKS)
    def test_pinned_walks_are_undecided(self, spec, interval, cuts, stops):
        with pytest.raises(UndecidedMembershipError):
            _cells(spec, interval, cuts, stops)

    @pytest.mark.parametrize("spec,decades", [(_SQUARE, 61), (CHAMP, 31)])
    def test_astronomical_N_costs_one_index_le_per_cut_and_decade(self, spec, decades, deadline):
        # the grid at N = 10^30: a_N = 10^60 for n^2 and 10^30 for champ
        N, interval = 10**30, HalfOpenInterval(_GRID[0], _GRID[-1])
        index_le = type(spec).index_le
        with deadline(10.0, "901 cuts at N = 10^30, one walk and a count per cell"):
            with mock.patch.object(type(spec), "index_le", autospec=True, side_effect=index_le) as calls:
                [(cells, _)] = _cells(spec, interval, _GRID, [N])
            assert calls.call_count == len(_GRID) * decades
            per_cell = [count_A(spec, HalfOpenInterval(lo, hi), N).count for lo, hi in pairwise(_GRID)]
        assert [b - a for a, b in pairwise(cells)] == per_cell
        assert cells[-1] == N

    @settings(max_examples=200)
    @given(st.integers(2, 16).flatmap(_specs), st.integers(0, 30), st.integers(1, 14), st.integers(1, 300), st.booleans())
    def test_undecided_in_a_short_decade(self, spec, i, extra, N, as_lo):
        # an endpoint that is a prefix of x_m longer than m's budget 4e + 16
        m = spec.n_min + i
        endpoint = _on_tail(spec, m, 4 * _decade(spec, m) + 16 + extra)
        edge = ExactEndpoint(spec.base, 0, int(as_lo))
        interval = HalfOpenInterval(endpoint, edge) if as_lo else HalfOpenInterval(edge, endpoint)
        fast = _outcome(lambda: count_A(spec, interval, N))
        assert fast == _outcome(lambda: every_index.count_A(spec, interval, N))

    @settings(max_examples=300)
    @given(_cases(max_n=1500, max_len=30, max_budget=40, min_len=9, huge=True))
    def test_at_most_two_streamed_indices_per_decade_below_L(self, case):
        # each index is streamed once, against the endpoints it ties: each
        # endpoint c ties at most one index per decade, and only below len(c)
        spec, interval, N, _ = case
        with mock.patch.object(counting, "_rank", wraps=counting._rank) as stream:
            _outcome(lambda: count_A(spec, interval, N))
        indices = [c.args[1] for c in stream.call_args_list]
        assert len(set(indices)) == len(indices)
        ties = Counter(
            (_decade(spec, c.args[1]), cut) for c in stream.call_args_list for cut in c.args[3]
        )
        assert all(e < length and calls == 1 for (e, (length, _)), calls in ties.items())
        assert max(Counter(map(partial(_decade, spec), indices)).values(), default=0) <= 2

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
        with mock.patch.object(counting, "_rank", wraps=counting._rank) as stream:
            count_A(CHAMP, interval, 10**7)
        # an index tied to both endpoints (x_1 in the first two rows) is streamed once
        assert [c.args[1] for c in stream.call_args_list] == ties
        assert count_A(CHAMP, interval, 3000) == every_index.count_A(CHAMP, interval, 3000)

    def test_first_term_longer_than_the_endpoints(self):
        # a 31-digit k, and f(2) = 10^31 - 2 with n_min = 2: every decade is at or above L
        for spec in (MultipleTail(10**30 + 7), PolyTail(IntPoly((10**31, -3, 1)))):
            interval = HalfOpenInterval.parse("0.100000000000000000000000000003", "0.31622776601683793319988935444")
            fast = _outcome(lambda: count_A(spec, interval, 2000))
            assert fast == _outcome(lambda: every_index.count_A(spec, interval, 2000))

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
        assert term(spec, spec.n_min + N - 1) in (9, 99, 999, 100, 1000, 10**4)
        interval = HalfOpenInterval.parse(lo, hi)
        assert count_A(spec, interval, N) == every_index.count_A(spec, interval, N)


def _member(spec, n, interval, budget):
    """(lo <= x_n < hi, digits used), from one ``_rank`` against both endpoints."""
    r, used = _rank(spec, n, interval, every_index.as_pairs([interval.lo, interval.hi]), budget)
    return r == 1, used


def digit_list_stream(spec, n, interval, max_digits):
    """The membership stream before it kept its prefix as an integer: a
    DigitString rebuilt per term and compared with ``compare_prefix``."""
    base = spec.base
    buf = ""
    lo_state = PrefixOrder.UNDECIDED
    hi_state = PrefixOrder.UNDECIDED
    offset = 0
    while len(buf) < max_digits:
        buf += str(int_to_digits(term(spec, n + offset), base))
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
    raise UndecidedMembershipError(n, DigitString(base, buf[:max_digits]), interval)


class TestIntegerStreamMatchesDigitList:
    @settings(max_examples=600)
    @given(_cases(max_n=3000, max_len=8, max_budget=30))
    def test_same_outcome_and_digits_used(self, case):
        spec, interval, i, budget = case
        n = spec.n_min + i - 1
        if budget is None:
            budget = default_max_digits(spec, n)
        new = _outcome(lambda: _member(spec, n, interval, budget))
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
        endpoint = _on_tail(spec, n, length)
        edge = ExactEndpoint(spec.base, 0, int(as_lo))
        if endpoint == edge:
            return
        interval = HalfOpenInterval(endpoint, edge) if as_lo else HalfOpenInterval(edge, endpoint)
        new = _outcome(lambda: _member(spec, n, interval, budget))
        old = _outcome(lambda: digit_list_stream(spec, n, interval, budget))
        assert new == old


class TestFirstDigitReduction:
    @pytest.mark.parametrize("spec", FAMILIES)
    def test_single_digit_intervals_reduce_to_leading_digit(self, spec):
        for c in range(1, 10):
            hi = "1" if c == 9 else f"0.{c + 1}"
            interval = HalfOpenInterval.parse(f"0.{c}", hi)
            for n in range(1, 400):
                assert every_index.in_interval(spec, n, interval) == (
                    leading_digit(term(spec, n)) == c
                )


class TestCensus:
    def test_first_twenty_naturals(self):
        counts = census(range(1, 21))
        assert counts[0] == 11
        assert sum(counts) == 20

    def test_constant_stream(self):
        assert census([5] * 7) == [0, 0, 0, 0, 7, 0, 0, 0, 0]

    def test_powers_of_ten(self):
        assert census([10**i for i in range(6)])[0] == 6

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^empty term stream$"):
            census([])
