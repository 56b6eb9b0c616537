import pytest

from hypothesis import given, settings, strategies as st

from concat_equidist.seqgen import (
    ChampernowneTail,
    DomainError,
    IntPoly,
    MultipleTail,
    PolyTail,
    tail_digits,
    term,
)

NSQ = IntPoly((0, 0, 1))


def concat_oracle(values, p):
    # independent oracle: string concatenation of the terms, truncated
    s = ""
    i = 0
    while len(s) < p:
        s += str(values[i])
        i += 1
    return s[:p]


class TestTerm:
    def test_champernowne(self):
        assert term(ChampernowneTail(), 20, 0) == 20

    def test_multiple(self):
        assert term(MultipleTail(3), 5, 2) == 21

    def test_poly(self):
        assert term(PolyTail(NSQ), 4, 1) == 25

    def test_below_n_min(self):
        shifted = IntPoly((10, -10, 1))  # n^2 - 10n + 10, decreasing at first
        spec = PolyTail(shifted)
        with pytest.raises(DomainError):
            term(spec, spec.n_min - 1, 0)

    def test_negative_offset(self):
        with pytest.raises(DomainError):
            term(ChampernowneTail(), 5, -1)


class TestTailDigits:
    def test_champ_from_20(self):
        assert str(tail_digits(ChampernowneTail(), 20, 12)) == "202122232425"

    def test_champ_from_1(self):
        assert str(tail_digits(ChampernowneTail(), 1, 10)) == "1234567891"

    def test_poly_squares(self):
        assert str(tail_digits(PolyTail(NSQ), 1, 9)) == "149162536"

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            tail_digits(ChampernowneTail(), 1, 0)

    @given(st.integers(1, 500), st.integers(1, 40))
    def test_matches_concat_oracle(self, n, p):
        got = str(tail_digits(ChampernowneTail(), n, p))
        assert got == concat_oracle(list(range(n, n + p + 1)), p)

    @given(st.integers(1, 300), st.integers(1, 30))
    def test_multiple_of_one_degenerates_to_champernowne(self, n, p):
        assert tail_digits(MultipleTail(1), n, p) == tail_digits(ChampernowneTail(), n, p)

    @settings(max_examples=60)
    @given(st.integers(1, 200), st.integers(1, 30), st.sampled_from(["champ", "mult", "poly"]))
    def test_prefix_stability(self, n, p, kind):
        spec = {"champ": ChampernowneTail(), "mult": MultipleTail(7), "poly": PolyTail(NSQ)}[kind]
        shorter = tail_digits(spec, n, p).digits
        longer = tail_digits(spec, n, p + 1).digits
        assert longer[:p] == shorter

    def test_base_parametric(self):
        # champ tail in base 2 starting at 1: 1, 10, 11, 100, ...
        assert str(tail_digits(ChampernowneTail(base=2), 1, 8)) == "11011100"


class TestIntPoly:
    def test_eval_examples(self):
        assert NSQ.eval(12) == 144
        assert IntPoly((1, 0, 0, 2)).eval(10) == 2001
        assert IntPoly((0, 1)).eval(7) == 7

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            IntPoly((5,))

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError):
            IntPoly((0, 0, -1))
        with pytest.raises(ValueError):
            IntPoly((3, 0))

    def test_parse(self):
        assert IntPoly.parse("0,0,1") == NSQ
        assert IntPoly.parse(" 1, 0, 0, 2 ").coeffs == (1, 0, 0, 2)
        with pytest.raises(ValueError):
            IntPoly.parse("0,a")

    def test_n_min_trivial(self):
        assert NSQ.n_min == 1
        assert IntPoly((0, 1)).n_min == 1

    def test_n_min_shifted(self):
        poly = IntPoly((10, -10, 1))  # n^2 - 10n + 10
        m = poly.n_min
        assert poly.eval(m) >= 1
        assert poly.eval(m + 1) > poly.eval(m)
        # certification is tight: the index just below violates a condition
        assert poly.eval(m - 1) < 1 or poly.eval(m) <= poly.eval(m - 1)

    @pytest.mark.parametrize("coeffs", [(0, 0, 1), (10, -10, 1), (0, -5, 0, 2), (-100, 1)])
    def test_n_min_certifies_monotone_growth(self, coeffs):
        poly = IntPoly(coeffs)
        values = [poly.eval(n) for n in range(poly.n_min, poly.n_min + 200)]
        assert values[0] >= 1
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(st.integers(1, 50), st.integers(0, 20))
    def test_poly_terms_strictly_increasing_in_offset(self, n, offset):
        spec = PolyTail(NSQ)
        assert term(spec, n, offset + 1) > term(spec, n, offset)


class TestIndexLe:
    @given(
        st.sampled_from(
            [ChampernowneTail(), MultipleTail(7), MultipleTail(10**18), PolyTail(NSQ),
             PolyTail(IntPoly((10, -10, 1))), PolyTail(IntPoly((-5, 1))), PolyTail(IntPoly((1, 0, 0, 2)))]
        ),
        st.integers(-3, 3000),
    )
    def test_counts_terms_up_to_m(self, spec, m):
        expected = 0
        while term(spec, spec.n_min + expected, 0) <= m:
            expected += 1
        assert spec.index_le(m) == expected

