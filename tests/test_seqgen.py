import pytest

from hypothesis import event, given, settings, strategies as st

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


def walk_n_min(poly):
    """Oracle: n_min by checking every index up to the derivative-dominance
    bound d * sum|c_i| / c_d, beyond which f grows monotonically."""
    d = poly.degree
    bound = (d * sum(abs(c) for c in poly.coeffs)) // poly.coeffs[-1] + 1
    last_bad = 0
    prev = poly.eval(1)
    for n in range(1, bound + 1):
        cur = poly.eval(n + 1)
        if cur <= prev or prev < 1:
            last_bad = n
        prev = cur
    start = last_bad + 1
    while poly.eval(start) < 1:
        start += 1
    return start


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


random_polys = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.lists(st.integers(-10**3, 10**3), min_size=d, max_size=d), st.integers(1, 10**3))
).map(lambda t: IntPoly((*t[0], t[1])))


@st.composite
def factored_polys(draw):
    """c * prod(x - r) * prod((x - r)^2 + s) + e, degree 1-4: repeated and
    tangent roots, with the offset e moving which condition binds."""
    n_quad = draw(st.integers(0, 2))
    n_lin = draw(st.integers(0 if n_quad else 1, 4 - 2 * n_quad))
    coeffs = [draw(st.integers(1, 3))]
    for _ in range(n_lin):
        coeffs = _times(coeffs, [-draw(st.integers(-3, 10)), 1])
    for _ in range(n_quad):
        r, s = draw(st.integers(0, 10)), draw(st.integers(-2, 2))
        coeffs = _times(coeffs, [r * r + s, -2 * r, 1])
    coeffs[0] += draw(st.integers(-3, 3))
    return IntPoly(tuple(coeffs))


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
        with pytest.raises(ValueError, match=r"non-constant \(degree >= 1\), got \(5,\)"):
            IntPoly((5,))

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError, match=r"^leading coefficient must be >= 1, got -1 in \(0, 0, -1\)$"):
            IntPoly((0, 0, -1))
        with pytest.raises(ValueError, match=r"^leading coefficient must be >= 1, got 0 in \(3, 0\)$"):
            IntPoly((3, 0))

    def test_rejects_non_int_coefficient(self):
        with pytest.raises(ValueError, match=r"^coefficient c_1 must be an int, got '0' in \(1, '0'\)$"):
            IntPoly((1, "0"))
        with pytest.raises(ValueError, match=r"^coefficient c_0 must be an int, got 1.5 in \(1.5, 2\)$"):
            IntPoly((1.5, 2))

    def test_messages_render_huge_coefficients_by_size(self):
        # repr of an int past 4300 digits raises; the messages must not
        big = 10**5000
        size = f"<{big.bit_length()}-bit int>"
        with pytest.raises(ValueError, match=rf"^polynomial must be non-constant \(degree >= 1\), got \({size},\)$"):
            IntPoly((big,))
        with pytest.raises(ValueError, match=rf"^coefficient c_1 must be an int, got '0' in \({size}, '0'\)$"):
            IntPoly((big, "0"))
        with pytest.raises(ValueError, match=rf"^leading coefficient must be >= 1, got 0 in \({size}, 0\)$"):
            IntPoly((big, 0))
        with pytest.raises(ValueError, match=rf"^leading coefficient must be >= 1, got -{size} in \(1, -{size}\)$"):
            IntPoly((1, -big))

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

    @settings(max_examples=400)
    @given(st.one_of(random_polys, factored_polys()))
    def test_n_min_matches_walk_and_is_tight(self, poly):
        m = poly.n_min
        assert m == walk_n_min(poly)
        if m == 1:
            event("n_min = 1")
            return
        f_binds = poly.eval(m - 1) <= 0
        growth_binds = poly.eval(m) <= poly.eval(m - 1)
        event(f"binding: f >= 1 {f_binds}, f increasing {growth_binds}")
        assert f_binds or growth_binds

    @pytest.mark.parametrize(
        "coeffs,n_min",
        [
            ((10**7, 0, 1), 1),
            ((999999999999999998, 1), 1),
            ((-10**40, 0, 1), 10**20 + 1),
            ((-10**400, 0, 1), 10**200 + 1),
            ((123456789012345678, -5, 0, 1), 1),
            ((-10**18, 0, 0, 1), 10**6 + 1),  # f(10^6) = 0
            ((-(10**18) + 1, 0, 0, 1), 10**6),  # f(10^6) = 1
        ],
        ids=["1e7+n^2", "18-digit-linear", "n^2-1e40", "n^2-1e400", "cubic+18-digit", "n^3-1e18", "n^3-1e18+1"],
    )
    def test_n_min_cost_is_bounded_by_digits(self, coeffs, n_min, deadline):
        # walk_n_min takes seconds to forever on these; the deadline keeps a
        # certificate that grows with the coefficients' size from hanging the suite
        with deadline(2.0, f"n_min of a polynomial with a {len(str(max(map(abs, coeffs))))}-digit coefficient"):
            assert IntPoly(coeffs).n_min == n_min

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

