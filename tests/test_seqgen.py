import itertools
import math
import tracemalloc

import pytest

from hypothesis import event, given, settings, strategies as st

from concat_equidist import asymptotics, equidist
from concat_equidist.equidist import _BATCH, family_benford_report, tail_points
from concat_equidist.exactnum import STR_BELOW, decimal_int, digit_length, int_to_digits
from concat_equidist.seqgen import (
    ChampernowneTail,
    DomainError,
    IntPoly,
    MultipleTail,
    PolyTail,
    lemma1_main_term,
    tail_digits,
    tail_prefixes,
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


def _horner(h, x):
    value = 0
    for c in reversed(h):
        value = value * x + c
    return value


def sturm_n_min(poly):
    """Oracle: n_min by exact real-root isolation of Δf and f, with Sturm
    sequences below Kioustelidis' root bound.  The cost grows with the
    coefficients' bit length, so it reaches where ``walk_n_min`` cannot."""
    shifted = list(poly.coeffs)  # f(x + 1), by a Taylor shift
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += shifted[j + 1]
    delta = [s - c for s, c in zip(shifted[:-1], poly.coeffs)]
    return 1 + max(_last_nonpositive(delta), _last_nonpositive(poly.coeffs))


def _last_nonpositive(h):
    """Largest integer m >= 1 with h(m) <= 0, or 0 if h > 0 on [1, infinity),
    for h with a positive leading coefficient: the integers of (0, B] are
    bisected right half first, skipping every interval that holds no real
    root of h by Sturm's theorem."""
    if len(h) == 1:
        return 0
    if len(h) == 2:
        return max(-h[0] // h[1], 0)
    sturm = _sturm_sequence(h)
    if len(sturm[-1]) > 1:  # repeated roots: count the distinct roots of h / gcd(h, h')
        sturm = _sturm_sequence(_exact_quotient(h, sturm[-1]))
    top = _root_bound(h)
    # invariant: every integer above the popped interval (a, b] has h > 0
    stack = [(0, _sign_variations(sturm, 0), top, _sign_variations(sturm, top))]
    while stack:
        a, var_a, b, var_b = stack.pop()
        if _horner(h, b) <= 0:
            return b
        # var_a - var_b = number of distinct roots in (a, b]
        if var_a == var_b or b - a == 1:
            continue
        mid = (a + b) // 2
        var_mid = _sign_variations(sturm, mid)
        stack.append((a, var_a, mid, var_mid))
        stack.append((mid, var_mid, b, var_b))
    return 0


def _root_bound(h):
    """B >= 2 with h > 0 on [B, infinity): every positive root is below
    2 max (-c_{d-i}/c_d)^(1/i) over the negative coefficients (Kioustelidis)."""
    d, lead = len(h) - 1, h[-1]
    half = 1
    for i in range(1, d + 1):
        if h[d - i] < 0:
            ratio = -(h[d - i] // lead)
            half = max(half, 1 << -(-ratio.bit_length() // i))
    return 2 * half


def _sturm_sequence(h):
    """h, h', -rem(h, h'), ..., each scaled by a positive constant; the last
    member is gcd(h, h') up to a constant."""
    seq = [list(h), [i * c for i, c in enumerate(h)][1:]]
    while len(seq[-1]) > 1:
        r = _negated_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)
    return seq


def _negated_remainder(a, b):
    """-(k * a mod b) for an integer k > 0, divided by its content; [] if b divides a."""
    a = list(a)
    scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    while len(a) >= len(b):
        q, shift = sign * a[-1], len(a) - len(b)
        a = [scale * c for c in a]
        for j, c in enumerate(b):
            a[shift + j] -= q * c
        while a and a[-1] == 0:
            a.pop()
    content = math.gcd(*a)
    return [-c // content for c in a] if a else []


def _exact_quotient(h, g):
    """h / g for a g dividing h, primitive with a positive leading coefficient."""
    content = math.gcd(*g) * (1 if g[-1] > 0 else -1)
    g = [c // content for c in g]
    rem = list(h)
    quotient = [0] * (len(h) - len(g) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = rem[k + len(g) - 1] // g[-1]
        for j, c in enumerate(g):
            rem[k + j] -= quotient[k] * c
    return quotient


def _sign_variations(seq, x):
    """Sign changes, zeros skipped, along the values of ``seq`` at x."""
    count, last = 0, 0
    for p in seq:
        v = _horner(p, x)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _from_roots(c, roots):
    """The coefficients of c * prod(x - r) over the roots."""
    coeffs = [c]
    for r in roots:
        coeffs = _times(coeffs, [-r, 1])
    return tuple(coeffs)


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


def wide_polys(max_degree):
    """Degree 1 to max_degree, with small coefficients mixed with ones up to 10^30 in size."""
    return st.integers(1, max_degree).flatmap(
        lambda d: st.tuples(
            st.lists(st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30)), min_size=d, max_size=d),
            st.one_of(st.integers(1, 5), st.integers(1, 10**30)),
        )
    ).map(lambda t: IntPoly((*t[0], t[1])))


@st.composite
def rooted_polys(draw):
    """(c * prod(x - r_i), roots) with 1-10 distinct integer roots up to 10^30 in size."""
    roots = draw(
        st.lists(st.one_of(st.integers(-50, 50), st.integers(-10**30, 10**30)), min_size=1, max_size=10, unique=True)
    )
    return IntPoly(_from_roots(draw(st.integers(1, 10**6)), roots)), roots


def concat_oracle(values, p):
    # independent oracle: string concatenation of the terms, truncated
    s = ""
    i = 0
    while len(s) < p:
        s += str(values[i])
        i += 1
    return s[:p]


def digit_list_tail(spec, n, p):
    """Oracle: ``tail_digits`` as it was before it wrote text, the digits of
    each whole term as ints, one divmod per digit, concatenated and sliced."""
    out = []
    for a in spec.terms(n):
        term_digits = []
        while a:
            a, r = divmod(a, spec.base)
            term_digits.append(r)
        out.extend(reversed(term_digits))
        if len(out) >= p:
            return tuple(out[:p])


def digits_to_int(ds):
    """Oracle for ``tail_prefixes``: the integer of a digit string."""
    value = 0
    for c in ds.text:
        value = value * ds.base + int(c, 36)
    return value


@st.composite
def text_tail_cases(draw):
    """(spec, n, p): champ, a multiple or a quadratic in base 2-36 from n up to
    10^12 past n_min, and p mostly ending inside one of the first three terms.
    k or the constant term is small, at least STR_BELOW, or longer than the
    4300 digits that int() reads (given as a literal to ``decimal_int``)."""
    base = draw(st.integers(2, 36))
    size = draw(st.sampled_from(["small", "small", "past STR_BELOW", "past int()"]))
    if size == "small":
        big = draw(st.integers(1, 10**6))
    elif size == "past STR_BELOW":
        big = draw(st.integers(STR_BELOW, 10**300))
    else:
        big = decimal_int(str(draw(st.integers(10**8, 10**9 - 1))) * draw(st.integers(479, 500)))
    kind = draw(st.sampled_from(["champ", "mult", "poly"]))
    if kind == "champ":
        spec = ChampernowneTail(base)
    elif kind == "mult":
        spec = MultipleTail(big, base)
    else:
        spec = PolyTail(IntPoly((big, draw(st.integers(-1000, 1000)), draw(st.integers(1, 1000)))), base)
    n = spec.n_min + draw(st.integers(0, 10**12))
    if draw(st.booleans()):
        return spec, n, draw(st.integers(1, 3000))
    lengths = [digit_length(a, base) for a in itertools.islice(spec.terms(n), 3)]
    j = draw(st.integers(0, 2))
    return spec, n, sum(lengths[:j]) + draw(st.integers(1, lengths[j]))


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
        shorter = tail_digits(spec, n, p).text
        longer = tail_digits(spec, n, p + 1).text
        assert longer[:p] == shorter

    def test_base_parametric(self):
        # champ tail in base 2 starting at 1: 1, 10, 11, 100, ...
        assert str(tail_digits(ChampernowneTail(base=2), 1, 8)) == "11011100"

    @settings(max_examples=150)
    @given(text_tail_cases())
    def test_matches_the_digit_list_oracle(self, case):
        spec, n, p = case
        expected = digit_list_tail(spec, n, p)
        got = tail_digits(spec, n, p)
        assert str(got) == "".join("0123456789abcdefghijklmnopqrstuvwxyz"[d] for d in expected)

    @pytest.mark.parametrize("base", [3, 10, 36])
    def test_many_full_blocks_match_the_oracle(self, base):
        # from n = 1 the terms of 1-4 digits run past 4096 terms per block
        p = 40_000
        got = tail_digits(ChampernowneTail(base), 1, p).text
        assert tuple(int(c, 36) for c in got) == digit_list_tail(ChampernowneTail(base), 1, p)

    def test_a_long_term_is_cut_before_it_is_written(self, deadline):
        # a 100 000-digit term written one divmod per digit takes seconds
        spec = MultipleTail(decimal_int("7" * 100_000))
        with deadline(1.0, "40 digits of a 100 000-digit term"):
            assert str(tail_digits(spec, 3, 40)) == "2" + "3" * 39

    @pytest.mark.parametrize(
        "spec,n,p,read",
        [
            (ChampernowneTail(), 10**5, 6000, 1000),  # 6-digit terms: the second block ends at the last digit
            (MultipleTail(10**300 + 1), 1, 50, 1),
            (MultipleTail(10**300 + 1), 1, 700, 3),  # 301-digit terms
        ],
    )
    def test_reads_only_the_terms_it_needs(self, spec, n, p, read):
        counted = CountingTail(spec)
        tail_digits(counted, n, p)
        assert counted.evaluated == list(range(n, n + read))

    def test_memory_stays_near_a_byte_per_digit(self):
        # a tuple of ints needs at least 8 bytes per digit for its pointers alone
        p = 10**6
        tracemalloc.start()
        try:
            digits = tail_digits(ChampernowneTail(), 1, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(digits) == p
        assert peak < 4 * p + 2**20


@st.composite
def prefix_specs(draw):
    """A tail in base 2-36: champ, k up to 10^18 (terms longer than p), or a
    polynomial of degree 1-3 whose constant term mostly pushes n_min above 1."""
    base = draw(st.integers(2, 36))
    kind = draw(st.sampled_from(["champ", "mult", "poly"]))
    if kind == "champ":
        return ChampernowneTail(base)
    if kind == "mult":
        return MultipleTail(draw(st.one_of(st.integers(1, 50), st.integers(1, 10**18))), base)
    degree = draw(st.integers(1, 3))
    constant = draw(st.integers(-60, 5))
    middle = draw(st.lists(st.integers(-20, 20), min_size=degree - 1, max_size=degree - 1))
    return PolyTail(IntPoly((constant, *middle, draw(st.integers(1, 4)))), base)


@st.composite
def prefix_cases(draw):
    """(spec, n, count, p) with n often a few indices below the last term
    that is shorter than base^j digits, so the window crosses a digit-length
    boundary."""
    spec = draw(prefix_specs())
    if draw(st.booleans()):
        j = draw(st.integers(1, 24))
        last_short = spec.n_min + spec.index_le(spec.base**j - 1) - 1
        n = max(spec.n_min, last_short - draw(st.integers(0, 5)))
    else:
        n = spec.n_min + draw(st.integers(0, 3000))
    return spec, n, draw(st.integers(0, 40)), draw(st.integers(1, 60))


class CountingTail:
    """Wraps a tail and records every index whose term is read from ``terms``,
    and every index at which a difference column is asked for.

    ``n_min`` and ``index_le`` are forwarded, so a reader that builds its
    int64 runs from ``differences`` reads every later term through
    ``terms``.
    """

    def __init__(self, spec):
        self.spec, self.base, self.evaluated, self.columns = spec, spec.base, [], []
        self.n_min, self.index_le = spec.n_min, spec.index_le

    def differences(self, n):
        self.columns.append(n)
        return self.spec.differences(n)

    def terms(self, n):
        for m, a in zip(itertools.count(n), self.spec.terms(n)):
            self.evaluated.append(m)
            yield a


class TestTerms:
    @settings(max_examples=300)
    @given(
        st.one_of(prefix_specs(), wide_polys(6).map(PolyTail)),
        st.one_of(st.integers(0, 50), st.integers(0, 10**30)),
        st.integers(0, 40),
    )
    def test_matches_term(self, spec, shift, c):
        # polynomial streams are difference tables: check them against Horner
        n = spec.n_min + shift
        assert list(itertools.islice(spec.terms(n), c)) == [spec.term(m) for m in range(n, n + c)]

    @settings(max_examples=100)
    @given(prefix_specs(), st.integers(1, 50))
    def test_below_n_min_raises_the_term_message(self, spec, below):
        n = spec.n_min - below
        with pytest.raises(DomainError) as from_term:
            spec.term(n)
        # raised when the stream is requested, before any term is read
        with pytest.raises(DomainError) as from_terms:
            spec.terms(n)
        assert str(from_terms.value) == str(from_term.value)


def differences_by_values(spec, n):
    """Oracle: ``PolyTail.differences`` before ``IntPoly.table``, from f(n),
    ..., f(n + d) by d passes of differences."""
    column = [spec.poly.eval(n + i) for i in range(spec.poly.degree + 1)]
    for i in range(1, len(column)):
        for j in range(len(column) - 1, i - 1, -1):
            column[j] -= column[j - 1]
    return column


def multiple_terms_by_count(spec, n):
    """Oracle: ``MultipleTail.terms`` before the families shared one stream."""
    return itertools.count(spec.k * n, spec.k)


class TestOneColumnOneStream:
    @settings(max_examples=300)
    @given(
        wide_polys(8),
        st.one_of(st.integers(0, 50), st.integers(0, 10**30)),
        st.integers(0, 40),
    )
    def test_poly_column_from_the_table(self, poly, shift, c):
        spec = PolyTail(poly)
        n = spec.n_min + shift
        assert spec.differences(n) == differences_by_values(spec, n)
        assert list(itertools.islice(spec.terms(n), c)) == [poly.eval(m) for m in range(n, n + c)]

    @settings(max_examples=300)
    @given(
        st.one_of(st.integers(1, 50), st.integers(1, 10**17)),
        st.one_of(st.integers(1, 50), st.integers(1, 10**30)),
        st.integers(0, 40),
    )
    def test_multiple_stream_from_the_column(self, k, n, c):
        spec = MultipleTail(k)
        assert list(itertools.islice(spec.terms(n), c)) == list(
            itertools.islice(multiple_terms_by_count(spec, n), c)
        )

    def test_table_is_built_once(self):
        poly = IntPoly((5, -3, 1))
        assert poly.table == ((5, -3, 1), (-2, 2), (2,))
        assert PolyTail(poly).differences(3) == [5, 4, 2]  # f(3), Δf(3), Δ²f
        assert poly.table is poly.table


class TestTailPrefixes:
    @settings(max_examples=500)
    @given(prefix_cases())
    def test_matches_tail_digits(self, case):
        spec, n, count, p = case
        expected = [digits_to_int(tail_digits(spec, m, p)) for m in range(n, n + count)]
        assert list(tail_prefixes(spec, n, count, p)) == expected

    @settings(max_examples=100)
    @given(prefix_cases())
    def test_reads_each_term_once(self, case):
        spec, n, count, p = case
        counted = CountingTail(spec)
        list(tail_prefixes(counted, n, count, p))
        # from the last start on, exactly the terms that give its p digits
        stop = n + count - 1
        digits = 0
        while count and digits < p:
            digits += len(int_to_digits(spec.term(stop), spec.base))
            stop += 1
        assert counted.evaluated == list(range(n, stop if count else n))

    @settings(max_examples=100)
    @given(prefix_cases(), st.sampled_from([None, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1]))
    def test_points_read_the_terms_of_the_prefixes_once(self, case, block_count):
        # in int64 blocks (b^p < 2^63) or through tail_prefixes, the points
        # evaluate each term once, and exactly the terms the prefixes need:
        # blocks build the terms below 2^63 from one difference column and
        # read only the later ones from the stream
        spec, n, count, p = case
        count = count if block_count is None else block_count
        by_prefixes, by_points = CountingTail(spec), CountingTail(spec)
        list(tail_prefixes(by_prefixes, n, count, p))
        assert len(tail_points(by_points, n, count, p)) == count
        if spec.base**p < 2**63:
            assert by_points.columns == [n]
            assert by_points.evaluated == [m for m in by_prefixes.evaluated if spec.term(m) >= 2**63]
        else:
            assert by_points.columns == []
            assert by_points.evaluated == by_prefixes.evaluated

    @pytest.mark.parametrize(
        "spec,n,count",
        [
            (ChampernowneTail(), 1, _BATCH + 1),
            (ChampernowneTail(), 10**17 - _BATCH, _BATCH + 1),  # the last term is 10^17
            (MultipleTail(20000000000000), 1, 6000),  # k*n = 10^17 at n = 5000
            (PolyTail(IntPoly((1, 0, 4000000000))), 1, 6000),  # f(5000) = 10^17 + 1
            (PolyTail(IntPoly((10, -10, 1))), 9, 10),
        ],
    )
    def test_family_benford_reads_each_term_once(self, spec, n, count):
        # the terms below 10^17 are built in int64 blocks from one difference
        # column at n; every later one is read once from the stream
        counted = CountingTail(spec)
        assert family_benford_report(counted, n, count).N == count
        assert counted.columns == [n]
        assert counted.evaluated == [m for m in range(n, n + count) if spec.term(m) >= 10**17]

    def test_champ_crossing_into_five_digits(self):
        got = list(tail_prefixes(ChampernowneTail(), 9998, 3, 18))
        assert got == [999899991000010001, 999910000100011000, 100001000110002100]

    def test_is_lazy(self):
        prefixes = tail_prefixes(ChampernowneTail(), 1, 10**15, 18)
        assert next(prefixes) == 123456789101112131

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError, match="p must be >= 1, got 0"):
            list(tail_prefixes(ChampernowneTail(), 1, 5, 0))

    def test_rejects_index_below_n_min(self):
        spec = PolyTail(IntPoly((10, -10, 1)))
        with pytest.raises(DomainError):
            list(tail_prefixes(spec, spec.n_min - 1, 5, 18))


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

    def test_n_min_value_is_evaluated_once(self, monkeypatch):
        poly = IntPoly((10, -10, 1))
        assert poly.n_min_value == poly.eval(poly.n_min) == 1
        monkeypatch.setattr(IntPoly, "eval", lambda self, n: pytest.fail("f(n_min) evaluated again"))
        assert poly.n_min_value == 1
        assert PolyTail(poly).index_le(0) == 0

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

    @settings(max_examples=300)
    @given(wide_polys(8))
    def test_n_min_matches_sturm_isolation(self, poly):
        assert poly.n_min == sturm_n_min(poly)

    @settings(max_examples=300)
    @given(rooted_polys())
    def test_n_min_lies_just_past_the_largest_of_distinct_real_roots(self, case):
        # all roots real and simple: past the largest, f > 0 and f' > 0 (Rolle)
        poly, roots = case
        assert poly.n_min == max(max(roots) + 1, 1)

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
            (_from_roots(3, [10**6 * i for i in range(-20, 20)]), 19 * 10**6 + 1),
        ],
        ids=[
            "1e7+n^2", "18-digit-linear", "n^2-1e40", "n^2-1e400", "cubic+18-digit", "n^3-1e18", "n^3-1e18+1",
            "degree-40",
        ],
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


HUGE = -(10**5000)  # past the 4300 digits that int-to-str conversion allows


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda x: tail_points(ChampernowneTail(), 1, 5, x), "depth"),
        (equidist.log10_fracpart, "m"),
        (equidist.leading_digit, "m"),
        (equidist._mantissa, "m"),
        (lambda x: list(tail_prefixes(ChampernowneTail(), 1, 5, x)), "p"),
        (lambda x: int_to_digits(x, 10), "n"),
        (lambda x: digit_length(x, 10), "n"),
        (asymptotics.limit_constants, "d"),
        (asymptotics.y_sequence, "d_max"),
        (lambda x: asymptotics.lemma2_main_term(NSQ, x), "J"),
        (lambda x: lemma1_main_term(7, x), "J"),
    ],
    ids=[
        "tail_points", "log10_fracpart", "leading_digit", "_mantissa", "tail_prefixes", "int_to_digits",
        "digit_length", "limit_constants", "y_sequence", "lemma2_main_term", "lemma1_main_term",
    ],
)
def test_a_huge_argument_is_named_by_its_size(call, name):
    # an f-string of the int itself raises CPython's digit-limit error instead
    with pytest.raises(ValueError, match=rf"^{name} must be >= [01], got -<{abs(HUGE).bit_length()}-bit int>$"):
        call(HUGE)
