"""Conformance of every sequence family to the protocol the other modules read.

The protocol is ``base``, ``n_min``, ``term``, ``terms``, ``differences``,
``index_le``, ``degree``, ``label``, ``scan_points`` and ``main_terms`` (see
the ``seqgen`` docstring).  Each check runs over both library families, k up
to 10^40 and polynomials with n_min > 1, and over ``ShiftedNaturals``, a
family defined only here: counting, scans, tail digits and the Benford pass
must run on it with nothing in ``src/`` knowing its type.
"""
import itertools
from dataclasses import dataclass

import mpmath
import pytest
from hypothesis import event, example, given, settings, strategies as st

import every_index
from concat_equidist import counting, equidist
from concat_equidist.asymptotics import limit_constants, ratio_scan, scan_points
from concat_equidist.counting import count_A
from concat_equidist.exactnum import ExactEndpoint, HalfOpenInterval
from concat_equidist.seqgen import (
    DomainError,
    IntPoly,
    MultipleTail,
    PolyTail,
    poly_floor_inverse,
    tail_digits,
)
from test_asymptotics import lemma2_oracle

I12 = HalfOpenInterval.parse("0.1", "0.2")
SHIFT = 10**6


@dataclass(frozen=True)
class ShiftedNaturals:
    """a_n = n + 10^6 for n >= 1.  Up to N_j = 2*10^j - 10^6 its terms run from
    10^6 + 1 to 2*10^j, and those that lead with 1 are the members of [0.1, 0.2):
    sum_{i=6..j} 10^i - 1 of them, the main term here, with no remainder."""

    base: int = 10

    n_min = 1
    degree = 1
    label = "shifted"

    def term(self, n, offset=0):
        if n < 1 or offset < 0:
            raise DomainError(f"index {n}, offset {offset}")
        return n + offset + SHIFT

    def terms(self, n):
        return itertools.count(self.term(n))

    def differences(self, n):
        return [self.term(n), 1]

    def index_le(self, m):
        return max(m - SHIFT, 0)

    def scan_points(self, j_max):
        return [(j, 2 * 10**j - SHIFT) for j in range(6, j_max + 1)]

    def main_terms(self, js):
        return {j: (10 ** (j + 1) - SHIFT) // 9 - 1 for j in js}, 1


def subsequence_points_linear(k, j_max):
    """Oracle: the linear scan points as ``asymptotics`` computed them before they moved to the family."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [(j, 2 * 10**j // k) for j in range(j_max + 1) if 2 * 10**j > k]


def subsequence_points_poly(poly, J_max):
    """Oracle: the polynomial scan points as ``asymptotics`` computed them before they moved to the family."""
    if J_max < 1:
        raise ValueError(f"J_max must be >= 1, got {J_max}")
    points = []
    for J in range(1, J_max + 1):
        if 2 * 10**J < poly.n_min_value:
            continue
        N = poly_floor_inverse(poly, 2 * 10**J) - poly.n_min + 1
        if not points or N > points[-1][1]:
            points.append((J, N))
    return points


ks = st.one_of(st.just(1), st.integers(1, 1000), st.integers(1, 10**40))


@st.composite
def polys(draw):
    """Degree 1-4, the constant and leading coefficients up to 10^6: the lower
    coefficients are mostly negative, so n_min is often above 1."""
    d = draw(st.integers(1, 4))
    lower = draw(st.lists(st.integers(-(10**3), 10**2), min_size=d - 1, max_size=d - 1))
    return IntPoly((draw(st.integers(-(10**6), 10**6)), *lower, draw(st.integers(1, 10**6))))


@st.composite
def families(draw, base=None):
    """A multiple of k (k = 1 is champ), a polynomial or the shifted naturals, in ``base`` or base 2-36."""
    base = base or draw(st.integers(2, 36))
    kind = draw(st.sampled_from(["mult", "poly", "shifted"]))
    if kind == "mult":
        return MultipleTail(draw(ks), base)
    if kind == "poly":
        return PolyTail(draw(polys()), base)
    return ShiftedNaturals(base)


def _brute_index_le(spec, m):
    count, n = 0, spec.n_min
    while spec.term(n) <= m:
        count, n = count + 1, n + 1
    return count


class TestProtocol:
    @given(families(), st.integers(0, 60), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300)
    @example(PolyTail(IntPoly((10, -10, 1))), 0, -1)  # n_min = 9, f(9) = 1: m = 0
    @example(PolyTail(IntPoly((-420000, 5, 2))), 3, 0)  # n_min = 458
    @example(MultipleTail(10**40), 0, -1)
    def test_index_le_counts_the_terms_up_to_m(self, spec, t, delta):
        event(f"n_min > 1: {spec.n_min > 1}")
        m = spec.term(spec.n_min + t) + delta
        assert spec.index_le(m) == _brute_index_le(spec, m)
        assert spec.index_le(spec.term(spec.n_min) - 1) == spec.index_le(0) == 0

    @given(families(), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_terms_differences_and_term_agree(self, spec, past):
        n = spec.n_min + past
        head = list(itertools.islice(spec.terms(n), 30))
        assert head == [spec.term(n, i) for i in range(30)]
        assert spec.differences(n)[0] == spec.term(n)

    @given(families())
    @settings(max_examples=200)
    def test_terms_increase_strictly_from_n_min(self, spec):
        head = list(itertools.islice(spec.terms(spec.n_min), 60))
        assert head[0] >= 1
        assert all(a < b for a, b in zip(head, head[1:]))

    @given(families())
    @settings(max_examples=50)
    def test_below_the_domain_is_refused(self, spec):
        with pytest.raises(DomainError):
            spec.term(spec.n_min - 1)
        with pytest.raises(DomainError):
            spec.term(spec.n_min, -1)


class TestScanPoints:
    @given(ks, st.integers(-2, 45))
    @settings(max_examples=200)
    def test_linear_matches_the_old_points(self, k, j_max):
        assert MultipleTail(k).scan_points(j_max) == subsequence_points_linear(k, j_max)

    @given(polys(), st.integers(1, 40))
    @settings(max_examples=200)
    @example(IntPoly((3, 0, 0, 0, 0, 7)), 5)  # 7n^5 + 3: N_1 = N_2 = 1
    def test_poly_matches_the_old_points(self, poly, J_max):
        event(f"n_min > 1: {poly.n_min > 1}")
        assert PolyTail(poly).scan_points(J_max) == subsequence_points_poly(poly, J_max)

    @pytest.mark.parametrize("j", [0, 1, 5, 40])
    def test_linear_excludes_k_equal_to_2_10_j(self, j):
        # 2*10^j > k is strict: at k = 2*10^j, n_j would be 1
        k = 2 * 10**j
        points = scan_points(MultipleTail(k), j + 2)
        assert points == subsequence_points_linear(k, j + 2) == [(j + 1, 10), (j + 2, 100)]
        assert scan_points(MultipleTail(k + 1), j + 1) == [(j + 1, 2 * 10 ** (j + 1) // (k + 1))]
        assert scan_points(MultipleTail(k - 1), j) == [(j, 2 * 10**j // (k - 1))]

    @pytest.mark.parametrize("J", [1, 3, 30])
    @pytest.mark.parametrize("shape", ["line", "parabola"])
    def test_poly_includes_f_n_min_equal_to_2_10_J(self, J, shape):
        # 2*10^J >= f(n_min) is not strict: at f(n_min) = 2*10^J, N_J is 1
        if shape == "line":
            poly = IntPoly((2 * 10**J - 1, 1))  # n_min = 1
        else:
            poly = IntPoly((2 * 10**J + 100, -20, 1))  # n_min = 10, f(10) = 2*10^J
        assert poly.n_min_value == 2 * 10**J
        points = scan_points(PolyTail(poly), J + 1)
        assert points == subsequence_points_poly(poly, J + 1)
        assert points[0] == (J, 1)
        bumped = IntPoly((poly.coeffs[0] + 1, *poly.coeffs[1:]))
        assert scan_points(PolyTail(bumped), J + 1) == subsequence_points_poly(bumped, J + 1)
        assert scan_points(PolyTail(bumped), J + 1)[0][0] == J + 1

    def test_messages(self):
        with pytest.raises(ValueError, match=r"^J_max must be >= 1, got 0$"):
            scan_points(PolyTail(IntPoly((0, 0, 1))), 0)
        assert scan_points(MultipleTail(7), -1) == []


class TestMainTerms:
    @given(ks, st.sets(st.integers(0, 60), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_linear_is_the_floor_sum(self, k, js):
        mains, den = MultipleTail(k).main_terms(js)
        assert den == 1
        for j in js:
            assert mains[j] == sum(10**i // k for i in range(j + 1))

    @given(polys(), st.sets(st.integers(1, 80), min_size=1, max_size=4))
    @settings(max_examples=60)
    @example(IntPoly((0, 10**6)), {1})
    def test_poly_is_the_lemma2_term(self, poly, Js):
        mains, den = PolyTail(poly).main_terms(Js)
        for J in Js:
            digits = J // poly.degree + 60
            with mpmath.workdps(digits):
                oracle = lemma2_oracle(poly, J, digits)
                assert abs(mpmath.mpf(mains[J]) / den - oracle) <= oracle * mpmath.mpf(2) ** -120

    @pytest.mark.parametrize("spec,j", [(MultipleTail(7), -1), (PolyTail(IntPoly((0, 0, 1))), 0)])
    def test_an_index_below_the_first_is_refused(self, spec, j):
        with pytest.raises(ValueError, match=r"^scan points need j >= 0, and J >= 1 for a polynomial$"):
            spec.main_terms({j, j + 3})


@st.composite
def cell_cases(draw):
    """(spec, interval, ascending cuts in it, N): base 2-10, cuts of up to 4 digits."""
    base = draw(st.integers(2, 10))
    spec = draw(families(base))
    texts = draw(st.lists(st.text("".join(map(str, range(base))), min_size=1, max_size=4), min_size=2, max_size=5))
    cuts = sorted({ExactEndpoint.parse("0." + t, base) for t in texts} | {ExactEndpoint.parse("1", base)})
    return spec, HalfOpenInterval(cuts[0], cuts[-1]), cuts, draw(st.integers(1, 400))


class TestCells:
    @given(cell_cases())
    @settings(max_examples=150)
    def test_cells_match_every_index(self, case):
        spec, interval, cuts, N = case
        try:
            expected = every_index.cells(spec, interval, cuts, N)
        except counting.UndecidedMembershipError as exc:
            with pytest.raises(counting.UndecidedMembershipError) as got:
                counting._cells(spec, interval, cuts, [N])
            assert got.value.n == exc.n
            return
        assert counting._cells(spec, interval, cuts, [N]) == [expected]


class TestShiftedNaturals:
    """A family the library has never seen runs through every stage unchanged."""

    spec = ShiftedNaturals()

    @pytest.mark.parametrize("lo,hi", [("0.1", "0.2"), ("0.1000005", "0.1000011"), ("0.99", "1")])
    def test_count_matches_every_index(self, lo, hi):
        interval = HalfOpenInterval.parse(lo, hi)
        for N in (1, 7, 1000):
            assert count_A(self.spec, interval, N) == every_index.count_A(self.spec, interval, N)

    def test_count_at_the_scan_points(self):
        for j, N in self.spec.scan_points(40):
            assert count_A(self.spec, I12, N).count == (10 ** (j + 1) - SHIFT) // 9 - 1

    def test_ratio_scan(self):
        report = ratio_scan(self.spec, I12, scan_points(self.spec, 40))
        assert report.kind == "shifted"
        assert report.constants == limit_constants(1)
        assert [r.j for r in report.records] == list(range(6, 41))
        assert all(r.residual == 0 for r in report.records)
        assert abs(report.final_ratio - 5 / 9) < 1e-12

    def test_tail_digits(self):
        expected = "".join(str(n + SHIFT) for n in range(5, 40))
        assert str(tail_digits(self.spec, 5, 200)) == expected[:200]

    def test_benford_report(self):
        N = 5000
        assert equidist.family_benford_report(self.spec, 1, N) == equidist.benford_report(
            [n + SHIFT for n in range(1, N + 1)]
        )
