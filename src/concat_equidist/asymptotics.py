"""Closed-form main terms, polynomial floor inverse, ratio scans, limit constants.

The scans track the counting ratio A([0.1,0.2); n_j)/n_j along the
subsequences n_j = floor(2*10^j / k) (linear families) and
N_J = g(2*10^J) (polynomial families, g the floor inverse of f), together
with the exact/closed-form main terms and their residuals.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .counting import _cells, count_A  # count_A unused here: bench/tracer.py wraps it at this name
from .exactnum import HalfOpenInterval, _show
from .seqgen import IntPoly, PolyTail, TailSpec, _iroot, poly_floor_inverse

if TYPE_CHECKING:
    from decimal import Decimal  # imported where used, past the float range


@dataclass(frozen=True)
class ScanRecord:
    j: int
    N: int
    count: int
    ratio: float
    main_term: float | int | Decimal  # rounded once; past the float range an exact int (Lemma 1) or a Decimal (Lemma 2)
    residual: float | int | Decimal  # count - main_term, rounded once in the same way


@dataclass(frozen=True)
class LimitConstants:
    """Reference constants for the degree-d scan.

    ``paper_lower_bound`` is y_d = 5^(1/d)(2^(1/d)-1)/(2(10^(1/d)-1)); the
    empirical scan converges to ``scan_limit`` = 2*y_d (5/9 when d = 1);
    ``baseline_density`` = 1/9 is the density u.d. mod 1 over [0.1,1) would
    force on [0.1,0.2).
    """

    d: int
    paper_lower_bound: float
    scan_limit: float
    baseline_density: float


@dataclass(frozen=True)
class RatioScanReport:
    kind: str  # "linear-k" or "poly-d"
    records: tuple[ScanRecord, ...]
    constants: LimitConstants

    @property
    def target_constant(self) -> float:
        return self.constants.scan_limit

    @property
    def final_ratio(self) -> float:
        return self.records[-1].ratio


def lemma1_main_term(k: int, J: int) -> int:
    """Exact main term sum_{i=0..J} floor(10^i / k) of the linear-family count."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if J < 0:
        raise ValueError(f"J must be >= 0, got {J}")
    return sum(10**i // k for i in range(J + 1))


def subsequence_points_linear(k: int, j_max: int) -> list[tuple[int, int]]:
    """Scan points (j, n_j) with n_j = floor(2*10^j / k).

    Includes exactly the j in (log10(k/2), j_max], tested by the exact integer
    condition 2*10^j > k; may be empty when j_max is below the threshold.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return [(j, 2 * 10**j // k) for j in range(j_max + 1) if 2 * 10**j > k]


def inverse_epsilon(poly: IntPoly, m: int) -> float:
    """g(m) - (m/c_d)^(1/d): the bounded correction of the floor inverse.

    The root is taken on integers with 64 fractional bits, so m may be of
    any size; the difference is rounded to a float once.
    """
    d = poly.degree
    root = _iroot((m << 64 * d) // poly.coeffs[-1], d)  # floor((m/c_d)^(1/d) * 2^64)
    return ((poly_floor_inverse(poly, m) << 64) - root) / 2**64


def lemma2_main_term(poly: IntPoly, J: int) -> float | Decimal:
    """((2^(1/d)-1)/c_d^(1/d)) * sum_{i=1..J} 10^(i/d), rounded once.

    A float, or past the float range a Decimal of J/d + 20 significant
    digits; ``_lemma2_numerators`` gives the fraction and its error bound.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    numerators, den = _lemma2_numerators(poly, {J})
    return _rounded(numerators[J], den, J // poly.degree + 20)


_GUARD = 128  # bits: every Lemma 2 fraction is within 2^-_GUARD of its term


def _lemma2_numerators(poly: IntPoly, Js: set[int]) -> tuple[dict[int, int], int]:
    """{J: M_J} for each J in ``Js``, and D: M_J / D approximates the Lemma 2 term at J.

    With B fractional bits, D = floor(c_d^(1/d) 2^B) >= 2^B, r =
    floor(10^(1/d) 2^B), p_0 = floor(2^(1/d) 2^B) - 2^B, and each p_i =
    floor(p_{i-1} r / 2^B) costs one product; M_J = p_1 + ... + p_J.  Each
    floor only lowers a value, and p_i falls short of (2^(1/d) - 1)
    10^(i/d) 2^B by less than (2i + 1) 10^(i/d).  With S = sum_{i<=J}
    10^(i/d) < (d + 1) 10^(J/d), M_J / D is then within (2J + 1) S 2^-B of
    the term, and within a relative 2 (2J + 2)(d + 1) 2^-B of it.  B =
    _GUARD + log2((2J + 2)(d + 1)) + J log2(10)/d, rounded up at max(Js),
    brings these below 2^-_GUARD and 2^(1-_GUARD) 10^(-J/d): the term,
    count minus the term, and the Decimal of J/d + 20 digits all round
    correctly unless the exact value lies that close to a rounding boundary.
    """
    d, J_max = poly.degree, max(Js)
    B = _GUARD + ((2 * J_max + 2) * (d + 1)).bit_length() + 3322 * J_max // (1000 * d) + 1
    r = _iroot(10 << B * d, d)
    p = _iroot(2 << B * d, d) - (1 << B)
    total, numerators = 0, {}
    for J in range(1, J_max + 1):
        p = p * r >> B
        total += p
        if J in Js:
            numerators[J] = total
    return numerators, _iroot(poly.coeffs[-1] << B * d, d)


def limit_constants(d: int) -> LimitConstants:
    """Reference constants for degree d (d = 1 covers the linear families).

    y_d = Y (1 + ln 5/(2d) + O(d^-2)) with Y = log(2)/(2 log(10)); see
    ``y_sequence`` for the two-sided bound.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    y_d = 5.0 ** (1.0 / d) * (2.0 ** (1.0 / d) - 1.0) / (2.0 * (10.0 ** (1.0 / d) - 1.0))
    return LimitConstants(d, y_d, 2.0 * y_d, 1.0 / 9.0)


def y_sequence(d_max: int) -> list[float]:
    """y_1..y_{d_max}; strictly decreasing with limit Y = log(2)/(2 log(10)).

    The approach is of order 1/d: y_d = Y (1 + ln 5/(2d) + O(d^-2)), and

        0 <= y_d - Y - Y ln 5/(2d) <= Y ln 5 ln(5/2)/(12 d^2)

    The upper bound is the d^-2 term of the expansion, which is not exceeded
    because the d^-3 coefficient is negative (checked at 40 digits for
    d <= 5000).  So y_50 - Y = 0.00243, and |y_d - Y| <= 1e-3 first holds
    at d = 122.
    """
    if d_max < 1:
        raise ValueError(f"d_max must be >= 1, got {d_max}")
    return [limit_constants(d).paper_lower_bound for d in range(1, d_max + 1)]


Y_LIMIT = math.log(2) / (2 * math.log(10))


def subsequence_points_poly(poly: IntPoly, J_max: int) -> list[tuple[int, int]]:
    """Scan points (J, N_J) with N_J the number of indices up to g(2*10^J).

    N_J may repeat while f is steep at small n (7n^5 + 3 has N_1 = N_2 = 1);
    the first J of each N is kept, so the N increase as ``ratio_scan`` needs.
    """
    if J_max < 1:
        raise ValueError(f"J_max must be >= 1, got {_show(J_max)}")
    points: list[tuple[int, int]] = []
    for J in range(1, J_max + 1):
        if 2 * 10**J < poly.n_min_value:
            continue
        N = poly_floor_inverse(poly, 2 * 10**J) - poly.n_min + 1
        if not points or N > points[-1][1]:
            points.append((J, N))
    return points


def scan_points(spec: TailSpec, j_max: int) -> list[tuple[int, int]]:
    """Subsequence points appropriate to the family of ``spec``."""
    if isinstance(spec, PolyTail):
        return subsequence_points_poly(spec.poly, j_max)
    return subsequence_points_linear(spec.k, j_max)


def ratio_scan(
    spec: TailSpec,
    interval: HalfOpenInterval,
    points: list[tuple[int, int]],
) -> RatioScanReport:
    """Counting ratios with attached main terms and residuals at each point.

    The counts come from one walk over the decades for all points.  The
    main term is Lemma 1's exact integer for a linear family, taken from one
    running sum, and the ``_lemma2_numerators`` fraction for a polynomial
    one.  It is rounded once, and so is the residual count - main, as one
    int / int division.
    """
    if not points:
        raise ValueError("no scan points: j_max is below the subsequence threshold")
    if any(points[i][1] >= points[i + 1][1] for i in range(len(points) - 1)):
        raise ValueError("scan points must have strictly increasing N")
    if min(j for j, _ in points) < (1 if isinstance(spec, PolyTail) else 0):
        raise ValueError("scan points need j >= 0, and J >= 1 for a polynomial")
    if spec.base != 10:
        raise ValueError("ratio scans reproduce base-10 constants; spec.base must be 10")
    if isinstance(spec, PolyTail):
        kind, d = "poly-d", spec.poly.degree
        mains, den = _lemma2_numerators(spec.poly, {j for j, _ in points})
    else:
        kind, d, den = "linear-k", 1, 1
        terms = (10**i // spec.k for i in range(max(j for j, _ in points) + 1))
        mains = dict(enumerate(itertools.accumulate(terms)))  # Lemma 1 at every j
    records = []
    cells = _cells(spec, interval, [interval.lo, interval.hi], [N for _, N in points])
    for (j, N), ((_, count), _) in zip(points, cells):
        main, digits = mains[j], j // d + 20
        residual = _rounded(count * den - main, den, digits)
        records.append(ScanRecord(j, N, count, count / N, _rounded(main, den, digits), residual))
    return RatioScanReport(kind, tuple(records), limit_constants(d))


def _rounded(num: int, den: int, digits: int) -> float | int | Decimal:
    """num / den rounded once to a float.

    Past the float range an integer (den = 1) stays exact, and a fraction
    becomes a Decimal of ``digits`` significant digits, also rounded once.
    """
    try:
        return num / den
    except OverflowError:
        if den == 1:
            return num
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            ctx.prec = digits
            return Decimal(num) / den
