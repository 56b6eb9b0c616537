"""Closed-form main terms, polynomial floor inverse, ratio scans, limit constants.

The scans track the counting ratio A([0.1,0.2); n_j)/n_j along the
subsequences n_j = floor(2*10^j / k) (linear families) and
N_J = g(2*10^J) (polynomial families, g the floor inverse of f), together
with the exact/closed-form main terms and their residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable

from .counting import count_A
from .exactnum import HalfOpenInterval, _show
from .seqgen import IntPoly, PolyTail, TailSpec, _iroot, poly_floor_inverse

if TYPE_CHECKING:
    from decimal import Decimal  # imported where used, past 2^53


@dataclass(frozen=True)
class ScanRecord:
    j: int
    N: int
    count: int
    ratio: float
    main_term: float | int | Decimal  # an exact int (Lemma 1) or a Decimal (Lemma 2) past the float range
    residual: float | int | Decimal  # the same, for a residual past the float range


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
    """((2^(1/d)-1)/c_d^(1/d)) * sum_{i=1..J} 10^(i/d).

    A float wherever the float sum is finite.  Past the float range it is
    ``_lemma2_decimal`` rounded once, and a Decimal if that is no float.
    """
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    main = _lemma2_float(poly, J)
    return main if math.isfinite(main) else _rounded(_lemma2_decimal(poly, J)(J))


def _lemma2_float(poly: IntPoly, J: int) -> float:
    """The Lemma 2 main term as a float sum, inf past the float range."""
    d = poly.degree
    try:
        factor = (2.0 ** (1.0 / d) - 1.0) / poly.coeffs[-1] ** (1.0 / d)
        return factor * sum(10.0 ** (i / d) for i in range(1, J + 1))
    except OverflowError:
        return math.inf


def _lemma2_decimal(poly: IntPoly, J_max: int) -> Callable[[int], Decimal]:
    """J -> the Lemma 2 main term as a Decimal of J/d + 20 significant digits.

    It comes from the geometric sum r (r^J - 1)/(r - 1) with r = 10^(1/d).
    The term is below 2 * 10^(J/d), so at least 18 of the digits lie after
    the point, where the float sum has none left once it passes 2^53.  The
    fractional powers are taken on the first call only, at the precision
    J_max/d + 20 of the largest J, and each term costs one integer power of
    r; a scan that stays below 2^53 never pays for them.
    """
    d = poly.degree
    constants = []  # r and the factor c_d^(-1/d) (2^(1/d) - 1) r / (r - 1)

    def main(J: int) -> Decimal:
        from decimal import Decimal, localcontext

        with localcontext() as ctx:
            if not constants:
                ctx.prec = J_max // d + 20
                root = 1 / Decimal(d)
                r = 10 ** root
                constants[:] = r, (2**root - 1) / Decimal(poly.coeffs[-1]) ** root * r / (r - 1)
            r, factor = constants
            ctx.prec = J // d + 20
            return factor * (r**J - 1)

    return main


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
    """Scan points (J, N_J) with N_J the number of indices up to g(2*10^J)."""
    if J_max < 1:
        raise ValueError(f"J_max must be >= 1, got {_show(J_max)}")
    points = []
    for J in range(1, J_max + 1):
        if 2 * 10**J < poly.n_min_value:
            continue
        n_last = poly_floor_inverse(poly, 2 * 10**J)
        points.append((J, n_last - poly.n_min + 1))
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

    The main term is Lemma 1's exact integer for a linear family and Lemma
    2's float sum for a polynomial one.  While the count and the main term
    are both below 2^53 the residual is their float difference.  From there
    on it is the exact difference from the integer, or from the unrounded
    ``_lemma2_decimal``, rounded once.
    """
    if not points:
        raise ValueError("no scan points: j_max is below the subsequence threshold")
    if any(points[i][1] >= points[i + 1][1] for i in range(len(points) - 1)):
        raise ValueError("scan points must have strictly increasing N")
    if spec.base != 10:
        raise ValueError("ratio scans reproduce base-10 constants; spec.base must be 10")
    if isinstance(spec, PolyTail):
        kind, d, poly = "poly-d", spec.poly.degree, spec.poly
        exact_main = _lemma2_decimal(poly, max(j for j, _ in points))

        def main_term(J: int) -> float | Decimal:
            main = _lemma2_float(poly, J)
            return main if math.isfinite(main) else exact_main(J)

    else:
        kind, d = "linear-k", 1
        main_term = exact_main = partial(lemma1_main_term, spec.k)
    records = []
    for j, N in points:
        res = count_A(spec, interval, N)
        main = main_term(j)
        if res.count < _FLOAT_EXACT and main < _FLOAT_EXACT:
            residual = res.count - float(main)
        else:
            residual = _exact_difference(res.count, exact_main(j))
        records.append(ScanRecord(j, N, res.count, res.ratio, _rounded(main), residual))
    return RatioScanReport(kind, tuple(records), limit_constants(d))


_FLOAT_EXACT = 2**53  # every integer below it is a float
_FLOAT_END = 2**1024 - 2**970  # the least value that rounds past the largest float


def _exact_difference(count: int, main: int | Decimal) -> float | int | Decimal:
    """count - main, exact, rounded once."""
    from decimal import MAX_PREC, localcontext

    with localcontext() as ctx:
        ctx.prec = MAX_PREC  # no Decimal difference is rounded
        return _rounded(count - main)


def _rounded(x: float | int | Decimal) -> float | int | Decimal:
    """x rounded once to a float, or x itself past the float range."""
    return float(x) if -_FLOAT_END < x < _FLOAT_END else x
