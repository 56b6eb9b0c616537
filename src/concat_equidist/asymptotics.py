"""Closed-form main terms, polynomial floor inverse, ratio scans, limit constants.

The scans track the counting ratio A([0.1,0.2); n_j)/n_j along each
family's subsequence (``scan_points``: n_j = floor(2*10^j / k) for a linear
family, N_J = g(2*10^J) for a polynomial one, g the floor inverse of f),
together with the family's main terms (``main_terms``) and their residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .counting import _cells, count_A  # count_A unused here: bench/tracer.py wraps it at this name
from .exactnum import HalfOpenInterval, _show
from .seqgen import IntPoly, TailSpec, _iroot, _lemma2_numerators, poly_floor_inverse

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
    kind: str  # the family's label: "linear-k" or "poly-d"
    records: tuple[ScanRecord, ...]
    constants: LimitConstants

    @property
    def target_constant(self) -> float:
        return self.constants.scan_limit

    @property
    def final_ratio(self) -> float:
        return self.records[-1].ratio


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
        raise ValueError(f"J must be >= 1, got {_show(J)}")
    numerators, den = _lemma2_numerators(poly, {J})
    return _rounded(numerators[J], den, J // poly.degree + 20)


def limit_constants(d: int) -> LimitConstants:
    """Reference constants for degree d (d = 1 covers the linear families).

    y_d = Y (1 + ln 5/(2d) + O(d^-2)) with Y = log(2)/(2 log(10)); see
    ``y_sequence`` for the two-sided bound.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {_show(d)}")
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
        raise ValueError(f"d_max must be >= 1, got {_show(d_max)}")
    return [limit_constants(d).paper_lower_bound for d in range(1, d_max + 1)]


Y_LIMIT = math.log(2) / (2 * math.log(10))


def scan_points(spec: TailSpec, j_max: int) -> list[tuple[int, int]]:
    """The subsequence points of the family of ``spec`` (``spec.scan_points``)."""
    return spec.scan_points(j_max)


def ratio_scan(
    spec: TailSpec,
    interval: HalfOpenInterval,
    points: list[tuple[int, int]],
) -> RatioScanReport:
    """Counting ratios with attached main terms and residuals at each point.

    The counts come from one walk over the decades for all points.  The
    main terms are the family's fractions M_j / D (``spec.main_terms``):
    Lemma 1's exact integers over 1 for a linear family, Lemma 2's
    ``_lemma2_numerators`` for a polynomial one.  Each is rounded once, and
    so is the residual count - main, as one int / int division.
    """
    if not points:
        raise ValueError("no scan points: j_max is below the subsequence threshold")
    if any(N >= later for (_, N), (_, later) in zip(points, points[1:])):
        raise ValueError("scan points must have strictly increasing N")
    mains, den = spec.main_terms({j for j, _ in points})  # refuses a j below the family's first
    if spec.base != 10:
        raise ValueError("ratio scans reproduce base-10 constants; spec.base must be 10")
    records = []
    cells = _cells(spec, interval, [interval.lo, interval.hi], [N for _, N in points])
    for (j, N), ((_, count), _) in zip(points, cells):
        main, digits = mains[j], j // spec.degree + 20
        residual = _rounded(count * den - main, den, digits)
        records.append(ScanRecord(j, N, count, count / N, _rounded(main, den, digits), residual))
    return RatioScanReport(spec.label, tuple(records), limit_constants(spec.degree))


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
