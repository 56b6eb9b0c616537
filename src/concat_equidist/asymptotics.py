"""Closed-form main terms, polynomial floor inverse, ratio scans, limit constants.

The scans track the counting ratio A([0.1,0.2); n_j)/n_j along the
subsequences n_j = floor(2*10^j / k) (linear families) and
N_J = g(2*10^J) (polynomial families, g the floor inverse of f), together
with the exact/closed-form main terms and their residuals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import count_A
from .exactnum import HalfOpenInterval
from .seqgen import IntPoly, PolyTail, TailSpec, poly_floor_inverse


@dataclass(frozen=True)
class ScanRecord:
    j: int
    N: int
    count: int
    ratio: float
    main_term: float
    residual: float


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
    """g(m) - (m/c_d)^(1/d): the bounded correction of the floor inverse."""
    d = poly.degree
    return poly_floor_inverse(poly, m) - (m / poly.coeffs[-1]) ** (1.0 / d)


def lemma2_main_term(poly: IntPoly, J: int) -> float:
    """((2^(1/d)-1)/c_d^(1/d)) * sum_{i=1..J} 10^(i/d)."""
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    d = poly.degree
    factor = (2.0 ** (1.0 / d) - 1.0) / poly.coeffs[-1] ** (1.0 / d)
    return factor * sum(10.0 ** (i / d) for i in range(1, J + 1))


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
        raise ValueError(f"J_max must be >= 1, got {J_max}")
    points = []
    for J in range(1, J_max + 1):
        if 2 * 10**J < poly.eval(poly.n_min):
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
    """Counting ratios with attached main terms and residuals at each point."""
    if not points:
        raise ValueError("no scan points: j_max is below the subsequence threshold")
    if any(points[i][1] >= points[i + 1][1] for i in range(len(points) - 1)):
        raise ValueError("scan points must have strictly increasing N")
    if spec.base != 10:
        raise ValueError("ratio scans reproduce base-10 constants; spec.base must be 10")
    if isinstance(spec, PolyTail):
        kind = "poly-d"
        constants = limit_constants(spec.poly.degree)

        def main(j: int) -> float:
            return lemma2_main_term(spec.poly, j)

    else:
        kind = "linear-k"
        constants = limit_constants(1)

        def main(j: int) -> float:
            return float(lemma1_main_term(spec.k, j))

    records = []
    for j, N in points:
        res = count_A(spec, interval, N)
        mt = main(j)
        records.append(ScanRecord(j, N, res.count, res.ratio, mt, res.count - mt))
    return RatioScanReport(kind, tuple(records), constants)
