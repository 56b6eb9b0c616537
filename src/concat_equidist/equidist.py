"""Distribution diagnostics: star discrepancy, Weyl sums, Benford analysis.

Works on finite point sets in [0, 1); the Benford side follows the
characterization "strong Benford iff {log10 a_i} is u.d. mod 1".
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .counting import census
from .exactnum import HEAD_DIGITS, STR_BELOW, ExactEndpoint, decimal_head
from .seqgen import IntPoly

BENFORD_FREQ = tuple(math.log10(1 + 1 / c) for c in range(1, 10))


@dataclass(frozen=True)
class PointSet:
    """A finite multiset of reals in [0, 1)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not (0.0 <= v < 1.0) for v in self.values):
            raise ValueError("all points must lie in [0, 1)")

    @classmethod
    def of(cls, values: Iterable[float]) -> "PointSet":
        return cls(tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class BenfordReport:
    N: int
    digit_freq: tuple[float, ...]
    benford_freq: tuple[float, ...]
    max_abs_gap: float
    log_discrepancy: float


def star_discrepancy(points: PointSet) -> float:
    """Exact D*_N via order statistics, O(N log N).

    D*_N = max_i max(i/N - v_(i), v_(i) - (i-1)/N) over the sorted points.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty point set")
    v = np.sort(np.asarray(points.values))
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - v), np.max(v - (i - 1) / n)))


def ud_deviation(points: PointSet, alpha: ExactEndpoint, beta: ExactEndpoint) -> float:
    """Star discrepancy of the points affinely rescaled from [alpha, beta) to [0, 1).

    Measures the worst deviation of empirical interval mass from the density
    (b-a)/(beta-alpha) required by u.d. mod 1 over [alpha, beta).
    """
    a = float(alpha.value())
    b = float(beta.value())
    if not a < b:
        raise ValueError("require alpha < beta")
    v = np.asarray(points.values)
    if len(v) == 0:
        raise ValueError("empty point set")
    if np.any(v < a) or np.any(v >= b):
        raise ValueError(f"point outside [{alpha}, {beta})")
    rescaled = np.minimum((v - a) / (b - a), np.nextafter(1.0, 0.0))
    return star_discrepancy(PointSet.of(rescaled))


def weyl_sum(points: PointSet, h: int) -> float:
    """|(1/N) sum_n exp(2 pi i h v_n)|, the normalized exponential sum."""
    if h == 0:
        raise ValueError("h must be nonzero")
    if len(points) == 0:
        raise ValueError("empty point set")
    v = np.asarray(points.values)
    return float(abs(np.exp(2j * np.pi * h * v).mean()))


def log10_int(m: int) -> float:
    """log10 of a positive integer of any size, from digit count plus mantissa."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n, head, _ = decimal_head(m)
    return (n - 1) + math.log10(int(head)) - (len(head) - 1)


def log10_fracpart(m: int) -> float:
    """{log10 m} in [0, 1), with terms c*10^k landing on the correct side.

    Trailing zeros are stripped first so exact powers of ten (and small
    multiples of them) never round to 0.999... from the wrong side.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m < STR_BELOW:  # str() is exact here and saves a call per term
        s = str(m).rstrip("0")
    else:
        _, head, exact = decimal_head(m)
        s = head.rstrip("0") if exact else head
    if s == "1":
        return 0.0
    mant = s[:HEAD_DIGITS]
    frac = math.log10(int(mant)) - (len(mant) - 1)
    return frac % 1.0


def log_fracparts(terms: Iterable[int]) -> PointSet:
    """{log10 a_i} for a stream of positive integers."""
    return PointSet.of(log10_fracpart(m) for m in terms)


def benford_report(terms: Sequence[int]) -> BenfordReport:
    """Leading-digit frequencies vs the Benford reference, plus log-discrepancy."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty term stream")
    n = len(terms)
    counts = census(terms, 10)
    freq = tuple(c / n for c in counts)
    gap = max(abs(f - b) for f, b in zip(freq, BENFORD_FREQ))
    disc = star_discrepancy(log_fracparts(terms))
    return BenfordReport(n, freq, BENFORD_FREQ, gap, disc)


def poly_log_ratio(poly: IntPoly, n: int, base: int = 10) -> float:
    """log_base f(n) / log_base n; tends to the degree d as n grows."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n <= 1:
        raise ValueError("n must be > 1 (log of the index must be nonzero)")
    if n < poly.n_min:
        raise ValueError(f"n = {n} below the polynomial domain (n_min = {poly.n_min})")
    value = poly.eval(n)
    if value < 1:
        raise ValueError(f"f({n}) = {value} is not a positive integer")
    # base cancels: log_b f(n) / log_b n == log10 f(n) / log10 n
    return log10_int(value) / log10_int(n)
