"""Concatenation-tail sequence families as lazy digit streams.

Three families are supported: the Champernowne tail 0.(n)(n+1)(n+2)...,
the multiple-of-k tail 0.(kn)(k(n+1))..., and the polynomial tail
0.f(n)f(n+1)... for an eventually increasing integer polynomial f.
Each family also counts its terms up to a bound in closed form
(``index_le``), which exact counting uses decade by decade.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .exactnum import DigitString, _check_base, int_to_digits


class DomainError(ValueError):
    """An index fell outside a sequence's certified domain (e.g. n < n_min)."""


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial, constant term first, degree >= 1.

    The leading coefficient must be positive.  On construction we certify the
    least index ``n_min`` from which f is strictly increasing and >= 1; for
    n >= n_min the sequence f(n), f(n+1), ... is a valid term stream.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ValueError("polynomial must be non-constant (degree >= 1)")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be integers")
        if self.coeffs[-1] < 1:
            raise ValueError("leading coefficient must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Parse comma-separated coefficients, constant term first ("0,0,1" is n^2)."""
        try:
            coeffs = tuple(int(part.strip()) for part in text.split(","))
        except ValueError:
            raise ValueError(f"invalid polynomial coefficients {text!r}") from None
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, n: int) -> int:
        """Exact Horner evaluation."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * n + c
        return value

    @cached_property
    def n_min(self) -> int:
        """Least n >= 1 with f strictly increasing and >= 1 on [n, infinity).

        Increments are checked explicitly up to the derivative-dominance bound
        n > d * sum|c_i| / c_d, beyond which monotone growth is guaranteed.
        """
        d = self.degree
        bound = (d * sum(abs(c) for c in self.coeffs)) // self.coeffs[-1] + 1
        last_bad = 0
        prev = self.eval(1)
        for n in range(1, bound + 1):
            cur = self.eval(n + 1)
            if cur <= prev or prev < 1:
                last_bad = n
            prev = cur
        start = last_bad + 1
        while self.eval(start) < 1:
            start += 1
        return start

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


@dataclass(frozen=True)
class ChampernowneTail:
    """x_n = 0.(n)(n+1)(n+2)..., the Champernowne expansion started at n."""

    base: int = 10

    kind = "champ"
    n_min = 1

    def __post_init__(self) -> None:
        _check_base(self.base)

    def term(self, n: int, offset: int = 0) -> int:
        _check_index(self, n, offset)
        return n + offset

    def index_le(self, m: int) -> int:
        """#{n >= n_min : a_n <= m}."""
        return max(m, 0)


@dataclass(frozen=True)
class MultipleTail:
    """x_n = 0.(kn)(k(n+1))(k(n+2))... for a positive integer k."""

    k: int
    base: int = 10

    kind = "mult"
    n_min = 1

    def __post_init__(self) -> None:
        _check_base(self.base)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def term(self, n: int, offset: int = 0) -> int:
        _check_index(self, n, offset)
        return self.k * (n + offset)

    def index_le(self, m: int) -> int:
        """#{n >= n_min : a_n <= m}."""
        return max(m // self.k, 0)


@dataclass(frozen=True)
class PolyTail:
    """x_n = 0.f(n)f(n+1)f(n+2)... for an eventually increasing integer polynomial."""

    poly: IntPoly
    base: int = 10

    kind = "poly"

    def __post_init__(self) -> None:
        _check_base(self.base)

    @property
    def n_min(self) -> int:
        return self.poly.n_min

    def term(self, n: int, offset: int = 0) -> int:
        _check_index(self, n, offset)
        return self.poly.eval(n + offset)

    def index_le(self, m: int) -> int:
        """#{n >= n_min : a_n <= m}."""
        if m < self.poly.eval(self.n_min):
            return 0
        return poly_floor_inverse(self.poly, m) - self.n_min + 1


TailSpec = Union[ChampernowneTail, MultipleTail, PolyTail]


def poly_floor_inverse(poly: IntPoly, m: int) -> int:
    """The unique n >= n_min with f(n) <= m < f(n+1), by exact binary search."""
    lo = poly.n_min
    if m < poly.eval(lo):
        raise ValueError(f"m = {m} below f(n_min) = {poly.eval(lo)}")
    hi = lo + 1
    while poly.eval(hi) <= m:
        hi = 2 * hi - lo + 1
    # invariant: f(lo) <= m < f(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if poly.eval(mid) <= m:
            lo = mid
        else:
            hi = mid
    return lo


def _check_index(spec: TailSpec, n: int, offset: int) -> None:
    if offset < 0:
        raise DomainError(f"offset must be >= 0, got {offset}")
    if n < spec.n_min:
        raise DomainError(f"index {n} below the sequence domain (n_min = {spec.n_min})")


def term(spec: TailSpec, n: int, offset: int = 0) -> int:
    """The concatenated integer a_{n+offset} of the family."""
    return spec.term(n, offset)


def digit_stream(spec: TailSpec, n: int) -> Iterator[int]:
    """Lazily yield the fractional digits of x_n, one at a time."""
    _check_index(spec, n, 0)
    offset = 0
    while True:
        yield from int_to_digits(spec.term(n, offset), spec.base).digits
        offset += 1


def tail_digits(spec: TailSpec, n: int, p: int) -> DigitString:
    """First p digits of x_n; evaluates no more terms than needed."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    out = []
    stream = digit_stream(spec, n)
    for _ in range(p):
        out.append(next(stream))
    return DigitString(spec.base, tuple(out))
