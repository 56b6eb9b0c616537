"""Concatenation-tail sequence families as lazy digit streams.

Two families are supported: the multiple-of-k tail 0.(kn)(k(n+1))..., whose
k = 1 case is the Champernowne tail 0.(n)(n+1)(n+2)..., and the polynomial
tail 0.f(n)f(n+1)... for an eventually increasing integer polynomial f.
Each family also counts its terms up to a bound in closed form
(``index_le``), which exact counting uses decade by decade.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

from .exactnum import DigitString, _check_base, int_to_digits


class DomainError(ValueError):
    """An index fell outside a sequence's certified domain (e.g. n < n_min)."""


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial, constant term first, degree >= 1.

    The leading coefficient must be positive.  ``n_min``, the least index from
    which f is strictly increasing and >= 1, is certified lazily on first use
    and cached; for n >= n_min the sequence f(n), f(n+1), ... is a valid term
    stream.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 2:
            raise ValueError(f"polynomial must be non-constant (degree >= 1), got {_show(self.coeffs)}")
        if any(not isinstance(c, int) for c in self.coeffs):
            i, c = next((i, c) for i, c in enumerate(self.coeffs) if not isinstance(c, int))
            raise ValueError(f"coefficient c_{i} must be an int, got {c!r} in {_show(self.coeffs)}")
        if self.coeffs[-1] < 1:
            raise ValueError(
                f"leading coefficient must be >= 1, got {_show(self.coeffs[-1])} in {_show(self.coeffs)}"
            )

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
        return _horner(self.coeffs, n)

    @cached_property
    def n_min(self) -> int:
        """Least n >= 1 with f strictly increasing and >= 1 on [n, infinity).

        With Δf(n) = f(n+1) - f(n), n_min = 1 + max{m >= 1 : Δf(m) <= 0 or
        f(m) <= 0}, or 1 if that set is empty.  Each half is the largest
        integer m >= 1 with h(m) <= 0 for h = Δf and h = f.  One Taylor
        shift settles the common case where f(x + 1) has no coefficient sign
        change; otherwise exact integer root isolation decides each half
        (``_last_nonpositive``).  The cost depends on the degree and the
        coefficients' bit length, not on n_min.
        """
        shifted = _shift1(self.coeffs)  # f(x + 1)
        if min(shifted) >= 0:
            # By Descartes' rule f > 0 on (1, infinity); Δf(x + 1) = f(x + 2) -
            # f(x + 1) has coefficients >= 0 and Δf(1) > 0, so only f(1) =
            # shifted[0] can fail.
            return 1 if shifted[0] else 2
        delta = [s - c for s, c in zip(shifted[:-1], self.coeffs)]
        return 1 + max(_last_nonpositive(delta), _last_nonpositive(self.coeffs))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


def _show(x: object) -> str:
    """repr(x), with ints too long to print shown by size (repr fails past 4300 digits)."""
    if isinstance(x, tuple):
        inner = ", ".join(map(_show, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if isinstance(x, int) and abs(x).bit_length() > 1024:
        return f"{'-' if x < 0 else ''}<{abs(x).bit_length()}-bit int>"
    return repr(x)


# --- exact real-root certificates for integer polynomials -------------------
# Coefficient lists are constant term first, like IntPoly.coeffs.


def _horner(h: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(h):
        value = value * x + c
    return value


def _shift1(h: Sequence[int]) -> list[int]:
    """Coefficients of h(x + 1) (Taylor shift by 1, O(d^2) additions)."""
    a = list(h)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _last_nonpositive(h: Sequence[int]) -> int:
    """Largest integer m >= 1 with h(m) <= 0, or 0 if h > 0 on [1, infinity).

    h must have a positive leading coefficient.  Degree 0 and 1 are closed
    forms.  Otherwise the integers of (0, B], with h > 0 on [B, infinity),
    are bisected right half first, skipping every interval that holds no
    real root of h by Sturm's theorem and stopping at the first index where
    h <= 0.
    """
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
        # var_a - var_b = number of distinct roots in (a, b]; none means h > 0 there
        if var_a == var_b or b - a == 1:
            continue
        mid = (a + b) // 2
        var_mid = _sign_variations(sturm, mid)
        stack.append((a, var_a, mid, var_mid))
        stack.append((mid, var_mid, b, var_b))
    return 0


def _root_bound(h: Sequence[int]) -> int:
    """An integer B >= 2 with h > 0 on [B, infinity).

    Kioustelidis' bound: every positive root is below 2 max (-c_{d-i}/c_d)^(1/i)
    over the negative coefficients; each i-th root is rounded up to a power
    of two.
    """
    d, lead = len(h) - 1, h[-1]
    half = 1
    for i in range(1, d + 1):
        if h[d - i] < 0:
            ratio = -(h[d - i] // lead)  # ceil(-c_{d-i} / c_d) >= 1
            half = max(half, 1 << -(-ratio.bit_length() // i))
    return 2 * half


def _sturm_sequence(h: Sequence[int]) -> list[list[int]]:
    """h, h', -rem(h, h'), ...: a Sturm sequence, each member scaled by a positive constant.

    The last member is a constant when h is square-free and gcd(h, h') otherwise.
    """
    seq = [list(h), [i * c for i, c in enumerate(h)][1:]]
    while len(seq[-1]) > 1:
        r = _negated_remainder(seq[-2], seq[-1])
        if not r:
            break
        seq.append(r)
    return seq


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
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


def _exact_quotient(h: Sequence[int], g: Sequence[int]) -> list[int]:
    """h / g for a g dividing h, scaled to be primitive with a positive leading
    coefficient; integral by Gauss's lemma."""
    content = math.gcd(*g) * (1 if g[-1] > 0 else -1)
    g = [c // content for c in g]
    rem = list(h)
    quotient = [0] * (len(h) - len(g) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        quotient[k] = rem[k + len(g) - 1] // g[-1]
        for j, c in enumerate(g):
            rem[k + j] -= quotient[k] * c
    return quotient


def _sign_variations(seq: list[list[int]], x: int) -> int:
    """Sign changes, zeros skipped, along the values of ``seq`` at x."""
    count, last = 0, 0
    for p in seq:
        v = _horner(p, x)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


@dataclass(frozen=True)
class MultipleTail:
    """x_n = 0.(kn)(k(n+1))(k(n+2))... for a positive integer k."""

    k: int
    base: int = 10

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


def ChampernowneTail(base: int = 10) -> MultipleTail:
    """x_n = 0.(n)(n+1)(n+2)..., the Champernowne expansion started at n: k = 1."""
    return MultipleTail(1, base)


@dataclass(frozen=True)
class PolyTail:
    """x_n = 0.f(n)f(n+1)f(n+2)... for an eventually increasing integer polynomial."""

    poly: IntPoly
    base: int = 10

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


TailSpec = Union[MultipleTail, PolyTail]


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
