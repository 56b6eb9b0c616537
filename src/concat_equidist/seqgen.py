"""Concatenation-tail sequence families and the digit prefixes of their tails.

Two families are supported: the multiple-of-k tail 0.(kn)(k(n+1))..., whose
k = 1 case is the Champernowne tail 0.(n)(n+1)(n+2)..., and the polynomial
tail 0.f(n)f(n+1)... for an eventually increasing integer polynomial f.
Other modules use a family only through its protocol: ``base``; ``n_min``,
the least index; ``term(n)``, a_n; the consecutive terms ``terms(n)``, the
one route by which tail digits, prefixes and the Benford pass walk a sequence
in Python; the difference column that stream starts from (``differences(n)``),
from which the diagnostics build int64 blocks of terms in NumPy; the count of
terms up to a bound in closed form (``index_le(m)``), which exact counting
uses decade by decade; the ``degree`` that picks the limit constants and the
``label`` a scan report prints; and the scan: the paper's subsequence
(``scan_points``) and the main terms there as integer fractions
(``main_terms``).  Both families stream the same way: d nested running sums
over the constant last entry of the column, so each term costs d exact
integer additions (Knuth, TAOCP vol. 2, §4.6.4); a multiple's column is
[kn, k].  A polynomial's column is its table of difference polynomials f,
Δf, ..., Δ^d f evaluated at n (``IntPoly.table``).  The same table certifies
its domain n >= n_min: between two sign changes of Δh on the integers, h is
monotone, so from the constant difference up to f each level's sign changes
follow from integer searches (``IntPoly.n_min``).
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, Sequence, Union

from .exactnum import STR_BELOW, DigitString, _check_base, _show, decimal_int, digit_length, digit_text
from .exactnum import int_to_digits  # unused here: bench/tracer.py wraps it at this name


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
            coeffs = tuple(decimal_int(part.strip()) for part in text.split(","))
        except ValueError:
            raise ValueError(f"invalid polynomial coefficients {_show(text)}") from None
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, n: int) -> int:
        """Exact Horner evaluation."""
        return _horner(self.coeffs, n)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The coefficients of f, Δf, ..., Δ^d f (Δh(x) = h(x + 1) - h(x)), cached.

        They certify ``n_min`` and give every difference column.
        """
        table = [self.coeffs]
        while len(table[-1]) > 1:
            table.append(_difference(table[-1]))
        return tuple(table)

    @cached_property
    def n_min(self) -> int:
        """Least n >= 1 with f strictly increasing and >= 1 on [n, infinity).

        With Δf(n) = f(n+1) - f(n), n_min = 1 + max{m >= 1 : Δf(m) <= 0 or
        f(m) <= 0}, or 1 if that set is empty.  From the constant d-th
        difference up to Δf, the sign changes of each difference on the
        integers split them into runs on which the next one is monotone, and
        a search within each run gives that one's sign changes
        (``_sign_changes``).  From the last change of Δf on, f increases, and
        one more search finds where it reaches 1.  Integers only; the cost
        depends on the degree and the coefficients' bit length, not on n_min.
        """
        turns: list[int] = []  # Δ^d f is a positive constant
        for h in reversed(self.table[1:-1]):  # Δ^(d-1) f, ..., Δf
            turns = _sign_changes(h, turns)
        start = turns[-1] if turns else 1
        return _first_above(self.eval, 0, start, start)

    @cached_property
    def n_min_value(self) -> int:
        """f(n_min), the least value f takes on [n_min, infinity)."""
        return self.eval(self.n_min)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


# --- monotone runs of integer polynomials ----------------------------------
# Coefficient lists are constant term first, like IntPoly.coeffs.


def _horner(h: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(h):
        value = value * x + c
    return value


def _difference(h: Sequence[int]) -> tuple[int, ...]:
    """Coefficients of Δh(x) = h(x + 1) - h(x), by a Taylor shift (O(d^2) additions)."""
    a = list(h)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return tuple(s - c for s, c in zip(a[:-1], h))


def _sign_changes(h: Sequence[int], turns: list[int]) -> list[int]:
    """The integers m >= 2 where h(m - 1) > 0 and h(m) > 0 differ, ascending.

    ``turns`` are the same for Δh.  Between consecutive turns Δh stays > 0
    or stays <= 0, so h is monotone on the integers of each run [a, b] and
    changes sign at most once there; when h(a) and h(b) differ, a search
    down from b finds it.  Past the last turn Δh > 0 and h increases, so a
    search up from that turn finds where h becomes positive for good.  h
    must have a positive leading coefficient.
    """
    value = partial(_horner, h)
    changes = []
    a, positive = 1, value(1) > 0
    for b in turns:
        if positive != (positive_b := value(b) > 0):
            if positive_b:
                changes.append(_first_above(value, 0, a, b))
            else:  # h decreases on [a, b]: -h > -1 marks h <= 0
                changes.append(_first_above(lambda n: -value(n), -1, a, b))
        a, positive = b, positive_b
    if not positive:
        changes.append(_first_above(value, 0, a, a))
    return changes


def _first_above(value: Callable[[int], int], m: int, floor: int, start: int) -> int:
    """The least n >= floor with value(n) > m, for value non-decreasing from floor on.

    From start >= floor it gallops down while value > m, or else up while
    value <= m, doubling the step, and bisects the bracket: O(log |n - start|)
    evaluations whatever the size of n.  If value(start) > m, only
    [floor, start] is read, so value need only be non-decreasing there.
    """
    lo = hi = start
    step = 1
    while value(lo) > m:
        if lo == floor:
            return floor
        lo, hi, step = max(floor, lo - step), lo, 2 * step
    if hi == lo:  # value(start) <= m
        hi = lo + 1
        while value(hi) <= m:
            lo, hi, step = hi, hi + step, 2 * step
    # invariant: value(lo) <= m < value(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value(mid) <= m:
            lo = mid
        else:
            hi = mid
    return hi


class _Family:
    """What both families derive from their difference column."""

    def terms(self, n: int) -> Iterator[int]:
        """The consecutive terms a_n, a_{n+1}, ..., with the domain checked once: in the
        column [a_n, Δa_n, ..., c] of ``differences(n)``, Δ^i a_n, Δ^i a_{n+1}, ... is the
        running sum of Δ^(i+1) a from Δ^i a_n, so a term costs d integer additions."""
        column = self.differences(n)
        stream: Iterator[int] = itertools.repeat(column[-1])
        for start in reversed(column[:-1]):
            stream = itertools.accumulate(stream, initial=start)
        return stream


@dataclass(frozen=True)
class MultipleTail(_Family):
    """x_n = 0.(kn)(k(n+1))(k(n+2))... for a positive integer k."""

    k: int
    base: int = 10

    n_min = 1
    degree = 1
    label = "linear-k"

    def __post_init__(self) -> None:
        _check_base(self.base)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {_show(self.k)}")

    def term(self, n: int) -> int:
        _check_index(self, n)
        return self.k * n

    def differences(self, n: int) -> list[int]:
        """[a_n, k]: the terms from a_n on are the running sums of the constant k."""
        _check_index(self, n)
        return [self.k * n, self.k]

    def index_le(self, m: int) -> int:
        """#{n >= n_min : a_n <= m}."""
        return max(m // self.k, 0)

    def scan_points(self, j_max: int) -> list[tuple[int, int]]:
        """Scan points (j, n_j), n_j = floor(2*10^j / k) (Lemma 1), at exactly the j in
        (log10(k/2), j_max], by the exact test 2*10^j > k; empty when j_max is below it."""
        return [(j, 2 * 10**j // self.k) for j in range(j_max + 1) if 2 * 10**j > self.k]

    def main_terms(self, js: set[int]) -> tuple[dict[int, int], int]:
        """({j: sum_{i=0..j} floor(10^i / k)} for every j <= max(js), 1): Lemma 1's
        exact main terms, from one running sum; every j in ``js`` must be >= 0."""
        if min(js) < 0:
            raise ValueError(_SCAN_INDICES)
        return dict(enumerate(itertools.accumulate(10**i // self.k for i in range(max(js) + 1)))), 1


def lemma1_main_term(k: int, J: int) -> int:
    """Exact main term sum_{i=0..J} floor(10^i / k) of the linear-family count."""
    family = MultipleTail(k)
    if J < 0:
        raise ValueError(f"J must be >= 0, got {_show(J)}")
    return family.main_terms({J})[0][J]


def ChampernowneTail(base: int = 10) -> MultipleTail:
    """x_n = 0.(n)(n+1)(n+2)..., the Champernowne expansion started at n: k = 1."""
    return MultipleTail(1, base)


@dataclass(frozen=True)
class PolyTail(_Family):
    """x_n = 0.f(n)f(n+1)f(n+2)... for an eventually increasing integer polynomial."""

    poly: IntPoly
    base: int = 10

    label = "poly-d"

    def __post_init__(self) -> None:
        _check_base(self.base)

    @property
    def n_min(self) -> int:
        return self.poly.n_min

    @property
    def degree(self) -> int:
        return self.poly.degree

    def term(self, n: int) -> int:
        _check_index(self, n)
        return self.poly.eval(n)

    def differences(self, n: int) -> list[int]:
        """The column f(n), Δf(n), ..., Δ^d f(n), with the domain checked.

        Each entry is a polynomial of ``IntPoly.table`` evaluated at n; the
        last is the constant d! c_d.
        """
        _check_index(self, n)
        return [_horner(h, n) for h in self.poly.table]

    def index_le(self, m: int) -> int:
        """#{n >= n_min : a_n <= m}."""
        if m < self.poly.n_min_value:
            return 0
        return poly_floor_inverse(self.poly, m) - self.n_min + 1

    def scan_points(self, J_max: int) -> list[tuple[int, int]]:
        """Scan points (J, N_J), N_J the number of indices up to g(2*10^J) (Lemma 2), at the
        J <= J_max with 2*10^J >= f(n_min).  N_J may repeat while f is steep at small n
        (7n^5 + 3 has N_1 = N_2 = 1): the first J of each N is kept, so the N increase."""
        if J_max < 1:
            raise ValueError(f"J_max must be >= 1, got {_show(J_max)}")
        first = {}  # N -> its first J, in ascending N
        for J in range(1, J_max + 1):
            first.setdefault(self.index_le(2 * 10**J), J)
        return [(J, N) for N, J in first.items() if N]  # N is 0 while 2*10^J < f(n_min)

    def main_terms(self, js: set[int]) -> tuple[dict[int, int], int]:
        """Lemma 2's main terms at the J of ``js``, each >= 1, as fractions (``_lemma2_numerators``)."""
        return _lemma2_numerators(self.poly, js)


TailSpec = Union[MultipleTail, PolyTail]


def poly_floor_inverse(poly: IntPoly, m: int) -> int:
    """The unique n >= n_min with f(n) <= m < f(n+1), by exact search.

    The search starts at r = max(n_min, iroot(m // c_d, d)), which is within
    about |c_{d-1}| / (d c_d) + 1 of the answer for large m, and gallops
    from there (``_first_above``).  The result is certified by f(n) <= m <
    f(n + 1) whatever the start, and a call costs O(log gap) Horner passes,
    not O(bits of m).
    """
    n_min = poly.n_min
    start = max(n_min, _iroot(max(m, 0) // poly.coeffs[-1], poly.degree))
    above = _first_above(poly.eval, m, n_min, start)
    if above == n_min:
        raise ValueError(f"m = {_show(m)} below f(n_min) = {_show(poly.n_min_value)}")
    return above - 1


def _iroot(x: int, d: int) -> int:
    """floor(x^(1/d)) for x >= 0 and d >= 1, exactly.

    ``math.isqrt`` for d = 2; otherwise Newton's iteration on integers,
    r <- ((d-1) r + x // r^(d-1)) // d, from the overestimate 2^ceil(bits/d).
    It decreases strictly until it reaches the root, and stops at the first
    step that does not (Brent & Zimmermann, Modern Computer Arithmetic,
    §1.5).
    """
    if d == 1 or x < 2:
        return x
    if d == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // d)
    while True:
        s = ((d - 1) * r + x // r ** (d - 1)) // d
        if s >= r:
            return r
        r = s


_SCAN_INDICES = "scan points need j >= 0, and J >= 1 for a polynomial"  # main_terms below the first j
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
    if min(Js) < 1:
        raise ValueError(_SCAN_INDICES)
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


def _check_index(spec: TailSpec, n: int) -> None:
    if n < spec.n_min:
        raise DomainError(f"index {_show(n)} below the sequence domain (n_min = {_show(spec.n_min)})")


def term(spec: TailSpec, n: int) -> int:
    """The concatenated integer a_n of the family."""
    return spec.term(n)


def tail_digits(spec: TailSpec, n: int, p: int) -> DigitString:
    """First p digits of x_n, from the terms a_n, a_{n+1}, ... written as text in blocks.

    A block is a_n alone, then at most 4096 terms and the digits still needed over the
    last term's digits, which each later term reaches.  In base 10 a block ending below
    ``STR_BELOW`` takes no Python step per term.  Memory stays near one byte per digit.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {_show(p)}")
    base = spec.base
    terms = spec.terms(n)
    chunks: list[str] = []
    need, size = p, 1
    while need > 0:
        block = list(itertools.islice(terms, size))
        if base == 10 and block[-1] < STR_BELOW:  # the terms increase: all of the block is below
            texts = list(map(str, block))
        else:  # a long term is first cut to the digits still needed: its cost follows them
            block = [a if a < STR_BELOW else a // base ** max(digit_length(a, base) - need, 0) for a in block]
            texts = [digit_text(a, base) for a in block]
        text = "".join(texts)
        chunks.append(text[:need])
        need -= len(text)
        size = min(4096, -(-need // len(texts[-1])))
    return DigitString(base, "".join(chunks))


def tail_prefixes(spec: TailSpec, n: int, count: int, p: int) -> Iterator[int]:
    """Yield the leading p digits of x_n, ..., x_{n+count-1}, each as one int.

    Each value equals ``int(str(tail_digits(spec, m, p)), spec.base)``.  One integer
    window holds the concatenated terms a_m, a_{m+1}, ...: terms are appended
    until it has at least p digits, its leading p digits are yielded, and the
    leading term is dropped.  So every term is evaluated once, count + O(p)
    terms in all.  Digit lengths come from tracking the next power of the
    base, which is valid because a family's terms increase from n_min.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {_show(p)}")
    terms = spec.terms(n)
    base = spec.base
    length, bound = 1, base  # base**(length - 1) <= the next term < bound = base**length
    lengths: deque[int] = deque()
    window = used = 0
    for _ in range(count):
        while used < p:
            a = next(terms)
            while a >= bound:
                bound *= base
                length += 1
            window = window * bound + a
            used += length
            lengths.append(length)
        yield window // base ** (used - p)
        used -= lengths.popleft()
        window %= base**used
