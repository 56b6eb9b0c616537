"""Interval membership of tail values and the counting function A([a,b); N)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

# bench/tracer.py wraps term, compare_prefix (unused here), int_to_digits and
# default_max_digits at these module-level names, so they must stay here.
from .exactnum import (
    STR_BELOW,
    DigitString,
    HalfOpenInterval,
    compare_prefix,
    decimal_head,
    digit_length,
    int_to_digits,
)
from .seqgen import TailSpec, term


class UndecidedMembershipError(RuntimeError):
    """Membership could not be resolved within the digit budget."""

    def __init__(self, prefix: DigitString, interval: HalfOpenInterval):
        self.prefix = prefix
        self.interval = interval
        super().__init__(
            f"membership in {interval} undecided after {len(prefix)} digits "
            f"(prefix 0.{prefix})"
        )


@dataclass(frozen=True)
class CountResult:
    interval: HalfOpenInterval
    N: int
    count: int
    ratio: float
    digits_consulted_max: int


def leading_digit(m: int, base: int = 10) -> int:
    """Most significant digit of the base-b expansion of m >= 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if base == 10:
        # below STR_BELOW, str() is exact and skips a call per term
        return int((str(m) if m < STR_BELOW else decimal_head(m)[1])[0])
    while m >= base:
        m //= base
    return m


def census(terms: Iterable[int], base: int = 10) -> list[int]:
    """Leading-digit counts for a stream of positive integers.

    Returns a list indexed by digit - 1 (length base - 1); counts sum to the
    stream length.
    """
    counts = [0] * (base - 1)
    empty = True
    for m in terms:
        counts[leading_digit(m, base) - 1] += 1
        empty = False
    if empty:
        raise ValueError("empty term stream")
    return counts


def _leading_window(interval: HalfOpenInterval) -> tuple[int, int, int]:
    """(L, lo_L, hi_L): the endpoints as L-digit integers, L their longer length.

    For a term a of at least L digits, x = 0.a... lies in [lo, hi) exactly
    when lo_L <= (leading L digits of a) < hi_L: the digits after the first L
    add a value in (0, b^-L), which never reaches the next L-digit step.
    """
    lo, hi = interval.lo, interval.hi
    L = max(len(lo.digits), len(hi.digits), 1)
    return L, lo.scaled(L), hi.scaled(L)


def default_max_digits(spec: TailSpec, n: int) -> int:
    """Digit budget before membership is declared undecided."""
    return 4 * digit_length(term(spec, n, 0), spec.base) + 16


def _membership_stream(
    spec: TailSpec, n: int, interval: HalfOpenInterval, max_digits: int
) -> tuple[bool, int]:
    """Decide lo <= x_n < hi by extending the digit prefix term by term.

    The prefix is one integer of ``used`` <= max_digits digits.  Its leading
    k = min(used, L) digits are compared with those of lo_L and hi_L; equal
    heads leave an endpoint undecided while the prefix is shorter than it.
    """
    base = spec.base
    L, lo_L, hi_L = _leading_window(interval)
    lo_len, hi_len = len(interval.lo.digits), len(interval.hi.digits)
    prefix = used = offset = 0
    while used < max_digits:
        a = term(spec, n, offset)
        offset += 1
        d = digit_length(a, base)
        if used + d > max_digits:
            a //= base ** (used + d - max_digits)
            d = max_digits - used
        prefix = prefix * base**d + a
        used += d
        k = min(used, L)
        head = prefix // base ** (used - k)
        lo_k, hi_k = lo_L // base ** (L - k), hi_L // base ** (L - k)
        if head < lo_k or head > hi_k or (head == hi_k and used >= hi_len):
            return False, used
        if head < hi_k and (head > lo_k or used >= lo_len):
            return True, used
    digits = int_to_digits(prefix, base).digits if used else ()
    raise UndecidedMembershipError(DigitString(base, digits), interval)


def in_interval(
    spec: TailSpec,
    n: int,
    interval: HalfOpenInterval,
    max_digits: int | None = None,
    fast: bool = True,
) -> bool:
    """True iff lo <= x_n < hi, decided by exact digit comparison."""
    if spec.base != interval.base:
        raise ValueError(f"base mismatch: spec base {spec.base} vs interval base {interval.base}")
    if fast:
        L, lo_L, hi_L = _leading_window(interval)
        a = term(spec, n, 0)
        length = digit_length(a, spec.base)
        if length >= L and (max_digits is None or max_digits >= L):
            return lo_L <= a // spec.base ** (length - L) < hi_L
    budget = max_digits if max_digits is not None else default_max_digits(spec, n)
    if budget < 1:
        raise ValueError(f"max_digits must be >= 1, got {budget}")
    member, _ = _membership_stream(spec, n, interval, budget)
    return member


def count_A(
    spec: TailSpec,
    interval: HalfOpenInterval,
    N: int,
    max_digits: int | None = None,
    fast: bool = True,
) -> CountResult:
    """Count indices n_min <= n < n_min + N with x_n in [lo, hi).

    Let L be the longer endpoint length.  A term of at least L digits decides
    membership by its leading L digits alone, so each decade of such terms
    contributes a difference of two ``spec.index_le`` values, and the cost
    grows with the number of decades, not with N.  Only the indices whose
    first term is shorter than L digits are decided by digit streaming; an
    ``UndecidedMembershipError`` can come only from them.  With ``max_digits``
    below L, or with ``fast=False`` (the reference oracle), every index is
    streamed.  Both paths return identical results.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if spec.base != interval.base:
        raise ValueError(f"base mismatch: spec base {spec.base} vs interval base {interval.base}")
    base = spec.base
    start = spec.n_min
    stop = start + N
    L, lo_L, hi_L = _leading_window(interval)
    if fast and (max_digits is None or max_digits >= L):
        # indices whose first term has fewer than L digits come first
        short = min(spec.index_le(base ** (L - 1) - 1), N)
    else:
        short = N
    count = 0
    digits_max = 0
    for n in range(start, start + short):
        budget = max_digits if max_digits is not None else default_max_digits(spec, n)
        member, used = _membership_stream(spec, n, interval, budget)
        count += member
        digits_max = max(digits_max, used)
    if short < N:
        E = digit_length(term(spec, stop - 1, 0), base)
        digits_max = max(digits_max, E if max_digits is None else min(E, max_digits))
        for e in range(L, E + 1):
            scale = base ** (e - L)
            below = max(lo_L * scale, base ** (e - 1)) - 1
            upto = hi_L * scale - 1
            if upto > below:
                count += min(spec.index_le(upto), N) - min(spec.index_le(below), N)
    return CountResult(interval, N, count, count / N, digits_max)
