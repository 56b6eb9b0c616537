"""Interval membership of tail values and the counting function A([a,b); N)."""
from __future__ import annotations

from dataclasses import dataclass

# bench/tracer.py wraps term, compare_prefix (unused here), int_to_digits and
# default_max_digits at these module-level names, so they must stay here.
from .exactnum import DigitString, HalfOpenInterval, _show, compare_prefix, digit_length, int_to_digits
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
    L, lo_L, hi_L = interval.window
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
    raise UndecidedMembershipError(int_to_digits(prefix, base) if used else DigitString(base, ""), interval)


def in_interval(
    spec: TailSpec, n: int, interval: HalfOpenInterval, max_digits: int | None = None
) -> bool:
    """True iff lo <= x_n < hi, decided by exact digit comparison."""
    if spec.base != interval.base:
        raise ValueError(f"base mismatch: spec base {spec.base} vs interval base {interval.base}")
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

    The terms increase, so each decade of terms (those of e digits) is a run
    of consecutive indices, and the count is a loop over the decades from
    a_{n_min} to the last term: its cost grows with the number of decades,
    not with N.  Let L be the longer endpoint length, k = min(e, L), and
    lo_k, hi_k the endpoints' leading k digits.  The first term gives the
    first k digits of x_n, so the stream decides an index on that term alone
    unless it is a tie: e < L and a_n = lo_k or hi_k, an endpoint longer
    than e digits.  Every other member of a decade has its term in one range,
    counted as a difference of two ``spec.index_le`` values.  The at most two
    ties per decade are streamed in ascending order, and only they can raise
    ``UndecidedMembershipError``, the oracle's first one.  With
    ``max_digits`` below L, or with ``fast=False`` (the reference oracle),
    every index is streamed.  Both paths return identical results.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {_show(N)}")
    if spec.base != interval.base:
        raise ValueError(f"base mismatch: spec base {spec.base} vs interval base {interval.base}")
    if max_digits is not None and max_digits < 1:
        raise ValueError(f"max_digits must be >= 1, got {max_digits}")
    base = spec.base
    start = spec.n_min
    stop = start + N
    L, lo_L, hi_L = interval.window
    if fast and (max_digits is None or max_digits >= L):
        lo_len, hi_len = len(interval.lo.digits), len(interval.hi.digits)
        E = digit_length(term(spec, stop - 1, 0), base)
        count = 0
        digits_max = E if max_digits is None else min(E, max_digits)
        streamed = []
        for e in range(digit_length(term(spec, start, 0), base), E + 1):
            least = base ** (e - 1)
            if e >= L:
                scale = base ** (e - L)
                low, high = lo_L * scale, hi_L * scale
            else:
                scale = base ** (L - e)
                low, high = lo_L // scale, hi_L // scale
                ties = {v for v, longer in ((low, e < lo_len), (high, e < hi_len)) if longer and v >= least}
                for v in sorted(ties):
                    n = start + spec.index_le(v) - 1
                    if start <= n < stop and term(spec, n, 0) == v:
                        streamed.append(n)
                low += e < lo_len  # a term equal to lo_k is then a tie, not a member
            below = max(low, least) - 1
            upto = high - 1
            if upto > below:
                count += min(spec.index_le(upto), N) - min(spec.index_le(below), N)
    else:
        count = digits_max = 0
        streamed = range(start, stop)
    for n in streamed:
        budget = max_digits if max_digits is not None else default_max_digits(spec, n)
        member, used = _membership_stream(spec, n, interval, budget)
        count += member
        digits_max = max(digits_max, used)
    return CountResult(interval, N, count, count / N, digits_max)
