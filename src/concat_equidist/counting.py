"""Interval membership of tail values and the counting function A([a,b); N)."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

# bench/tracer.py wraps term, compare_prefix (unused here), int_to_digits and
# default_max_digits at these module-level names, so they must stay here.
from .exactnum import DigitString, ExactEndpoint, HalfOpenInterval, _show, compare_prefix, digit_length, int_to_digits
from .seqgen import TailSpec, term


class UndecidedMembershipError(RuntimeError):
    """Membership of x_n could not be resolved within the digit budget."""

    def __init__(self, n: int, prefix: DigitString, interval: HalfOpenInterval):
        self.n = n
        self.prefix = prefix
        self.interval = interval
        shown = f"x_{_show(n)} in {interval}"
        super().__init__(f"membership of {shown} undecided after {len(prefix)} digits (prefix 0.{prefix})")


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


def _prefixes(spec: TailSpec, n: int, max_digits: int) -> Iterator[tuple[int, int]]:
    """(prefix, used) after each term of x_n: its first ``used`` <= max_digits digits as one integer."""
    base = spec.base
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
        yield prefix, used


def _below(
    spec: TailSpec, n: int, interval: HalfOpenInterval, c: ExactEndpoint, prefixes: Iterator[tuple[int, int]]
) -> tuple[bool, int, int]:
    """(x_n < c, digits used, prefix) for an endpoint c of ``interval``: the
    ``prefixes`` of x_n are read until one differs from c's first ``used``
    digits or c has no more."""
    length = len(c.digits)
    scaled = c.scaled(length)
    for prefix, used in prefixes:
        if used >= length:
            return prefix < scaled * spec.base ** (used - length), used, prefix
        head = scaled // spec.base ** (length - used)
        if prefix != head:
            return prefix < head, used, prefix
    raise UndecidedMembershipError(n, int_to_digits(prefix, spec.base), interval)


def _member(spec: TailSpec, n: int, interval: HalfOpenInterval, max_digits: int) -> tuple[bool, int]:
    """(lo <= x_n < hi, digits used): x_n < lo decides it, else x_n < hi does,
    read on from the prefix that decided lo, so each term is built once."""
    prefixes = _prefixes(spec, n, max_digits)
    below, used, prefix = _below(spec, n, interval, interval.lo, prefixes)
    if below:
        return False, used
    below, used_hi, _ = _below(spec, n, interval, interval.hi, itertools.chain([(prefix, used)], prefixes))
    return below, max(used, used_hi)


def _check(spec: TailSpec, interval: HalfOpenInterval, N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {_show(N)}")
    if spec.base != interval.base:
        raise ValueError(f"base mismatch: spec base {spec.base} vs interval base {interval.base}")


def in_interval(spec: TailSpec, n: int, interval: HalfOpenInterval) -> bool:
    """True iff lo <= x_n < hi, decided by exact digit comparison."""
    _check(spec, interval, 1)
    return _member(spec, n, interval, default_max_digits(spec, n))[0]


def count_A(spec: TailSpec, interval: HalfOpenInterval, N: int, fast: bool = True) -> CountResult:
    """Count indices n_min <= n < n_min + N with x_n in [lo, hi).

    One walk over the decades of terms (``_counts``): the cost grows with the
    decades, not with N.  ``fast=False``, the reference oracle, streams every
    index instead; both give the same result or ``UndecidedMembershipError``.
    """
    if fast:
        return _counts(spec, interval, [N])[0]
    _check(spec, interval, N)
    count = digits_max = 0
    for n in range(spec.n_min, spec.n_min + N):
        member, used = _member(spec, n, interval, default_max_digits(spec, n))
        count += member
        digits_max = max(digits_max, used)
    return CountResult(interval, N, count, count / N, digits_max)


def _counts(spec: TailSpec, interval: HalfOpenInterval, stops: list[int]) -> list[CountResult]:
    """``count_A`` at each N of the ascending ``stops``, in one walk over the decades.

    The count is F(hi) - F(lo), F(c) = #{n < n_min + N : x_n < c}.  The terms
    increase, so those of e digits are consecutive.  Let v be the first e of
    c's l digits, or c b^e when e >= l: a_n < v gives x_n < c, a_n > v gives
    x_n >= c, so the decade adds index_le(max(v, b^(e-1)) - 1) to F(c), less
    the terms below it, which cancel.  a_n = v with e < l is a tie, streamed
    against c (as membership if it ties both).  Full decades carry over to
    later stops; a stop's last decade is cut at N.  Ties are streamed in
    ascending n below the last stop, so the first undecided one is the oracle's.
    """
    _check(spec, interval, stops[0])
    base, start = spec.base, spec.n_min
    last = start + stops[-1]
    ends = [(c, len(c.digits), c.scaled(len(c.digits))) for c in (interval.lo, interval.hi)]
    stop_decades = [digit_length(term(spec, start + N - 1, 0), base) for N in stops]
    results: list[CountResult] = []
    ties: list[tuple[int, list[ExactEndpoint]]] = []  # (n, the endpoints a_n ties), not yet streamed
    passed = tied = digits_max = 0  # the full decades' count, the ties' share, their most digits
    for e in range(digit_length(term(spec, start, 0), base), stop_decades[-1] + 1):
        least = base ** (e - 1)
        F, new_ties = [], {}
        for c, length, scaled in ends:
            v = scaled // base ** (length - e) if e < length else scaled * base ** (e - length)
            F.append(spec.index_le(max(v, least) - 1))
            n = start + F[-1]  # the first index with a_n >= v; if lo ties it too, v_hi = a_n = v_lo
            if e < length and v >= least and n < last and (n in new_ties or term(spec, n, 0) == v):
                new_ties.setdefault(n, []).append(c)
        ties += new_ties.items()
        while len(results) < len(stops) and stop_decades[len(results)] == e:
            N = stops[len(results)]
            while ties and ties[0][0] < start + N:
                n, tied_to = ties.pop(0)
                budget = default_max_digits(spec, n)
                if len(tied_to) == 2:
                    share, used = _member(spec, n, interval, budget)
                else:
                    below, used, _ = _below(spec, n, interval, tied_to[0], _prefixes(spec, n, budget))
                    share = below if tied_to[0] is interval.hi else -below
                tied += share
                digits_max = max(digits_max, used)
            count = passed + min(F[1], N) - min(F[0], N) + tied
            results.append(CountResult(interval, N, count, count / N, max(e, digits_max)))
        passed += F[1] - F[0]
    return results
