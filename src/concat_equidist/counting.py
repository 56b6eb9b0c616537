"""Interval membership of tail values and the counting function A([a,b); N)."""
from __future__ import annotations

from dataclasses import dataclass

# bench/tracer.py wraps term, compare_prefix (unused here), int_to_digits and
# default_max_digits at these module-level names, so they must stay here.
from .exactnum import DigitString, ExactEndpoint, HalfOpenInterval, _brief, _show, compare_prefix, digit_length, int_to_digits
from .seqgen import TailSpec, term


class UndecidedMembershipError(RuntimeError):
    """Membership of x_n could not be resolved within the digit budget."""

    def __init__(self, n: int, prefix: DigitString, interval: HalfOpenInterval):
        self.n = n
        self.prefix = prefix
        self.interval = interval
        shown = f"x_{_show(n)} in {_brief(str(interval))}"
        super().__init__(f"membership of {shown} undecided after {len(prefix)} digits (prefix {_brief(f'0.{prefix}')})")


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


def _rank(
    spec: TailSpec, n: int, interval: HalfOpenInterval, cuts: list[tuple[int, int]], budget: int
) -> tuple[int, int]:
    """(r, digits used): r of the ascending ``cuts`` are at or below x_n.

    A cut c of l digits is the pair (l, c b^l).  x_n is streamed once, at
    least one term and at most ``budget`` digits, as one integer prefix of
    ``used`` digits.  Each cut is decided from the prefix that decided the
    one before, against h = floor(c b^used): a prefix below h gives x_n < c,
    above h gives x_n >= c, and equal to h gives x_n >= c once used >= l;
    before that, the next term is read.
    """
    base = spec.base
    prefix = used = offset = r = 0
    while used < budget:
        a = term(spec, n, offset)
        offset += 1
        d = digit_length(a, base)
        if used + d > budget:
            a //= base ** (used + d - budget)
            d = budget - used
        prefix = prefix * base**d + a
        used += d
        while r < len(cuts):
            length, scaled = cuts[r]
            if used < length:
                head = scaled // base ** (length - used)
                if prefix == head:
                    break
            else:
                head = scaled * base ** (used - length)
            if prefix < head:
                return r, used
            r += 1
        else:
            return r, used
    raise UndecidedMembershipError(n, int_to_digits(prefix, base), interval)


def _check(spec: TailSpec, interval: HalfOpenInterval, N: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {_show(N)}")
    if spec.base != interval.base:
        raise ValueError(f"base mismatch: spec base {spec.base} vs interval base {interval.base}")


def count_A(spec: TailSpec, interval: HalfOpenInterval, N: int) -> CountResult:
    """Count indices n_min <= n < n_min + N with x_n in [lo, hi).

    One walk over the decades of terms (``_cells`` on the cuts lo, hi), so
    the cost grows with the decades, not with N: only the indices whose term
    ties an endpoint's leading digits are streamed, each once.
    """
    [((_, count), used)] = _cells(spec, interval, [interval.lo, interval.hi], [N])
    return CountResult(interval, N, count, count / N, used)


def _cells(
    spec: TailSpec, interval: HalfOpenInterval, cuts: list[ExactEndpoint], stops: list[int]
) -> list[tuple[list[int], int]]:
    """([F(c) - F(cuts[0]) for c in cuts], digits used) at each N of the
    ascending ``stops``, in one walk over the decades; F(c) = #{n < n_min + N : x_n < c}.

    The ascending ``cuts`` lie in ``interval``, which names it in errors.  The
    terms increase, so those of e digits are consecutive.  Let v be the first
    e of c's l digits, or c b^e when e >= l: a_n < v gives x_n < c, a_n > v
    gives x_n >= c, so the decade adds index_le(max(v, b^(e-1)) - 1) to F(c),
    less the terms below it, which cancel in the differences.  a_n = v with
    e < l is a tie; the cuts a_n ties are consecutive, and one ``_rank`` of
    x_n against them adds j >= r to each tied F(cuts[j]).  Full decades carry
    over to later stops; a stop's last decade is cut at N.  Ties are streamed
    in ascending n below the last stop, so the first undecided one is the
    every-index count's.
    """
    _check(spec, interval, stops[0])
    base, start = spec.base, spec.n_min
    last = start + stops[-1]
    pairs = [(c.length, c.scaled) for c in cuts]
    stop_decades = [digit_length(term(spec, start + N - 1, 0), base) for N in stops]
    results: list[tuple[list[int], int]] = []
    below = [0] * len(cuts)  # per cut: index_le(max(v, b^(e-1)) - 1) in the current decade
    total = [0] * len(cuts)  # per cut: those of every decade walked, and the ties' shares
    digits_max = 0
    for e in range(digit_length(term(spec, start, 0), base), stop_decades[-1] + 1):
        least = base ** (e - 1)
        ties: dict[int, list[int]] = {}  # n -> the cuts a_n ties, in ascending n
        for j, (length, scaled) in enumerate(pairs):
            v = scaled // base ** (length - e) if e < length else scaled * base ** (e - length)
            below[j] = i = spec.index_le(max(v, least) - 1)
            total[j] += i
            n = start + i  # the first index with a_n >= v; if cut j - 1 ties it too, a_n = v
            if e < length and v >= least and n < last and (n in ties or term(spec, n, 0) == v):
                ties.setdefault(n, []).append(j)
        # each stop of this decade is counted before the first tie at or above it is streamed
        for n, tied in [*ties.items(), (last, [])]:
            while len(results) < len(stops) and stop_decades[len(results)] == e:
                N = stops[len(results)]
                if start + N > n:
                    break
                F0 = total[0] - max(below[0] - N, 0)
                results.append(([t - max(f - N, 0) - F0 for t, f in zip(total, below)], max(e, digits_max)))
            if tied:
                r, used = _rank(spec, n, interval, pairs[tied[0] : tied[-1] + 1], default_max_digits(spec, n))
                for j in tied:
                    total[j] += j >= tied[0] + r
                digits_max = max(digits_max, used)
    return results
