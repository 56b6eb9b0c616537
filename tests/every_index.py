"""The every-index oracle of ``counting``: each x_n is streamed against every cut.

``counting._cells`` streams only the indices whose term ties a cut's leading
digits; these functions stream every n_min <= n < n_min + N through the same
``counting._rank``, in ascending n, so they give the counts, the digits
consulted and the first undecided index that the closed form must match.
"""
from __future__ import annotations

import itertools

from concat_equidist.counting import CountResult, _check, _rank, default_max_digits
from concat_equidist.exactnum import ExactEndpoint, HalfOpenInterval
from concat_equidist.seqgen import TailSpec


def as_pairs(cuts: list[ExactEndpoint]) -> list[tuple[int, int]]:
    """The cuts as ``_rank`` takes them: (l, c b^l) for a cut c of l digits."""
    return [(c.length, c.scaled) for c in cuts]


def in_interval(spec: TailSpec, n: int, interval: HalfOpenInterval) -> bool:
    """True iff lo <= x_n < hi, decided by exact digit comparison."""
    _check(spec, interval, 1)
    return _rank(spec, n, interval, as_pairs([interval.lo, interval.hi]), default_max_digits(spec, n))[0] == 1


def cells(spec: TailSpec, interval: HalfOpenInterval, cuts: list[ExactEndpoint], N: int) -> tuple[list[int], int]:
    """``counting._cells`` at the one stop N: ([F(c) - F(cuts[0]) for c in cuts], digits used)."""
    _check(spec, interval, N)
    pairs = as_pairs(cuts)
    at_rank = [0] * (len(cuts) + 1)  # how many x_n have r cuts at or below them
    digits_max = 0
    for n in range(spec.n_min, spec.n_min + N):
        r, used = _rank(spec, n, interval, pairs, default_max_digits(spec, n))
        at_rank[r] += 1
        digits_max = max(digits_max, used)
    F = list(itertools.accumulate(at_rank[:-1]))  # F(cuts[j]) = #{n : r <= j}
    return [f - F[0] for f in F], digits_max


def count_A(spec: TailSpec, interval: HalfOpenInterval, N: int) -> CountResult:
    """``counting.count_A`` with every index streamed."""
    (_, count), digits_max = cells(spec, interval, [interval.lo, interval.hi], N)
    return CountResult(interval, N, count, count / N, digits_max)
