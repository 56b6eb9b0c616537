"""The per-term Benford reference: one term's leading digit and {log10 m} at a time.

``equidist`` reads a stream of terms in int64 batches (``_mantissas``, then
``_digit_counts`` and ``_exact_parts``).  These functions read each term on
its own, from its ``decimal_head``, and the tests hold them to the str()
rules and the batched reports to them, bit for bit.
"""
from __future__ import annotations

import math
from typing import Iterable

from concat_equidist.exactnum import _show, decimal_head


def log10_fracpart(m: int) -> float:
    """{log10 m} in [0, 1), with terms c*10^k landing on the correct side.

    Trailing zeros are stripped first so exact powers of ten (and small
    multiples of them) never round to 0.999... from the wrong side.  The
    digits come from ``decimal_head``; its 17-digit head is stripped of
    trailing zeros only when every later digit is 0 as well.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {_show(m)}")
    _, head, exact = decimal_head(m)
    s = head.rstrip("0") if exact else head
    if s == "1":
        return 0.0
    return (math.log10(int(s)) - (len(s) - 1)) % 1.0


def leading_digit(m: int) -> int:
    """Most significant decimal digit of m >= 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {_show(m)}")
    return int(decimal_head(m)[1][0])


def census(terms: Iterable[int]) -> list[int]:
    """Leading-digit counts for a stream of positive integers, indexed by digit - 1."""
    counts = [0] * 9
    empty = True
    for m in terms:
        counts[leading_digit(m) - 1] += 1
        empty = False
    if empty:
        raise ValueError("empty term stream")
    return counts
