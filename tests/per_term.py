"""The per-term Benford reference: one term's leading digit and {log10 m} at a time.

``equidist`` reads a stream of terms in int64 batches (``_mantissas``, then
``_digit_counts`` and ``_exact_parts``).  These functions read each term on
its own, from all of its decimal digits (``str_decimal_head``), and the
tests hold the library's mantissas and the batched reports to them, bit for
bit.
"""
from __future__ import annotations

import math
import sys
from typing import Iterable

from concat_equidist.exactnum import _show


def str_decimal_head(m: int) -> tuple[str, bool]:
    """The leading min(n, 17) of the n decimal digits of m >= 1, and whether every later digit is 0.

    The digits come from ``str(m)``, with the int-str digit limit lifted for
    the one call.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        s = str(m)
    finally:
        sys.set_int_max_str_digits(limit)
    return s[:17], not s[17:].strip("0")


def log10_fracpart(m: int) -> float:
    """{log10 m} in [0, 1), with terms c*10^k landing on the correct side.

    Trailing zeros are stripped first so exact powers of ten (and small
    multiples of them) never round to 0.999... from the wrong side.  The
    17-digit head is stripped of trailing zeros only when every later digit
    is 0 as well.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {_show(m)}")
    head, exact = str_decimal_head(m)
    s = head.rstrip("0") if exact else head
    if s == "1":
        return 0.0
    return (math.log10(int(s)) - (len(s) - 1)) % 1.0


def leading_digit(m: int) -> int:
    """Most significant decimal digit of m >= 1."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {_show(m)}")
    return int(str_decimal_head(m)[0][0])


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
