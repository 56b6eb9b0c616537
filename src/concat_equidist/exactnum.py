"""Exact base-b digit arithmetic.

Digit strings, terminating decimal endpoints in [0, 1], and the
prefix-vs-endpoint comparison used to decide interval membership without
ever touching floating point.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

MIN_BASE = 2
MAX_BASE = 36

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _check_base(base: int) -> None:
    if not (MIN_BASE <= base <= MAX_BASE):
        raise ValueError(f"base must be in [{MIN_BASE}, {MAX_BASE}], got {base}")


class PrefixOrder(enum.Enum):
    """Outcome of comparing all extensions of a digit prefix against an endpoint."""

    DEFINITELY_LESS = "less"
    DEFINITELY_GREATER_OR_EQUAL = "greater_or_equal"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class DigitString:
    """A finite run of base-b digits, most significant first.

    Interpreted either as an integer expansion (no leading zeros) or as the
    known prefix of a fractional expansion 0.d1d2...; the empty string is the
    empty prefix.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_base(self.base)
        for d in self.digits:
            if not (0 <= d < self.base):
                raise ValueError(f"digit {d} out of range for base {self.base}")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return "".join(_DIGIT_CHARS[d] for d in self.digits)


def int_to_digits(n: int, base: int) -> DigitString:
    """Base-b expansion of a positive integer, most significant digit first."""
    _check_base(base)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = []
    while n:
        n, r = divmod(n, base)
        out.append(r)
    out.reverse()
    return DigitString(base, tuple(out))


def digits_to_int(ds: DigitString) -> int:
    value = 0
    for d in ds.digits:
        value = value * ds.base + d
    return value


HEAD_DIGITS = 17  # enough for >= 12 correct fractional digits of log10
# str() is faster below about 260 digits (CPython 3.11); above, it costs
# quadratic time and fails past 4300 digits.
STR_BELOW = 10**256


def decimal_head(m: int) -> tuple[int, str, bool]:
    """(n, head, exact) for m >= 1: its decimal digit count n, its leading
    min(n, HEAD_DIGITS) digits as a string, and whether every later digit is 0.

    Large m never goes through str(m): the digit count comes from
    ``bit_length`` and the head from one exact division by a power of ten.
    """
    if m < STR_BELOW:
        s = str(m)
        return len(s), s[:HEAD_DIGITS], not s[HEAD_DIGITS:].strip("0")
    # 0.30102999 < log10(2), so m has at least e + HEAD_DIGITS digits
    e = (m.bit_length() - 1) * 30102999 // 10**8 + 1 - HEAD_DIGITS
    q, r = divmod(m, 10**e)
    s = str(q)
    return e + len(s), s[:HEAD_DIGITS], not r and not s[HEAD_DIGITS:].strip("0")


def digit_length(n: int, base: int) -> int:
    """Number of base-b digits of n, by exact integer division (no float log)."""
    _check_base(base)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    length = 0
    while n:
        n //= base
        length += 1
    return length


@dataclass(frozen=True)
class ExactEndpoint:
    """A terminating base-b decimal in [0, 1], in canonical form.

    Canonical means no trailing zeros, so representations are unique; 0 is the
    empty digit list and 1.0 is the distinguished ``is_one`` flag (no digits).
    """

    base: int
    digits: tuple[int, ...] = ()
    is_one: bool = False

    def __post_init__(self) -> None:
        _check_base(self.base)
        if self.is_one and self.digits:
            raise ValueError("the endpoint 1.0 carries no digits")
        for d in self.digits:
            if not (0 <= d < self.base):
                raise ValueError(f"digit {d} out of range for base {self.base}")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("endpoint digits must be in canonical form (no trailing zeros)")

    @classmethod
    def parse(cls, text: str, base: int = 10) -> "ExactEndpoint":
        """Parse a decimal string like "0.1", "0.25", "0" or "1"."""
        _check_base(base)
        s = text.strip().lower()
        if not s:
            raise ValueError("empty endpoint string")
        if "." in s:
            whole, frac = s.split(".", 1)
        else:
            whole, frac = s, ""
        whole = whole or "0"
        try:
            digits = tuple(_DIGIT_CHARS.index(ch) for ch in frac)
        except ValueError:
            raise ValueError(f"invalid digit in endpoint {text!r}") from None
        if any(d >= base for d in digits):
            raise ValueError(f"endpoint {text!r} has digits out of range for base {base}")
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        if whole == "0":
            return cls(base, digits)
        if whole == "1":
            if digits:
                raise ValueError(f"endpoint {text!r} exceeds 1")
            return cls(base, (), is_one=True)
        raise ValueError(f"endpoint {text!r} outside [0, 1]")

    def scaled(self, L: int) -> int:
        """The endpoint times base**L, an integer for L >= len(digits)."""
        if self.is_one:
            return self.base**L
        value = 0
        for d in self.digits:
            value = value * self.base + d
        return value * self.base ** (L - len(self.digits))

    def value(self) -> Fraction:
        """Exact rational value of the endpoint."""
        return Fraction(self.scaled(len(self.digits)), self.base ** len(self.digits))

    def __lt__(self, other: "ExactEndpoint") -> bool:
        if self.base != other.base:
            raise ValueError("cannot compare endpoints with different bases")
        # canonical digits order like their values: a proper prefix is smaller
        return (self.is_one, self.digits) < (other.is_one, other.digits)

    def __le__(self, other: "ExactEndpoint") -> bool:
        return self == other or self < other

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        if not self.digits:
            return "0"
        return "0." + "".join(_DIGIT_CHARS[d] for d in self.digits)


def compare_prefix(prefix: DigitString, endpoint: ExactEndpoint) -> PrefixOrder:
    """Compare every digit-stream extension of ``prefix`` against ``endpoint``.

    ``prefix`` is the known start of a fractional expansion 0.d1d2...; the
    comparison is lexicographic on digit strings (concatenation streams never
    terminate in an all-(b-1) tail, so this coincides with numeric order).
    """
    if prefix.base != endpoint.base:
        raise ValueError(
            f"base mismatch: prefix base {prefix.base} vs endpoint base {endpoint.base}"
        )
    if endpoint.is_one:
        # a digit stream 0.d1d2... never reaches 1
        return PrefixOrder.DEFINITELY_LESS
    p = prefix.digits
    e = endpoint.digits
    m = len(p)
    if m <= len(e):
        head = e[:m]
        if p < head:
            return PrefixOrder.DEFINITELY_LESS
        if p > head:
            return PrefixOrder.DEFINITELY_GREATER_OR_EQUAL
        return PrefixOrder.UNDECIDED if m < len(e) else PrefixOrder.DEFINITELY_GREATER_OR_EQUAL
    padded = e + (0,) * (m - len(e))
    if p < padded:
        return PrefixOrder.DEFINITELY_LESS
    # p == padded means the prefix value already equals the endpoint
    return PrefixOrder.DEFINITELY_GREATER_OR_EQUAL


@dataclass(frozen=True)
class HalfOpenInterval:
    """Interval [lo, hi) with exact terminating-decimal bounds."""

    lo: ExactEndpoint
    hi: ExactEndpoint

    def __post_init__(self) -> None:
        if self.lo.base != self.hi.base:
            raise ValueError("interval endpoints must share a base")
        if not self.lo < self.hi:
            raise ValueError(f"require lo < hi, got [{self.lo}, {self.hi})")

    @property
    def base(self) -> int:
        return self.lo.base

    @classmethod
    def parse(cls, lo: str, hi: str, base: int = 10) -> "HalfOpenInterval":
        return cls(ExactEndpoint.parse(lo, base), ExactEndpoint.parse(hi, base))

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"
