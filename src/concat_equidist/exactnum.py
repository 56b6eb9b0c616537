"""Exact base-b digit arithmetic.

Digit strings, terminating decimal endpoints in [0, 1], the
prefix-vs-endpoint comparison used to decide interval membership without
ever touching floating point, and integer literals of any length.
"""
from __future__ import annotations

import enum
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

MIN_BASE = 2
MAX_BASE = 36

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _check_base(base: int) -> None:
    if not (MIN_BASE <= base <= MAX_BASE):
        raise ValueError(f"base must be in [{MIN_BASE}, {MAX_BASE}], got {_show(base)}")


def _show(x: object) -> str:
    """repr(x), with ints of more than 1000 bits (301 digits) shown by size
    and texts of more than 80 characters by their ends and length.

    Every message that can echo a user's integer or text shows it this way:
    repr fails past 4300 digits, and long before that it drowns the message.
    """
    if isinstance(x, tuple):
        inner = ", ".join(map(_show, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if isinstance(x, int) and abs(x).bit_length() > 1000:
        return f"{'-' if x < 0 else ''}<{abs(x).bit_length()}-bit int>"
    if isinstance(x, str) and len(x) > 80:
        return f"{x[:40]!r}...{x[-20:]!r} ({len(x)} characters)"
    return repr(x)


def decimal_int(text: str) -> int:
    """int(text) for a literal of any length: the same texts refused, the same values.

    ``int`` refuses literals past ``sys.get_int_max_str_digits()`` digits
    (4300 by default), a limit set for the whole process, which stays as it
    is.  It takes a longer text exactly when it takes the text with each
    group of digits (joined by single underscores) written as one 0; the
    digits of the one group are then read in pieces it never checks.
    Pythons without the limit (before 3.10.7) convert any length at once.
    """
    threshold = getattr(sys.int_info, "str_digits_check_threshold", None)
    if threshold is None or len(text) <= threshold:
        return int(text)
    frame = re.sub(_DIGIT_GROUP, "0", text)
    int(frame)  # raises for a text that int refuses
    digits = re.search(_DIGIT_GROUP, text)[0].replace("_", "")
    value = 0
    for i in range(0, len(digits), threshold):
        piece = digits[i : i + threshold]
        value = value * 10 ** len(piece) + int(piece)
    return -value if "-" in frame else value


_DIGIT_GROUP = r"\d+(?:_\d+)*"  # compiled on first use, not at start-up


class PrefixOrder(enum.Enum):
    """Outcome of comparing all extensions of a digit prefix against an endpoint."""

    DEFINITELY_LESS = "less"
    DEFINITELY_GREATER_OR_EQUAL = "greater_or_equal"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class DigitString:
    """A finite run of base-b digits, most significant first, held as text in 0-9a-z.

    Interpreted either as an integer expansion (no leading zeros) or as the
    known prefix of a fractional expansion 0.d1d2...; the empty string is the
    empty prefix.
    """

    base: int
    text: str

    def __post_init__(self) -> None:
        _check_base(self.base)
        valid = _DIGIT_CHARS[: self.base]
        if self.text.encode("ascii", "replace").translate(None, valid.encode()):  # b"" iff all are digits
            bad = next(c for c in self.text if c not in valid)
            d = _DIGIT_CHARS.find(bad)
            raise ValueError(f"digit {d if d >= 0 else repr(bad)} out of range for base {self.base}")

    @property
    def digits(self) -> tuple[int, ...]:
        return tuple(map(_DIGIT_CHARS.index, self.text))

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text


def int_to_digits(n: int, base: int) -> DigitString:
    """Base-b expansion of a positive integer, most significant digit first."""
    _check_base(base)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return DigitString(base, digit_text(n, base))


def digit_text(n: int, base: int) -> str:
    """The base-b digits of n >= 1: ``str`` in base 10 below ``STR_BELOW``, one
    divmod per digit below ``_SPLIT_BITS``, else those of n // b^h and of n % b^h
    padded to h, h about half the digits: a few big divisions per halving."""
    if base == 10 and n < STR_BELOW:
        return str(n)
    if n.bit_length() <= _SPLIT_BITS:
        out = []
        while n:
            n, r = divmod(n, base)
            out.append(_DIGIT_CHARS[r])
        return "".join(reversed(out))
    h = int(n.bit_length() / math.log2(base)) // 2
    high, low = divmod(n, base**h)
    return digit_text(high, base) + digit_text(low, base).rjust(h, "0")


HEAD_DIGITS = 17  # enough for >= 12 correct fractional digits of log10
# str() is faster below about 260 digits (CPython 3.11); above, it costs
# quadratic time and fails past 4300 digits.
STR_BELOW = 10**256
_SPLIT_BITS = 256  # below it one divmod per digit beats splitting


_POW10_STEP = 16
_last_pow10 = (0, 1)  # the e and 10**e of the last call


def _pow10(e: int) -> int:
    """10**e, built from the last power returned when e grew by at most ``_POW10_STEP``.

    Terms of a growing stream past 256 digits, such as k n for a huge k or
    the values of a polynomial with a huge constant term, share e several
    times in a row or raise it by one.  Building 10**e afresh costs
    about ten times the division by it; multiplying the last power by the
    small 10**(e - last e) costs a few percent of that.  Any other e is
    built afresh.
    """
    global _last_pow10
    last_e, last = _last_pow10
    if e != last_e:
        last = last * 10 ** (e - last_e) if last_e < e <= last_e + _POW10_STEP else 10**e
        _last_pow10 = (e, last)
    return last


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
    q, r = divmod(m, _pow10(e))
    s = str(q)
    return e + len(s), s[:HEAD_DIGITS], not r and not s[HEAD_DIGITS:].strip("0")


def digit_length(n: int, base: int) -> int:
    """Number of base-b digits of n, exactly, at about the cost of one power of b.

    2^(bits-1) <= n < 2^bits, so the length is floor(bits log_b 2) or one
    more.  The float quotient bits / log2(b) estimates that floor to within
    one, so the count starts one below it and steps up while n >= b^length:
    two or three comparisons, and no float decides a digit.
    """
    _check_base(base)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    length = max(int(n.bit_length() / math.log2(base)) - 1, 0)
    power = base**length
    while n >= power:
        power *= base
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
            raise ValueError(f"invalid digit in endpoint {_show(text)}") from None
        if any(d >= base for d in digits):
            raise ValueError(f"endpoint {_show(text)} has digits out of range for base {base}")
        while digits and digits[-1] == 0:
            digits = digits[:-1]
        if whole == "0":
            return cls(base, digits)
        if whole == "1":
            if digits:
                raise ValueError(f"endpoint {_show(text)} exceeds 1")
            return cls(base, (), is_one=True)
        raise ValueError(f"endpoint {_show(text)} outside [0, 1]")

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
