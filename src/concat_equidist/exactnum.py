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


def _brief(text: str) -> str:
    """``text`` itself up to 80 characters, else shortened as ``_show`` does."""
    return text if len(text) <= 80 else _show(text)


def decimal_int(text: str) -> int:
    """int(text) for a literal of any length: the same texts refused, the same values.

    ``int`` refuses literals past ``sys.get_int_max_str_digits()`` digits
    (4300 by default), a limit set for the whole process, which stays as it
    is.  It takes a longer text exactly when it takes the text with each
    group of digits (joined by single underscores) written as one 0; the
    digits of the one group are then read by ``_read_int``.
    """
    if len(text) <= _INT_CHUNK:
        return int(text)
    frame = re.sub(_DIGIT_GROUP, "0", text)
    int(frame)  # raises for a text that int refuses
    value = _read_int(re.search(_DIGIT_GROUP, text)[0].replace("_", ""), 10)
    return -value if "-" in frame else value


def _read_int(digits: str, base: int) -> int:
    """int(digits, base) for a run of digits of any length (0 for none): ``int``
    reads up to ``_INT_CHUNK`` digits, which it never checks against the limit;
    a longer run is its high part times b^h plus its last h digits, h about
    half of them, the mirror of ``digit_text``: a few big products per halving."""
    if len(digits) <= _INT_CHUNK:
        return int(digits or "0", base)
    h = len(digits) // 2
    return _read_int(digits[:-h], base) * base**h + _read_int(digits[-h:], base)


_DIGIT_GROUP = r"\d+(?:_\d+)*"  # compiled on first use, not at start-up
# int checks the digit limit only on texts longer than this; Pythons without the limit (before 3.10.7) never do
_INT_CHUNK = getattr(sys.int_info, "str_digits_check_threshold", sys.maxsize)


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

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text


def int_to_digits(n: int, base: int) -> DigitString:
    """Base-b expansion of a positive integer, most significant digit first."""
    _check_base(base)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {_show(n)}")
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
        raise ValueError(f"n must be >= 1, got {_show(n)}")
    length = max(int(n.bit_length() / math.log2(base)) - 1, 0)
    power = base**length
    while n >= power:
        power *= base
        length += 1
    return length


@dataclass(frozen=True)
class ExactEndpoint:
    """A terminating base-b decimal c in [0, 1], as the pair c = scaled / b^length.

    The pair is in lowest terms (b does not divide ``scaled`` when length > 0),
    so each value has one form: 0 is (0, 0), 1 is (0, 1), 0.25 is (2, 25).
    """

    base: int
    length: int
    scaled: int

    def __post_init__(self) -> None:
        _check_base(self.base)
        if self.length < 0 or not 0 <= self.scaled <= self.base**self.length:
            raise ValueError(f"endpoint {_show(self.scaled)} / {self.base}^{_show(self.length)} outside [0, 1]")
        if self.length and not self.scaled % self.base:
            raise ValueError(f"endpoint {_show(self.scaled)} / {self.base}^{_show(self.length)} not in lowest terms")

    @classmethod
    def parse(cls, text: str, base: int = 10) -> "ExactEndpoint":
        """Parse a decimal string like "0.1", "0.25", "0" or "1"."""
        _check_base(base)
        s = text.strip().lower()
        if not s:
            raise ValueError("empty endpoint string")
        whole, _, frac = s.partition(".")
        whole = whole or "0"
        bad = set(frac) - set(_DIGIT_CHARS[:base])
        if bad - set(_DIGIT_CHARS):
            raise ValueError(f"invalid digit in endpoint {_show(text)}")
        if bad:
            raise ValueError(f"endpoint {_show(text)} has digits out of range for base {base}")
        frac = frac.rstrip("0")
        if whole == "0":
            return cls(base, len(frac), _read_int(frac, base))
        if whole == "1":
            if frac:
                raise ValueError(f"endpoint {_show(text)} exceeds 1")
            return cls(base, 0, 1)
        raise ValueError(f"endpoint {_show(text)} outside [0, 1]")

    def value(self) -> Fraction:
        """Exact rational value of the endpoint."""
        return Fraction(self.scaled, self.base**self.length)

    def __lt__(self, other: "ExactEndpoint") -> bool:
        if self.base != other.base:
            raise ValueError("cannot compare endpoints with different bases")
        return self.scaled * self.base**other.length < other.scaled * self.base**self.length

    def __le__(self, other: "ExactEndpoint") -> bool:
        return self == other or self < other

    def __str__(self) -> str:
        if not self.length:
            return str(self.scaled)
        return "0." + digit_text(self.scaled, self.base).rjust(self.length, "0")


def compare_prefix(prefix: DigitString, endpoint: ExactEndpoint) -> PrefixOrder:
    """Compare every digit-stream extension of ``prefix`` against ``endpoint``.

    ``prefix`` is the known start of a fractional expansion 0.d1d2...; as an
    integer p of m digits it is compared against h = floor(c b^m): p < h
    gives less, p > h greater or equal, and p = h greater or equal once m
    reaches the endpoint's length (concatenation streams never terminate in
    an all-(b-1) tail, so only those digits decide).
    """
    if prefix.base != endpoint.base:
        raise ValueError(f"base mismatch: prefix base {prefix.base} vs endpoint base {endpoint.base}")
    base, m = prefix.base, len(prefix)
    p = _read_int(prefix.text, base)
    h = endpoint.scaled * base**m // base**endpoint.length
    if p < h:
        return PrefixOrder.DEFINITELY_LESS
    if p == h and m < endpoint.length:
        return PrefixOrder.UNDECIDED
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
            raise ValueError(f"require lo < hi, got {_brief(f'[{self.lo}, {self.hi})')}")

    @property
    def base(self) -> int:
        return self.lo.base

    @classmethod
    def parse(cls, lo: str, hi: str, base: int = 10) -> "HalfOpenInterval":
        return cls(ExactEndpoint.parse(lo, base), ExactEndpoint.parse(hi, base))

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi})"
