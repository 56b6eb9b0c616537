"""Distribution diagnostics: star discrepancy, Weyl sums, Benford analysis.

Works on finite point sets in [0, 1); the Benford side follows the
characterization "strong Benford iff {log10 a_i} is u.d. mod 1".
"""
from __future__ import annotations

import decimal
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .exactnum import HEAD_DIGITS, ExactEndpoint, _brief, _show, decimal_head
from .seqgen import TailSpec, tail_prefixes

BENFORD_FREQ = tuple(math.log10(1 + 1 / c) for c in range(1, 10))


class PointSet:
    """A finite multiset of reals in [0, 1), held as read-only float64 arrays.

    ``array`` keeps the order given and ``sorted`` the ascending order, built
    once with NumPy's run-adaptive stable sort, or the same array when the
    values come ``presorted``.  The range is checked on the sorted ends: NaN
    sorts last and fails, -0.0 passes.  A float64 array is held as it is, not
    copied, and is read-only from then on; other values are converted.
    """

    __slots__ = ("array", "sorted")

    def __init__(self, values: Sequence[float] | np.ndarray, presorted: bool = False) -> None:
        v = np.asarray(values, dtype=np.float64)
        s = v if presorted else np.sort(v, kind="stable")
        if len(s) and not (s[0] >= 0.0 and s[-1] < 1.0):
            raise ValueError("all points must lie in [0, 1)")
        v.flags.writeable = s.flags.writeable = False
        self.array, self.sorted = v, s

    @classmethod
    def of(cls, values: Iterable[float]) -> "PointSet":
        return cls(np.fromiter(values, dtype=np.float64))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)


@dataclass(frozen=True)
class BenfordReport:
    N: int
    digit_freq: tuple[float, ...]
    benford_freq: tuple[float, ...]
    max_abs_gap: float
    log_discrepancy: float


_INT64_END = 2**63
_BATCH = 4096  # terms or points per NumPy batch
_STAR_BLOCK = 2 * _BATCH  # ranks per block of D* terms: 64 KiB temporaries


def _int64_reader(
    spec: TailSpec, n: int, bound: int, cut: Callable[[Iterator[int]], Iterator[int]]
) -> tuple[int, Callable[[int], np.ndarray]]:
    """(below, read): read(j) gives the next j terms of ``spec.terms(n)`` as an int64 array.

    The terms increase from n_min, so one ``index_le(bound - 1)`` call counts
    the ``below`` ones under ``bound`` (at most 2^63), and ``_term_block`` builds them
    from the family's difference column with no Python step per term.  The
    terms from there on come from ``spec.terms`` through ``cut``, which maps
    them lazily to values that fit in int64.
    """
    column = spec.differences(n)
    below = max(spec.n_min + spec.index_le(bound - 1) - n, 0)
    rest = cut(spec.terms(n + below))

    def read(j: int) -> np.ndarray:
        nonlocal below
        run = min(j, below)
        below -= run
        head = _term_block(column, run)
        if run == j:
            return head
        tail = np.fromiter(itertools.islice(rest, j - run), dtype=np.int64, count=j - run)
        return np.concatenate((head, tail))

    return below, read


def _term_block(column: list[int], size: int) -> np.ndarray:
    """The next ``size`` terms of a difference ``column`` as int64, advancing the column past them.

    Each entry of the column (a_m, Δa_m, ..., with a constant last entry c)
    runs as the sum of the one after it.  The entry before c runs as
    Δ^(d-1)a_m + i c for i = 0..size, one ``arange`` multiply-add, and each
    entry before that as one ``np.cumsum``: a linear family's block is the
    multiply-add alone.  The sums and products wrap mod 2^64, as does the
    column kept between blocks.  Addition and multiplication commute with
    reduction mod 2^64, so every value equals its exact one mod 2^64, and a
    term, which lies in [1, 2^63), is exact, whatever the size of the
    differences on the way.
    """
    run = np.arange(size + 1, dtype=np.uint64)
    run *= np.uint64(column[-1] % 2**64)
    run += np.uint64(column[-2] % 2**64)
    column[-2] = int(run[size])
    for j in range(len(column) - 3, -1, -1):
        run[1:] = run[:size]  # NumPy copies overlapping slices safely
        run[0] = column[j] % 2**64
        column[j] = int(np.cumsum(run, out=run)[size])
    return run[:size].view(np.int64)


def tail_points(spec: TailSpec, n: int, count: int, depth: int = 18) -> PointSet:
    """x_n, ..., x_{n+count-1} as points, each read from its leading ``depth`` digits.

    Point m is P_m / b^depth, kept below 1, where P_m is the integer of the
    first ``depth`` digits of x_m that ``tail_prefixes`` yields.  When
    b^depth < 2^63 the P_m are built in int64 blocks (``_prefix_blocks``)
    and divided in NumPy (``_quotients``); larger bases read them from
    ``tail_prefixes`` and divide them in Python.  Either way each term is
    read once, and each point is Python's P_m / b^depth, rounded once,
    correctly; converting P_m to float64 first would round twice.  An
    18-digit prefix such as 0.999...9 rounds to 1.0, hence the clamp.  The
    points fill one array; a count below 1 gives an empty set.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {_show(depth)}")
    scale = spec.base**depth
    points = np.empty(max(count, 0))
    if scale < _INT64_END:
        for start, block in zip(itertools.count(0, _BATCH), _prefix_blocks(spec, n, count, depth)):
            points[start : start + _BATCH] = _quotients(block, scale)
    else:
        points[:] = _python_quotients(tail_prefixes(spec, n, count, depth), scale)
    return PointSet(np.minimum(points, np.nextafter(1.0, 0.0), out=points))


# np.longdouble's fraction bits below float64's: 11 in x87 extended and 60 in IEEE quad, each in 16 little-endian bytes
_FINER = np.finfo(np.longdouble).nmant - 52 if np.little_endian and np.dtype(np.longdouble).itemsize == 16 else 0


def _quotients(prefix: np.ndarray, scale: int) -> np.ndarray:
    """prefix / scale as float64 for int64 values, each bitwise Python's int / int.

    Python rounds the exact quotient once.  Here it is rounded to
    ``np.longdouble``, where both operands are exact, and then to float64.
    The second rounding can differ from a single one only when the first
    lands exactly on a float64 midpoint: otherwise no midpoint lies between
    the exact and the extended quotient, so both round to the same float64.
    Those few points, whose ``_FINER`` bits in the low word read 10...0, and
    every point where ``_FINER`` is neither 11 nor 60, are divided by Python.
    """
    if _FINER not in (11, 60):
        return _python_quotients(prefix.tolist(), scale)
    exact = prefix.astype(np.longdouble) / np.longdouble(scale)
    q = exact.astype(np.float64)
    tie = np.flatnonzero(exact.view(np.uint64)[::2] << (64 - _FINER) == 1 << 63)  # those bits at the top
    q[tie] = _python_quotients(prefix[tie].tolist(), scale)
    return q


def _python_quotients(prefix: Iterable[int], scale: int) -> np.ndarray:
    return np.fromiter(map(operator.truediv, prefix, itertools.repeat(scale)), dtype=np.float64)


def _prefix_blocks(spec: TailSpec, n: int, count: int, depth: int) -> Iterator[np.ndarray]:
    """The values of ``tail_prefixes(spec, n, count, depth)``, in int64 arrays of up to ``_BATCH``.

    Needs b^depth < 2^63.  Each term enters as its leading L digits h, L
    its digit length clipped to ``depth``: a term of ``depth`` digits or
    more ends every window that reaches it, so its later digits never
    count.  P_m, the integer of the first ``depth`` digits of x_m, is h_m's
    L_m digits followed by the first depth - L_m digits of x_{m+1}:

        P_m = h_m b^(depth - L_m) + P_{m+1} // b^L_m.

    The terms increase, so L never falls, and one search of the powers
    b^1, ..., b^(depth-1) splits a block into runs of equal L (a term cut
    to ``depth`` digits lies above each of them, as the whole term does).
    In a run of L-digit terms, with q = ceil(depth / L), (q - 1) L < depth
    <= q L, so a window whose q terms all lie in the run unrolls the
    recurrence to

        P_m = sum over i < q - 1 of h_{m+i} b^(depth - (i+1) L) + h_{m+q-1} // b^(qL - depth):

    q shifted slices with scalar factors and one scalar division, every
    partial sum below b^depth < 2^63.  The at most q - 1 windows that reach
    past the run's end take the recurrence one by one, backward from the
    first window of the next run, so the runs go from the last to the first.
    Every term has a digit, so a block of ``size`` windows needs at most
    size + depth - 1 terms; it reads them in one call, the depth - 1 past
    its own carried into the next block, so each term is read once.  Past
    the terms read, the recurrence starts from P = 0, as if every later
    digit were 0: that changes only windows that reach past the terms read,
    and none of the ``size`` windows does: at least ``depth`` terms, so
    ``depth`` digits, are read from the first term of each.  The terms
    below 2^63 are read as int64 runs (``_int64_reader``), and those longer
    than ``depth`` digits, all in the last run, are cut in NumPy; later
    ones are cut to their leading ``depth`` digits in Python as they are
    read.
    """
    base = spec.base
    powers = [1]
    while powers[-1] * base < _INT64_END:
        powers.append(powers[-1] * base)
    pows = np.array(powers, dtype=np.int64)  # every power of the base below 2^63
    _, read = _int64_reader(spec, n, _INT64_END, lambda rest: _leading_digits(rest, base, depth))
    head = np.empty(0, dtype=np.int64)
    for start in range(0, count, _BATCH):
        size = min(_BATCH, count - start)
        head = np.concatenate((head, read(size + depth - 1 - len(head))))
        # the run of L-digit terms ends where the (L+1)-digit ones start; L = depth ends the block
        ends = [0, *np.searchsorted(head, pows[1:depth]).tolist(), len(head)]
        last = head[ends[-2] :]
        over = np.flatnonzero(last >= pows[depth])  # below 2^63, longer than depth digits
        last[over] //= pows[np.searchsorted(pows, last[over], side="right") - depth]
        prefix = np.empty(len(head), dtype=np.int64)
        after = 0  # the prefix of the window after the run, 0 past the terms read
        for L in range(depth, 0, -1):
            s, e = ends[L - 1], ends[L]
            if s == e:
                continue
            q = -(-depth // L)
            inside = prefix[s : max(s, e - q + 1)]
            np.floor_divide(head[s + q - 1 : s + q - 1 + len(inside)], powers[q * L - depth], out=inside)
            for i in range(q - 1):
                inside += head[s + i : s + i + len(inside)] * powers[depth - (i + 1) * L]
            for m in range(e - 1, s + len(inside) - 1, -1):
                after = int(head[m]) * powers[depth - L] + after // powers[L]
                prefix[m] = after
            after = int(prefix[s])
        yield prefix[:size]
        head = head[size:]


def _leading_digits(terms: Iterator[int], base: int, depth: int) -> Iterator[int]:
    """The increasing ``terms``, each longer than ``depth`` digits cut to its leading ``depth``."""
    bound, divisor = base**depth, 1  # base**L and base**(L - depth) for L digits
    for a in terms:
        while a >= bound:
            bound *= base
            divisor *= base
        yield a // divisor


def star_discrepancy(points: PointSet) -> float:
    """Exact D*_N via order statistics, O(N) on the points' sorted array.

    D*_N = max_i max(i/N - v_(i), v_(i) - (i-1)/N) over the sorted points.
    """
    if len(points) == 0:
        raise ValueError("empty point set")
    return float(max(max(rise.max(), fall.max()) for _, rise, fall in _star_blocks(points.sorted)))


def _star_blocks(v: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(v_(i), i/N - v_(i), v_(i) - (i-1)/N) in blocks of ranks of the sorted v, bitwise as whole arrays."""
    n = len(v)
    for start in range(0, n, _STAR_BLOCK):
        part = v[start : start + _STAR_BLOCK]
        q = np.arange(start, start + len(part) + 1, dtype=np.float64) / n  # i/N from i = start
        yield part, q[1:] - part, part - q[:-1]


def ud_deviation(points: PointSet, alpha: ExactEndpoint, beta: ExactEndpoint, first_index: int = 0) -> float:
    """Star discrepancy of the points affinely rescaled from [alpha, beta) to [0, 1).

    Measures the worst deviation of empirical interval mass from the density (b-a)/(beta-alpha)
    required by u.d. mod 1 over [alpha, beta).  A point outside is named x_n, n = first_index + position.
    (v - a)/(b - a) is monotone in IEEE arithmetic, so the sorted points stay sorted.
    """
    a = float(alpha.value())
    b = float(beta.value())
    if not a < b:
        raise ValueError("require alpha < beta")
    if len(points) == 0:
        raise ValueError("empty point set")
    v, u = points.sorted, points.array
    if not (v[0] >= a and v[-1] < b):
        i = int(np.flatnonzero((u < a) | (u >= b))[0])
        raise ValueError(f"x_{_show(first_index + i)} = {float(u[i])!r} outside {_brief(f'[{alpha}, {beta})')}")
    rescaled = v - a
    rescaled /= b - a
    np.minimum(rescaled, np.nextafter(1.0, 0.0), out=rescaled)
    return star_discrepancy(PointSet(rescaled, presorted=True))


def weyl_sum(points: PointSet, h: int) -> float:
    """|(1/N) sum_n exp(2 pi i h v_n)|, the normalized exponential sum."""
    if h == 0:
        raise ValueError("h must be nonzero")
    if len(points) == 0:
        raise ValueError("empty point set")
    try:
        angle = 2j * np.pi * h
    except OverflowError:
        angle = complex(0, math.inf)
    if not math.isfinite(angle.imag):  # h or 2 pi h past the float range
        raise ValueError(f"h = {_show(h)} is too large to convert to float")
    z = angle * points.array
    return float(abs(np.exp(z, out=z).mean()))


def census(terms: Iterable[int]) -> list[int]:
    """The nine leading-digit counts of a stream of positive integers, indexed by digit - 1.

    Each term is cut to its int64 ``_mantissa``, whose first digit is the
    term's, and the cuts are counted as the reports count them
    (``_digit_counts``); the counts sum to the stream length.
    """
    mant = _mantissas(terms)
    if not len(mant):
        raise ValueError("empty term stream")
    return _digit_counts(mant).tolist()


def log_fracparts(terms: Iterable[int]) -> PointSet:
    """{log10 a_i} for a stream of positive integers."""
    return PointSet(_exact_parts(_mantissas(terms)))


def benford_report(terms: Iterable[int]) -> BenfordReport:
    """Leading-digit frequencies vs the Benford reference, plus log-discrepancy.

    One pass reads each term's decimal digits once, cut to an int64
    ``_mantissa``: its trailing zeros stripped, at most 17 digits kept, and
    a guard digit where a later digit is nonzero.  NumPy counts the leading
    digits of those and takes their logarithms, with ``math.log10`` of the
    cut digits only where it can decide D* (``_certified_star``), so D* is
    that of the ``math.log10`` parts, bit for bit.
    """
    return _report(_mantissas(terms))


def family_benford_report(spec: TailSpec, n: int, count: int) -> BenfordReport:
    """``benford_report`` of the terms a_n, ..., a_{n+count-1} of a family, bitwise.

    The terms below 10^17 are their own mantissas, so they are built in
    int64 blocks (``_int64_reader``) with no Python step per term; only
    later terms are cut to their ``_mantissa`` one by one.
    """
    return _report(*_family_mantissas(spec, n, count))


def pow2_benford_report(N: int) -> BenfordReport:
    """``benford_report`` of 2^1, ..., 2^N, bitwise, in O(N) NumPy steps.

    The points are w_n = frac(n log10 2) from a fixed-point log10 2
    (``_pow2_parts``), each within 2^-52 of it, filled into one float64
    array in blocks.  2^n leads with c exactly when frac(n log10 2)
    lies in [log10 c, log10(c + 1)), so a w farther than _EPS from each of
    log10 1, ..., log10 10 takes its digit from them; the rest, such as
    n = 1, 2 and 3, which lie on log10 2, 4 and 8, take it from the exact
    mantissa of 2^n (``_pow2_mantissa``).  The part ``_exact_parts`` reads
    from that mantissa lies within 3 2^-48 + 2^-52 of frac(n log10 2), so
    within 2^-52 + 3 2^-48 + 2^-52 < _EPS of w, and ``_certified_star``
    certifies D* as it does for any mantissas.  Only the points that decide
    a digit or D* take a mantissa, each at most once, and 2^n itself is
    built only below 10^17 or for a head in its error band.  Needs N < 2^32.
    """
    if N < 1:
        raise ValueError("empty term stream")
    if N >= 2**32:
        raise ValueError(f"pow2 needs N < 2^32, got {_show(N)}")

    @functools.cache
    def mantissa(i: int) -> int:  # of the point at index i, 2^(i + 1)
        return _pow2_mantissa(i + 1)

    def exact_parts(idx: np.ndarray) -> np.ndarray:
        return _exact_parts(np.array([mantissa(i) for i in idx.tolist()], dtype=np.int64))

    w = np.empty(N)
    counts = np.zeros(10, dtype=np.int64)  # by leading digit; 0 stays empty
    edge: list[int] = []
    for start in range(0, N, _POW2_BATCH):
        stop = min(start + _POW2_BATCH, N)
        part = w[start:stop]
        part[:] = _pow2_parts(np.arange(start + 1, stop + 1, dtype=np.uint64))
        below = np.searchsorted(_DIGIT_EDGES, part - _EPS, side="right")
        far = below == np.searchsorted(_DIGIT_EDGES, part + _EPS, side="right")
        counts += np.bincount(below[far], minlength=10)
        edge += (start + np.flatnonzero(~far)).tolist()
    for i in edge:
        counts[int(str(mantissa(i))[0])] += 1
    # the rotation's points have no runs for the stable sort to take: NumPy's
    # default sort is 4-6x faster on them at N = 1000 to 15000
    return _summary(counts[1:].tolist(), _certified_star(w, exact_parts, "quicksort"))


def _pow2_mantissa(m: int) -> int:
    """``_mantissa(1 << m)`` for 0 <= m < 2^32, from the 17 leading digits of 2^m where they decide it.

    Let y = 10^(16 + f), f = frac(m log10 2).  Past 10^17, 2^m has no
    trailing zeros, so its mantissa is 10 floor(y) + 1; below, y is 2^m
    times a power of ten, an integer.  F = m ``_LOG10_2_FIXED`` mod 2^128
    puts f less than m 2^-128 < 2^-96 above F 2^-128, or near 0 past a
    wrap, where y is near the integer 10^17.  40 ``decimal`` digits give
    10^(16 + F 2^-128) within 10^-20, so within 10^17 ln(10) 2^-96 + 10^-20
    < 3 10^-12 of y: only one within ``_HEAD_BAND`` of an integer builds 2^m.
    """
    ctx = decimal.Context(prec=40)
    y = ctx.power(10, ctx.add(16, ctx.divide(m * _LOG10_2_FIXED % 2**128, 2**128)))
    head = int(y)
    return 10 * head + 1 if _HEAD_BAND < ctx.subtract(y, head) < 1 - _HEAD_BAND else _mantissa(1 << m)


# floor(log10(2) * 2^128), split into 64-, 32- and 32-bit words for _pow2_parts
_LOG10_2_FIXED = 0x4D104D427DE7FBCC47C4ACD605BE48BC
_LOG10_2_WORDS = tuple(
    np.uint64(word) for word in (_LOG10_2_FIXED >> 64, _LOG10_2_FIXED >> 32 & 2**32 - 1, _LOG10_2_FIXED & 2**32 - 1)
)
_DIGIT_EDGES = np.array([math.log10(c) for c in range(1, 11)])
_HEAD_BAND = decimal.Decimal("1e-9")  # over 300 times the head's error bound
_POW2_BATCH = 16 * _BATCH  # points per block of _pow2_parts


def _pow2_parts(n: np.ndarray) -> np.ndarray:
    """w_n = frac(n log10 2) as float64, for uint64 n in [1, 2^32), each within 2^-52 below it.

    With A = ``_LOG10_2_FIXED`` = H 2^64 + M 2^32 + L (M, L < 2^32), the top
    64 bits of n A mod 2^128 are T = n H + ((n M + (n L >> 32)) >> 32) mod
    2^64.  That is exact for n < 2^32: n M and n L stay below 2^64, and
    so does n M plus the carry, which is below 2^32.  T 2^-64 lies less
    than 2^-64 below frac(n A 2^-128), which lies less than n 2^-128 <
    2^-96 below frac(n log10 2), mod 1.  w = (T >> 11) 2^-53 is exact in
    float64 and below 1, and lies less than 2^-53 below T 2^-64.  So w lies
    less than 2^-53 + 2^-64 + 2^-96 < 2^-52 below frac(n log10 2), mod 1.
    """
    high, mid, low = _LOG10_2_WORDS
    top = n * high  # every product and sum wraps mod 2^64
    top += (n * mid + (n * low >> 32)) >> 32
    top >>= 11
    return top.astype(np.float64) * 2.0**-53


def _report(mant: np.ndarray, rising: int = 0) -> BenfordReport:
    """The report of these ``_mantissa`` values, the first ``rising`` of them increasing strictly below 10^17."""
    if not len(mant):
        raise ValueError("empty term stream")
    w = np.log10(mant)
    w -= np.floor(w)
    return _summary(_digit_counts(mant, rising).tolist(), _certified_star(w, lambda idx: _exact_parts(mant[idx])))


def _digit_counts(mant: np.ndarray, rising: int = 0) -> np.ndarray:
    """The nine leading-digit counts of these ``_mantissa`` values.  The first ``rising`` increase
    strictly below 10^17, so one search for the edges c 10^e counts them; ``bincount`` the rest."""
    below = np.searchsorted(mant[:rising], _DIGIT_FLOORS).reshape(HEAD_DIGITS, 10)  # how many lie below c 10^e
    counts = np.diff(below, axis=1).sum(axis=0)
    rest = mant[rising:]
    length = np.searchsorted(_POW10, rest, side="right")
    counts += np.bincount(rest // _POW10[length - 1], minlength=10)[1:]
    return counts


def _summary(counts: list[int], d_star: float) -> BenfordReport:
    """The report from the nine leading-digit counts and the D* of the log parts."""
    n = sum(counts)
    freq = tuple(c / n for c in counts)
    gap = max(abs(f - b) for f, b in zip(freq, BENFORD_FREQ))
    return BenfordReport(n, freq, BENFORD_FREQ, gap, d_star)


_POW10 = 10 ** np.arange(HEAD_DIGITS + 1, dtype=np.int64)  # 10^0 ... 10^17
_HEAD_BELOW = 10**HEAD_DIGITS
_DIGIT_FLOORS = np.array([c * 10**e for e in range(HEAD_DIGITS) for c in range(1, 11)], np.int64)  # c 10^e, c = 1..10


def _mantissa(m: int) -> int:
    """The digits of m >= 1 that decide its leading digit and {log10 m}, as an int below 10^18.

    The rule: strip m's trailing zeros and keep at most its 17 leading
    digits, s; then {log10 m} = log10(s) - (len(s) - 1) mod 1, from
    ``math.log10``.  Below 10^17 this value is m itself: ``_exact_parts``
    strips its trailing zeros.  From 10^17 on it is the 17-digit
    ``decimal_head``; when a later digit is nonzero the head keeps its own
    trailing zeros, so a guard digit 1 is appended, which stripping stops
    at and ``_exact_parts`` removes.
    """
    if m < _HEAD_BELOW:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {_show(m)}")
        return m
    _, head, exact = decimal_head(m)
    return int(head) if exact else 10 * int(head) + 1


def _mantissas(terms: Iterable[int]) -> np.ndarray:
    """The ``_mantissa`` of each term as one int64 array, read lazily up to the first bad term."""
    return np.fromiter(map(_mantissa, terms), dtype=np.int64)


def _family_mantissas(spec: TailSpec, n: int, count: int) -> tuple[np.ndarray, int]:
    """The ``_mantissa`` values of a_n, ..., a_{n+count-1}, read in blocks of up to ``_BATCH``,
    and how many of them lead below 10^17: those are the terms themselves."""
    below, read = _int64_reader(spec, n, _HEAD_BELOW, lambda rest: map(_mantissa, rest))
    mant = np.empty(max(count, 0), dtype=np.int64)
    for start in range(0, count, _BATCH):
        mant[start : start + _BATCH] = read(min(_BATCH, count - start))
    return mant, min(below, len(mant))


def _exact_parts(mant: np.ndarray) -> np.ndarray:
    """{log10 a_i} from int64 ``_mantissa`` values: log10(s) - (len(s) - 1) mod 1.

    NumPy strips the trailing zeros (in place) and the guard digits, which
    leaves each s: a_i stripped of its trailing zeros and cut to at most
    17 leading digits.  The logarithms come from ``math.log10`` on the same integers, one
    call per value, because ``np.log10`` may round differently.
    """
    tens = np.flatnonzero(mant % 10 == 0)
    while tens.size:
        mant[tens] //= 10
        tens = tens[mant[tens] % 10 == 0]
    mant[mant >= _HEAD_BELOW] //= 10  # drop the guard digits
    length = np.searchsorted(_POW10, mant, side="right")
    logs = np.fromiter(map(math.log10, mant.tolist()), dtype=np.float64, count=mant.size)
    return (logs - (length - 1)) % 1.0


# A bound on |frac(np.log10(x)) - exact part| for a _mantissa x < 10^18,
# away from the wrap at 0 and 1.  NumPy validates its float64 log10 to 1 ulp
# and glibc documents 2 ulp for math.log10; below 18 an ulp is at most
# 2^-48.  Rounding x to float64 and the guard digit move the logarithm by
# less than 2^-52, and taking off the integer part is exact (Sterbenz's
# lemma).  So the two differ by under 3 * 2^-48 + 2^-52; 2^-40 is over 80
# times that.
_EPS = 2.0**-40


def _certified_star(w: np.ndarray, exact_parts: Callable[[np.ndarray], np.ndarray], kind: str = "stable") -> float:
    """D* of the exact {log10 a_i}, bitwise, from one sort of w and one scan of its ranks.

    ``exact_parts(idx)`` gives the ``_exact_parts`` of the terms at the
    indices ``idx``; w (patched in place) holds points within e = _EPS of
    them, except near the wrap at 0 and 1, where points within e take their
    exact parts before w is sorted into v.  Sorting then moves no rank by
    more than e, so only a rank whose D* term lies within 4e of the largest
    can attain D*, and its exact value is that of a point within 2e of its
    own, up to rounding: those take their exact parts too, each at most
    once, and move less than e/80, so they stay within 3e of the rank value
    r; no other point moves.  So the points within 3e of the rank values
    are the same before and after, as is each run of them in v, from the
    first value >= r - 3e to the last <= r + 3e: sorted, they fill the runs.
    Every other term keeps its value, more than 3e below the largest: D* is
    the largest term over the runs, computed as ``_star_blocks`` does.

    The rank values come from one walk of ``_star_blocks``.  It takes each
    block's largest term T_b from its rise and fall, and holds the block's
    D* terms only while T_b >= top - 4e, top the largest T_b so far.  A
    block not held lies below the final top - 4e, because top only rises
    and subtracting 4e rounds monotonically, so none of its ranks is a rank
    value.  So masking the held terms at the final top - 4e gives the same
    ranks as masking every block.  The per-rank maximum runs only on the
    blocks held when they come, and the mask and the index only on those
    still held at the end: most often one.
    """
    wrap = np.flatnonzero((w < _EPS) | (w > 1 - _EPS))
    w[wrap] = exact_parts(wrap)
    v = np.sort(w, kind=kind)
    top, blocks = -math.inf, []  # the blocks of ranks whose largest D* term is within 4e of the running top
    for part, rise, fall in _star_blocks(v):
        largest = max(rise.max(), fall.max())
        if largest > top:
            top = largest
            blocks = [block for block in blocks if block[0] >= top - 4 * _EPS]
        if largest >= top - 4 * _EPS:
            blocks.append((largest, part, np.maximum(rise, fall)))
    near_top = top - 4 * _EPS
    ranks = np.concatenate([part[term >= near_top] for _, part, term in blocks])

    def within(x: np.ndarray, width: float) -> np.ndarray:
        # the positions of x within width of a rank value, tested against the least r with r + width >= x
        upper = ranks + width
        idx = np.flatnonzero((x >= ranks[0] - width) & (x <= upper[-1]))
        return idx[ranks[np.searchsorted(upper, x[idx])] - width <= x[idx]]

    band = within(w, 3 * _EPS)
    near = np.setdiff1d(band[within(w[band], 2 * _EPS)], wrap, assume_unique=True)
    w[near] = exact_parts(near)
    stop = np.searchsorted(v, ranks + 3 * _EPS, side="right")
    start = np.maximum(np.searchsorted(v, ranks - 3 * _EPS), np.r_[0, stop[:-1]])  # from where the last run stops
    i = np.concatenate([np.arange(a, b) for a, b in zip(start, stop)])  # the positions of the runs
    x = w[band]
    x.sort()
    return float(max(((i + 1) / len(w) - x).max(), (x - i / len(w)).max()))
