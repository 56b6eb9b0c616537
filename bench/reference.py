"""Reference answers, computed without the library under test.

* Scan counts: per-decade integer counting.  For a_n = k*n the indices with
  a_n in [10^e, 2*10^e) form one integer range; for a polynomial they are
  found by integer bisection on f.
* Stream counts: brute force on one long string, the concatenation
  str(a_m) str(a_{m+1}) ..., compared digit by digit against the endpoints.
* Benford digit counts and log-discrepancy, discrepancy/Weyl figures: the
  same string concatenation and plain Python floats.

``python3 bench/reference.py`` rewrites ``bench/expected.json``; the run
only reads that file (plus the cheap tail and main-term references below).
"""
from __future__ import annotations

import cmath
import json
import math
import sys
from math import comb
from pathlib import Path

import mix

EXPECTED_PATH = Path(__file__).with_name("expected.json")


# --- families --------------------------------------------------------------
def parse_coeffs(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def horner(coeffs: tuple[int, ...], n: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * n + c
    return value


def _cauchy_bound(coeffs: list[int]) -> int:
    """An integer above every real root (Cauchy: 1 + max |c_i / c_d|)."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    lead = abs(coeffs[-1])
    return 2 + max((abs(c) for c in coeffs[:-1]), default=0) // lead


def poly_n_min(coeffs: tuple[int, ...]) -> int:
    """Least n >= 1 with f(m) >= 1 and f(m+1) > f(m) for every m >= n."""
    d = len(coeffs) - 1
    minus_one = [coeffs[0] - 1, *coeffs[1:]]
    # f(n+1) - f(n) = sum_j n^j * sum_{i>j} c_i * C(i, j)
    delta = [sum(coeffs[i] * comb(i, j) for i in range(j + 1, d + 1)) for j in range(d)]
    bound = max(_cauchy_bound(minus_one), _cauchy_bound(delta))
    n = bound
    while n >= 1 and horner(coeffs, n) >= 1 and horner(coeffs, n + 1) > horner(coeffs, n):
        n -= 1
    return n + 1


def family_terms(family: str):
    """(n_min, a) for a family name 'champ', 'mult:<k>' or 'poly:<coeffs>'."""
    kind, _, param = family.partition(":")
    if kind == "champ":
        return 1, lambda n: n
    if kind == "mult":
        k = int(param)
        return 1, lambda n: k * n
    coeffs = parse_coeffs(param)
    return poly_n_min(coeffs), lambda n: horner(coeffs, n)


def concat(family: str, count: int, extra: int):
    """(S, offsets): S = a_{n_min} a_{n_min+1} ... and the start of each x_n in S."""
    n_min, a = family_terms(family)
    parts = [str(a(m)) for m in range(n_min, n_min + count + extra)]
    offsets = []
    pos = 0
    for part in parts[:count]:
        offsets.append(pos)
        pos += len(part)
    return "".join(parts), offsets


def tail_text(family: str, n: int, digits: int) -> str:
    """Expected output of `tail`: 0.<first `digits` digits of x_n>."""
    _, a = family_terms(family)
    parts = []
    have = 0
    m = n
    while have < digits:
        s = str(a(m))
        parts.append(s)
        have += len(s)
        m += 1
    return "0." + "".join(parts)[:digits] + "\n"


# --- scan ------------------------------------------------------------------
def _index_le_poly(coeffs, n_min: int, m: int) -> int:
    """#{n >= n_min : f(n) <= m}, f increasing from n_min, by integer bisection."""
    if m < horner(coeffs, n_min):
        return 0
    lo, step = n_min, 1
    while horner(coeffs, lo + step) <= m:
        lo += step
        step *= 2
    hi = lo + step  # f(lo) <= m < f(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if horner(coeffs, mid) <= m:
            lo = mid
        else:
            hi = mid
    return lo - n_min + 1


def scan_reference(family: str, jmax: int) -> list[list[int]]:
    """[[j, N_j, A([0.1,0.2); N_j)], ...] as `scan` must print them."""
    kind, _, param = family.partition(":")
    if kind == "mult":
        k = int(param)
        points = [(j, 2 * 10**j // k) for j in range(jmax + 1) if 2 * 10**j > k]

        def index_le(m: int) -> int:
            return m // k

        last_term = lambda N: k * N  # noqa: E731
    else:
        coeffs = parse_coeffs(param)
        n_min = poly_n_min(coeffs)
        points = [
            (J, _index_le_poly(coeffs, n_min, 2 * 10**J))
            for J in range(1, jmax + 1)
            if 2 * 10**J >= horner(coeffs, n_min)
        ]

        def index_le(m: int) -> int:
            return _index_le_poly(coeffs, n_min, m)

        last_term = lambda N: horner(coeffs, n_min + N - 1)  # noqa: E731
    rows = []
    for j, N in points:
        count = 0
        e = 0
        while 10**e <= last_term(N):
            count += max(0, min(N, index_le(2 * 10**e - 1)) - min(N, index_le(10**e - 1)))
            e += 1
        if family == "mult:1" and count != sum(10**i for i in range(j + 1)):
            raise ValueError(f"k = 1 count at j = {j} is not sum(10^i)")
        rows.append([j, N, count])
    # `scan` rejects points whose N does not increase; keep such families out
    if any(a[1] >= b[1] for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{family}: scan points do not increase in N")
    return rows


def lemma1(k: int, j: int) -> float:
    return float(sum(10**i // k for i in range(j + 1)))


def lemma2(coeffs, J: int) -> float:
    d = len(coeffs) - 1
    factor = (2.0 ** (1.0 / d) - 1.0) / coeffs[-1] ** (1.0 / d)
    return factor * sum(10.0 ** (i / d) for i in range(1, J + 1))


def y_d(d: int) -> float:
    return 5.0 ** (1.0 / d) * (2.0 ** (1.0 / d) - 1.0) / (2.0 * (10.0 ** (1.0 / d) - 1.0))


# --- stream ----------------------------------------------------------------
def _digits(endpoint: str) -> str:
    return endpoint.partition(".")[2]


def count_reference(family: str, lo: str, hi: str, Ns) -> dict[str, int]:
    """{N: A([lo,hi); N)} for each N in ``Ns``, by brute-force string comparison."""
    lo_d, hi_d = _digits(lo), _digits(hi)
    S, offsets = concat(family, max(Ns), extra=max(len(lo_d), len(hi_d)) + 1)
    counts = {}
    count = 0
    for i, off in enumerate(offsets, start=1):
        if S[off:off + len(lo_d)] >= lo_d and S[off:off + len(hi_d)] < hi_d:
            count += 1
        if i in Ns:
            counts[str(i)] = count
    return counts


# --- diagnostics -----------------------------------------------------------
def star_discrepancy(values) -> float:
    v = sorted(values)
    n = len(v)
    return max(max((i + 1) / n - x, x - i / n) for i, x in enumerate(v))


def weyl_sum(values, h: int) -> float:
    terms = [cmath.exp(2j * math.pi * h * x) for x in values]
    return abs(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))) / len(terms)


def benford_terms(gen: str, N: int) -> list[int]:
    if gen == "naturals":
        return list(range(1, N + 1))
    if gen == "pow2":
        return [2**n for n in range(1, N + 1)]
    n_min, a = family_terms(gen)
    return [a(n) for n in range(n_min, n_min + N)]


def benford_reference(gen: str, N: int) -> dict:
    terms = benford_terms(gen, N)
    counts = [0] * 9
    for m in terms:
        counts[int(str(m)[0]) - 1] += 1
    logs = [math.log10(m) % 1.0 for m in terms]
    return {"counts": counts, "log_discrepancy": star_discrepancy(logs)}


def tail_points(family: str, N: int, depth: int = 18) -> list[float]:
    """x_n truncated to ``depth`` digits, for the first N indices, as floats below 1."""
    S, offsets = concat(family, N, extra=depth)
    scale = 10**depth
    below_one = math.nextafter(1.0, 0.0)
    return [min(int(S[off:off + depth]) / scale, below_one) for off in offsets]


def discrepancy_reference(family: str, N: int, hs) -> dict:
    v = tail_points(family, N)
    a, b = 0.1, 1.0
    below_one = math.nextafter(1.0, 0.0)
    rescaled = [min((x - a) / (b - a), below_one) for x in v]
    return {
        "star_discrepancy": star_discrepancy(v),
        "ud_deviation": star_discrepancy(rescaled),
        "weyl_sum": {str(h): weyl_sum(v, h) for h in hs},
    }


# --- expected.json ---------------------------------------------------------
def build_expected() -> dict:
    scan = {}
    for k in mix.SCAN_FIXED_K + mix.SCAN_BAND_K:
        scan[f"mult:{k}|{mix.scan_jmax(k)}"] = scan_reference(f"mult:{k}", mix.scan_jmax(k))
    for c in mix.SCAN_SMALL_POLYS + mix.SCAN_BIG_POLYS:
        scan[f"poly:{c}|{mix.SCAN_JMAX_POLY}"] = scan_reference(f"poly:{c}", mix.SCAN_JMAX_POLY)

    count = {}
    families = ["champ"] + [f"mult:{k}" for k in mix.STREAM_MULT_K]
    families += [f"poly:{c}" for c in mix.STREAM_QUADRATICS + mix.STREAM_CUBICS]
    Ns = sorted(set(mix.STREAM_CLASS_N.values()))
    for family in families:
        for lo, hi in mix.STREAM_INTERVALS:
            count[f"{family}|{lo}|{hi}"] = count_reference(family, lo, hi, Ns)

    benford = {}
    for N in mix.DIAG_POW2_N + (15_000,):
        benford[f"pow2|{N}"] = benford_reference("pow2", N)
    for N in mix.DIAG_NATURALS_N:
        benford[f"naturals|{N}"] = benford_reference("naturals", N)
    for c in mix.DIAG_BENFORD_POLYS:
        for N in mix.DIAG_BENFORD_POLY_N:
            benford[f"poly:{c}|{N}"] = benford_reference(f"poly:{c}", N)

    discrepancy = {}
    families = ["champ"] + [f"mult:{k}" for k in mix.DIAG_MULT_K] + [f"poly:{c}" for c in mix.DIAG_POLYS]
    for family in families:
        for N in mix.DIAG_DISC_N:
            discrepancy[f"{family}|{N}"] = discrepancy_reference(family, N, mix.DIAG_WEYL_H)
    discrepancy[f"mult:{mix.DIAG_K17}|10000"] = discrepancy_reference(f"mult:{mix.DIAG_K17}", 10_000, (1,))

    for job in mix.probe_jobs("scan") + mix.probe_jobs("stream"):
        ref = job["ref"]
        if job["cmd"] == "count":
            count[f"{ref['family']}|{ref['lo']}|{ref['hi']}"] = count_reference(
                ref["family"], ref["lo"], ref["hi"], (ref["N"],))
        elif job["cmd"] == "scan":
            scan[f"{ref['family']}|{ref['jmax']}"] = scan_reference(ref["family"], ref["jmax"])
        elif job["cmd"] == "benford":
            benford[f"{ref['gen']}|{ref['N']}"] = benford_reference(ref["gen"], ref["N"])
        else:
            discrepancy[f"{ref['family']}|{ref['N']}"] = discrepancy_reference(ref["family"], ref["N"], (1,))
    return {"scan": scan, "count": count, "benford": benford, "discrepancy": discrepancy}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.set_int_max_str_digits(0)  # the pow2 references pass 4300 digits
    EXPECTED_PATH.write_text(json.dumps(build_expected(), sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
