"""Digit-exact concatenation-tail sequences and equidistribution diagnostics."""

from .asymptotics import (
    LimitConstants,
    RatioScanReport,
    ScanRecord,
    Y_LIMIT,
    inverse_epsilon,
    lemma2_main_term,
    limit_constants,
    poly_floor_inverse,
    ratio_scan,
    scan_points,
    y_sequence,
)
from .counting import CountResult, UndecidedMembershipError, count_A
from .exactnum import (
    DigitString,
    ExactEndpoint,
    HalfOpenInterval,
    PrefixOrder,
    compare_prefix,
    digit_length,
    int_to_digits,
)
from .seqgen import (
    ChampernowneTail,
    DomainError,
    IntPoly,
    MultipleTail,
    PolyTail,
    TailSpec,
    lemma1_main_term,
    tail_digits,
    tail_prefixes,
    term,
)

__version__ = "0.1.0"

# The diagnostics need NumPy, which takes most of the package's import time;
# their names are resolved on first use (PEP 562).
_EQUIDIST_NAMES = frozenset(
    {
        "BENFORD_FREQ",
        "BenfordReport",
        "PointSet",
        "benford_report",
        "census",
        "family_benford_report",
        "leading_digit",
        "log10_fracpart",
        "log_fracparts",
        "pow2_benford_report",
        "star_discrepancy",
        "tail_points",
        "ud_deviation",
        "weyl_sum",
    }
)

# every name imported above, and the lazy ones
__all__ = sorted(
    [
        "ChampernowneTail", "CountResult", "DigitString", "DomainError", "ExactEndpoint",
        "HalfOpenInterval", "IntPoly", "LimitConstants", "MultipleTail", "PolyTail",
        "PrefixOrder", "RatioScanReport", "ScanRecord", "TailSpec", "UndecidedMembershipError",
        "Y_LIMIT", "compare_prefix", "count_A", "digit_length", "int_to_digits",
        "inverse_epsilon", "lemma1_main_term", "lemma2_main_term", "limit_constants",
        "poly_floor_inverse", "ratio_scan", "scan_points", "tail_digits", "tail_prefixes",
        "term", "y_sequence",
        *_EQUIDIST_NAMES,
    ]
)


def __getattr__(name: str):
    if name in _EQUIDIST_NAMES:
        from . import equidist

        return getattr(equidist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
