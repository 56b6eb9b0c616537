"""The benchmark's per-layer tracer patches library names from outside.

``bench/tracer.py`` replaces functions at the names their callers look up
(``counting.count_A``, ``counting.term``, ``counting.default_max_digits``,
...) and the ``IntPoly.n_min`` cached_property.  A refactor that renames one
of them, or stops calling it through the module global, breaks
``bench/run.py --trace 1``; this test turns that into a test failure.
"""
from pathlib import Path

import pytest

from concat_equidist import asymptotics, cli, counting, equidist, seqgen

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
MODULES = {"cli": cli, "asymptotics": asymptotics, "counting": counting, "equidist": equidist, "seqgen": seqgen}


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    return tracer


@pytest.fixture
def tracer_cls(tracer_module):
    return tracer_module.Tracer


def _patched_names(tracer_module):
    """Every (module, attribute) the tracer wraps, with its current value."""
    sites = tracer_module._SPAN_SITES + tracer_module._COUNTER_SITES
    return {(mod, attr): getattr(MODULES[mod], attr) for mod, attr, _ in sites}


def test_tracer_counts_streamed_indices_and_restores_originals(tracer_cls, capsys, monkeypatch):
    streamed = []
    stream = counting._rank

    def recording_stream(spec, n, interval, cuts, budget):
        streamed.append(n)
        return stream(spec, n, interval, cuts, budget)

    monkeypatch.setattr(counting, "_rank", recording_stream)
    originals = {
        (module, attr): getattr(module, attr)
        for module, attr in [
            (cli, "main"),
            (counting, "count_A"),
            (counting, "term"),
            (counting, "compare_prefix"),
            (counting, "int_to_digits"),
            (counting, "default_max_digits"),
            (seqgen, "int_to_digits"),
            (seqgen, "tail_digits"),
        ]
    }
    n_min = seqgen.IntPoly.__dict__["n_min"]

    tracer = tracer_cls()
    tracer.install()
    try:
        assert counting.count_A is not originals[(counting, "count_A")]
        code = cli.main(["count", "--kind", "champ", "--lo", "0.123", "--hi", "0.1231", "--N", "2000"])
    finally:
        tracer.uninstall()
    assert code == 0
    rows, _ = cli.read_csv(capsys.readouterr().out)
    assert rows == [{"interval": "[0.123,0.1231)", "N": "2000", "count": "1", "ratio": "0.0005"}]

    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    assert calls["counting.count_A"] == 1
    # below the endpoints' 3 and 4 digits only a_n = 1 and 12 tie with both
    # endpoints' prefixes, and a_n = 123 with hi's alone.  Each is streamed
    # once, on one budget, against the endpoints it ties: hi from the prefix
    # that decided lo.  The terms are the two decade ends, one check per
    # tie, the budgets', and the streams' 4 + 2 + 2 for x_1 = 0.1234...
    # (3 terms decide lo, a fourth hi), x_12 = 0.1213... < lo and
    # x_123 = 0.123124...
    assert streamed == [1, 12, 123]
    assert calls["counting.default_max_digits"] == 3
    assert calls["seqgen.term"] == 2 + 3 + 3 + 8
    assert tracer.indices == 2000

    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    assert seqgen.IntPoly.__dict__["n_min"] is n_min


def test_tracer_sees_every_diagnostics_point(tracer_module, capsys):
    jobs = (["discrepancy", "--kind", "champ", "--N", "300"], ["benford", "--gen", "pow2", "--N", "300"])
    untraced = []
    for argv in jobs:
        assert cli.main(argv) == 0
        untraced.append(capsys.readouterr().out)
    originals = _patched_names(tracer_module)
    n_min = seqgen.IntPoly.__dict__["n_min"]

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(getattr(MODULES[mod], attr) is not fn for (mod, attr), fn in originals.items())
        traced = []
        for argv in jobs:
            assert cli.main(argv) == 0
            traced.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert traced == untraced

    calls = {name: stat[0] for name, stat in tracer.stats.items()}
    # discrepancy: the points, and again rescaled inside ud_deviation; benford: the log parts
    assert calls["equidist.star_discrepancy"] == 3
    assert calls["equidist.ud_deviation"] == 1
    # pow2 builds its points in pow2_benford_report, which the tracer does not wrap
    assert calls["equidist.benford_report"] == 0
    assert tracer.points == 300 + 300 + 300
    # the points come from integer prefixes and one digit read per term
    assert calls["seqgen.tail_digits"] == 0
    assert calls["counting.census"] == calls["equidist.log_fracparts"] == 0

    assert _patched_names(tracer_module) == originals
    assert seqgen.IntPoly.__dict__["n_min"] is n_min
