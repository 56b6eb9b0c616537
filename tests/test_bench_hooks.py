"""The benchmark's per-layer tracer patches library names from outside.

``bench/tracer.py`` replaces functions at the names their callers look up
(``counting.count_A``, ``counting.term``, ``counting.default_max_digits``,
...) and the ``IntPoly.n_min`` cached_property.  A refactor that renames one
of them, or stops calling it through the module global, breaks
``bench/run.py --trace 1``; this test turns that into a test failure.
"""
from pathlib import Path

import pytest

from concat_equidist import cli, counting, seqgen

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer_cls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer

    return Tracer


def test_tracer_counts_streamed_indices_and_restores_originals(tracer_cls, capsys):
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
    # the terms 1..999 are shorter than the 4-digit endpoints: each is streamed
    assert calls["counting.default_max_digits"] == 999
    assert calls["seqgen.term"] >= 999
    assert tracer.indices == 2000

    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    assert seqgen.IntPoly.__dict__["n_min"] is n_min
