"""Per-layer tracing from outside the library.

Public functions are replaced by timing wrappers at the names their
callers look up (``asymptotics.count_A`` as well as ``counting.count_A``,
``counting.term`` rather than ``seqgen.term``, ...), so the library itself
is not instrumented.  Every wrapper keeps a frame on one stack, which gives
each layer its busy time and its self time (busy minus the time of wrapped
calls made inside it).  Calls that happen once per index only update
counters; the others also record a span (id, parent id, job, name, start,
end) that stays in memory until ``write_spans``.
"""
from __future__ import annotations

import json
import statistics
import time
from functools import cached_property

clock = time.perf_counter

# (module, attribute, stat name).  ud_deviation is wrapped only so that its
# time counts as a child of cli.main, not as cli self time.
_SPAN_SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "render_csv", "cli.render"),
    ("cli", "render_json", "cli.render"),
    ("asymptotics", "scan_points", "asymptotics.scan_points"),
    ("asymptotics", "ratio_scan", "asymptotics.ratio_scan"),
    ("asymptotics", "poly_floor_inverse", "asymptotics.poly_floor_inverse"),
    ("asymptotics", "count_A", "counting.count_A"),
    ("counting", "count_A", "counting.count_A"),
    ("equidist", "benford_report", "equidist.benford_report"),
    ("equidist", "census", "counting.census"),
    ("equidist", "log_fracparts", "equidist.log_fracparts"),
    ("equidist", "star_discrepancy", "equidist.star_discrepancy"),
    ("equidist", "ud_deviation", "equidist.ud_deviation"),
    ("equidist", "weyl_sum", "equidist.weyl_sum"),
)
# called once per index: counters and time, no spans
_COUNTER_SITES = (
    ("counting", "term", "seqgen.term"),
    ("counting", "compare_prefix", "exactnum.compare_prefix"),
    ("counting", "int_to_digits", "exactnum.int_to_digits"),
    ("counting", "default_max_digits", "counting.default_max_digits"),
    ("seqgen", "int_to_digits", "exactnum.int_to_digits"),
    ("seqgen", "tail_digits", "seqgen.tail_digits"),
)

# (metric, unit) in the order they are reported
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("cli.render_s", "s"),
    ("asymptotics.scan_points_s", "s"),
    ("asymptotics.ratio_scan.self_s", "s"),
    ("asymptotics.poly_floor_inverse.calls", "count"),
    ("seqgen.n_min_s", "s"),
    ("seqgen.tail_digits_s", "s"),
    ("seqgen.tail_digits.calls", "count"),
    ("seqgen.term.calls", "count"),
    ("counting.count_A_s", "s"),
    ("counting.count_A.calls", "count"),
    ("counting.indices", "count"),
    ("counting.streamed_indices", "count"),
    ("counting.terms_per_streamed_index", "ratio"),
    ("counting.digits_consulted_max", "digits"),
    ("exactnum.compare_prefix.calls", "count"),
    ("exactnum.compare_prefix_s", "s"),
    ("exactnum.int_to_digits.calls", "count"),
    ("exactnum.int_to_digits_s", "s"),
    ("counting.census_s", "s"),
    ("equidist.benford_report_s", "s"),
    ("equidist.log_fracparts_s", "s"),
    ("equidist.star_discrepancy_s", "s"),
    ("equidist.weyl_sum_s", "s"),
    ("equidist.points", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.stack: list[list] = [[0.0, 0]]  # frames: [child time, span id]
        self.spans: list[tuple] = []
        self.job = 0
        self.indices = 0
        self.digits_max = 0
        self.points = 0
        self._next_id = 1
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str, span: bool, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = 0
            frame = [0.0, sid]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                parent[0] += dt
                if span:
                    spans.append((sid, parent[1], tracer.job, name, t0, t0 + dt))
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module, attr: str, name: str, span: bool, after=None) -> None:
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, span, after))

    def _after_count_A(self, args, kwargs, result) -> None:
        self.indices += result.N
        self.digits_max = max(self.digits_max, result.digits_consulted_max)

    def _after_star(self, args, kwargs, result) -> None:
        points = args[0] if args else kwargs["points"]
        self.points += len(points)

    def install(self) -> None:
        from concat_equidist import asymptotics, cli, counting, equidist, seqgen

        modules = {"cli": cli, "asymptotics": asymptotics, "counting": counting,
                   "equidist": equidist, "seqgen": seqgen}
        after = {"counting.count_A": self._after_count_A, "equidist.star_discrepancy": self._after_star}
        for mod, attr, name in _SPAN_SITES:
            self._patch(modules[mod], attr, name, True, after.get(name))
        for mod, attr, name in _COUNTER_SITES:
            self._patch(modules[mod], attr, name, False)
        # IntPoly.n_min is a cached_property: the wrapped function runs on the
        # first access per polynomial, which is the certification cost.
        original = seqgen.IntPoly.__dict__["n_min"]
        descriptor = cached_property(self._wrap(original.func, "seqgen.n_min", True))
        descriptor.__set_name__(seqgen.IntPoly, "n_min")
        self._undo.append((seqgen.IntPoly, "n_min", original))
        seqgen.IntPoly.n_min = descriptor

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _get(self, name: str, field: int):
        return self.stats.get(name, [0, 0.0, 0.0])[field]

    def layer_metrics(self, untraced_pass_s: list[float], traced_pass_s: list[float]) -> dict:
        """Per-layer figures per traced pass over the job list (maxima are not
        divided), and the tracing overhead from pairs of passes run in turn."""
        passes = len(traced_pass_s)
        calls, busy, own = 0, 1, 2
        streamed = self._get("counting.default_max_digits", calls)
        values = {
            "cli.self_s": self._get("cli.main", own),
            "cli.render_s": self._get("cli.render", busy),
            "asymptotics.scan_points_s": self._get("asymptotics.scan_points", busy),
            "asymptotics.ratio_scan.self_s": self._get("asymptotics.ratio_scan", own),
            "asymptotics.poly_floor_inverse.calls": self._get("asymptotics.poly_floor_inverse", calls),
            "seqgen.n_min_s": self._get("seqgen.n_min", busy),
            "seqgen.tail_digits_s": self._get("seqgen.tail_digits", busy),
            "seqgen.tail_digits.calls": self._get("seqgen.tail_digits", calls),
            "seqgen.term.calls": self._get("seqgen.term", calls),
            "counting.count_A_s": self._get("counting.count_A", busy),
            "counting.count_A.calls": self._get("counting.count_A", calls),
            "counting.indices": self.indices,
            "counting.streamed_indices": streamed,
            "exactnum.compare_prefix.calls": self._get("exactnum.compare_prefix", calls),
            "exactnum.compare_prefix_s": self._get("exactnum.compare_prefix", busy),
            "exactnum.int_to_digits.calls": self._get("exactnum.int_to_digits", calls),
            "exactnum.int_to_digits_s": self._get("exactnum.int_to_digits", busy),
            "counting.census_s": self._get("counting.census", busy),
            "equidist.benford_report_s": self._get("equidist.benford_report", busy),
            "equidist.log_fracparts_s": self._get("equidist.log_fracparts", busy),
            "equidist.star_discrepancy_s": self._get("equidist.star_discrepancy", busy),
            "equidist.weyl_sum_s": self._get("equidist.weyl_sum", busy),
            "equidist.points": self.points,
        }
        values = {k: v / passes for k, v in values.items()}
        values["counting.terms_per_streamed_index"] = (
            self._get("seqgen.term", calls) / streamed if streamed else 0.0
        )
        values["counting.digits_consulted_max"] = self.digits_max
        overhead = statistics.median(t - u for u, t in zip(untraced_pass_s, traced_pass_s))
        values["trace.overhead_s"] = overhead
        values["trace.overhead_ratio"] = overhead / statistics.median(untraced_pass_s)
        return values

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "job", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
