"""Workload process: runs one job list in a closed loop through cli.main.

Started by ``run.py`` in a fresh interpreter with a pinned environment.
Usage: ``python3 bench/worker.py SPEC.json RESULT.json``.  The spec holds
the source root, the job argv lists, the warm-up argv lists, the run length
and whether to trace.  One client, and no extra thread while a job runs:
each job starts only after the previous one returned.  Outputs are read
back after the clock stops and returned for checking by ``run.py``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


SETUP_CODE = "import concat_equidist.cli as c; c.build_parser()"
SETUP_PROBES_PER_PASS = 3


def setup_seconds() -> float:
    """Wall time to start an interpreter, import the CLI and build its parser."""
    # A blocking wait: Popen.wait(timeout=...) polls in steps of up to 50 ms,
    # which would quantise the measurement.  The timer only guards a hang.
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE])
    guard = threading.Timer(60, proc.kill)
    guard.start()
    try:
        returncode = proc.wait()
    finally:
        guard.cancel()
    elapsed = time.perf_counter() - t0
    if returncode != 0:
        raise RuntimeError(f"set-up probe exited with {returncode}")
    return elapsed


class Runner:
    def __init__(self, cli, output_path: str):
        self.cli = cli
        self.output_path = output_path
        self.texts: dict[str, int] = {}
        self.executions: list[list] = []
        self.setup_s: list[float] = []

    def _intern(self, text: str | None) -> int | None:
        if text is None:
            return None
        return self.texts.setdefault(text, len(self.texts))

    def run(self, argv: list[str]) -> tuple[float, int | None, str | None, str]:
        if os.path.exists(self.output_path):
            os.remove(self.output_path)
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                rc = self.cli.main(argv + ["--output", self.output_path])
        except Exception:  # a crash is a failed job, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        try:
            with open(self.output_path, encoding="utf-8", newline="") as fh:
                out = fh.read()
        except FileNotFoundError:
            out = None
        return dt, rc, out, err.getvalue()

    def run_pass(self, jobs: list[list[str]], pass_no: int, tracer=None, probes: int = 0) -> float:
        # set-up probes sit at evenly spaced slots, between timed jobs
        probe_slots = {i * len(jobs) // probes for i in range(probes)}
        total = 0.0
        for slot, argv in enumerate(jobs):
            if slot in probe_slots:
                self.setup_s.append(setup_seconds())
            if tracer is not None:
                tracer.job = len(self.executions)
            dt, rc, out, err = self.run(argv)
            total += dt
            self.executions.append([slot, pass_no, dt, rc, self._intern(out), self._intern(err)])
        return total


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(sys.argv[2])
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy
    import concat_equidist
    from concat_equidist import cli

    if Path(concat_equidist.__file__).resolve().parent != (src / "concat_equidist").resolve():
        print(f"imported concat_equidist from {concat_equidist.__file__}, not {src}", file=sys.stderr)
        return 2

    runner = Runner(cli, spec["output_path"])
    for argv in spec["warmup"]:
        runner.run(argv)
    probes = SETUP_PROBES_PER_PASS if spec["setup_probes"] else 0
    if probes:
        setup_seconds()  # the first start may still write __pycache__

    jobs = spec["jobs"]
    seconds = spec["seconds"]
    hard_cap = spec["hard_cap_s"]
    min_jobs = spec["min_jobs"]
    untraced, traced = [], []
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= hard_cap:
            break
        if tracer is not None:
            # whole pairs of one untraced and one traced pass
            if traced and len(traced) == len(untraced) and elapsed >= seconds:
                break
        elif untraced and elapsed >= seconds and len(runner.executions) >= min_jobs:
            break
        pass_no = len(untraced) + len(traced)
        # pairs run untraced-traced, then traced-untraced (ABBA), so that a
        # drift in host speed does not read as tracing overhead
        if tracer is not None and (pass_no % 2 == 1) != (pass_no // 2 % 2 == 1):
            tracer.install()
            try:
                traced.append(runner.run_pass(jobs, pass_no, tracer))
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.run_pass(jobs, pass_no, probes=probes))

    result = {
        "numpy": numpy.__version__,
        "os_threads": _os_threads(),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_s": runner.setup_s,
        "executions": runner.executions,
        "texts": list(runner.texts),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "layers": None,
    }
    if traced:
        result["layers"] = tracer.layer_metrics(untraced, traced)
        tracer.write_spans(spec["spans_path"])
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
