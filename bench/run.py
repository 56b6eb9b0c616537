"""Benchmark of the concat-equidist CLI: one workload, one seed, one run.

    python3 bench/run.py --workload scan|stream|diagnostics --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout (the package is imported from
``src/`` next to this directory; nothing needs building).  The job list is
drawn from the seed (``mix.py``), run in a fresh worker interpreter in a
closed loop through ``concat_equidist.cli.main`` for at least S seconds and
at least MIN_JOBS jobs, always in whole passes over the list, and every
execution is checked against the references (``verify.py``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``).  The line before it
records the interpreter, NumPy, commit and run shape.  Exit code 2, with no
result line, when the source tree or the reference file is missing or the
worker does not finish.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import signal
import sys
import time
from pathlib import Path

import mix
import tracer
import verify
from reference import EXPECTED_PATH, load_expected

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_JOBS = 100  # so that at least ten samples lie beyond p90
HARD_CAP_S = 150  # the worker stops starting passes after this long

END_TO_END = (
    ("job_s.p50", "s"),
    ("job_s.p90", "s"),
    ("items_per_s", "items/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_ratio", "ratio"),
)


def pinned_env() -> dict:
    """One process, at most two threads, no thread-count override, src on the path."""
    env = {k: v for k, v in os.environ.items() if k != "CONCAT_EQUIDIST_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def source_info() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def job_items(job: dict, expected: dict) -> int:
    if job["items"] is None:
        ref = job["ref"]
        return sum(N for _, N, _ in expected["scan"][f"{ref['family']}|{ref['jmax']}"])
    return job["items"]


def run_worker(spec: dict, env: dict, timeout: float) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{os.getpid()}"
    spec_path = OUT_DIR / f"spec-{tag}.json"
    result_path = OUT_DIR / f"result-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path), str(result_path)]
    # its own session, so that a timeout also ends a set-up probe it started
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        returncode = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    try:
        if returncode != 0:
            raise RuntimeError(f"worker exited with {returncode}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        for path in (spec_path, result_path, Path(spec["output_path"])):
            path.unlink(missing_ok=True)


def end_to_end(executions, verdicts, jobs, expected, setup_s, peak_rss_kib) -> dict:
    times = [dt for _, _, dt, *_ in executions]
    ok = [v == "ok" for v in verdicts]
    items = sum(job_items(jobs[slot], expected) for (slot, *_), good in zip(executions, ok) if good)
    values = {
        "job_s.p50": statistics.median(times),
        "job_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "items_per_s": items / sum(times),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_kib / 1024,
        "ok_ratio": sum(ok) / len(ok),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=mix.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wall0 = time.perf_counter()

    if not (ROOT / "src" / "concat_equidist" / "cli.py").is_file():
        print(f"error: no concat_equidist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not EXPECTED_PATH.is_file():
        print(f"error: missing {EXPECTED_PATH}", file=sys.stderr)
        return 2
    expected = load_expected()
    jobs = mix.job_list(args.workload, args.seed)
    env = pinned_env()

    spec = {
        "root": str(ROOT),
        "jobs": [job["argv"] for job in jobs],
        "warmup": [list(argv) for argv in mix.WARMUP],
        "seconds": args.seconds,
        "min_jobs": MIN_JOBS,
        "hard_cap_s": HARD_CAP_S,
        "trace": bool(args.trace),
        "setup_probes": not args.trace,
        "output_path": str(OUT_DIR / f"job-{os.getpid()}.out"),
        "spans_path": str(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"),
    }
    try:
        result = run_worker(spec, env, timeout=175 - (time.perf_counter() - wall0))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    texts = result["texts"]
    verdicts = []
    cache = {}
    problems = []
    for slot, _pass, _dt, rc, out_id, err_id in result["executions"]:
        key = (slot, rc, out_id, err_id)
        if key not in cache:
            out = texts[out_id] if out_id is not None else None
            cache[key] = verify.check(jobs[slot], rc, out, texts[err_id], expected)
            if cache[key][0] == "wrong":
                problems.append(f"job {slot} {' '.join(jobs[slot]['argv'])}: {cache[key][1]}")
        verdicts.append(cache[key][0])
    for line in problems[:20]:
        print(f"wrong: {line}", file=sys.stderr)

    if args.trace:
        layers = result["layers"]
        if layers is None:
            print("error: the run ended before a traced pass", file=sys.stderr)
            return 2
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracer.LAYER_METRICS}
    else:
        setup_s = statistics.median(result["setup_s"])
        metrics = end_to_end(result["executions"], verdicts, jobs, expected, setup_s, result["peak_rss_kib"])

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": result["numpy"],
        **source_info(),
        "os_threads": result["os_threads"],
        "jobs_per_pass": len(jobs),
        "passes": len(result["untraced_pass_s"]) + len(result["traced_pass_s"]),
        "untraced_pass_s": result["untraced_pass_s"],
        "traced_pass_s": result["traced_pass_s"],
        "known_defect_executions": verdicts.count("known-defect"),
        "items_unit": mix.ITEM_UNITS[args.workload],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(verdicts),
        "failed": sum(v != "ok" for v in verdicts),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
