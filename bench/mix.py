"""Job catalogues and the seed-driven job list of each workload.

A workload is a fixed list of job slots ("one pass").  Each slot fixes the
job's size class (command, family class, N or jmax, digits), which is what
sets its cost; the seed only draws the parameters that leave the cost
about the same (which k, which polynomial, the Weyl h, dmax, the tail
index, the output format and the order of the slots).  That keeps p50/p90
comparable across seeds while every seed still runs different inputs.

Every integer the outputs are checked against is stored in
``expected.json`` (see ``reference.py``), so the catalogues below are
finite: a seed can only draw entries that have a stored answer.
"""
from __future__ import annotations

import random

WORKLOADS = ("scan", "stream", "diagnostics")

# Units of items_per_s, per workload (the work counted in one job).
ITEM_UNITS = {
    "scan": "indices decided (sum of N over the scan points)",
    "stream": "indices decided (N of each count job; tail jobs add 0)",
    "diagnostics": "terms (benford N) plus points (discrepancy N)",
}

# Tiny jobs of the commands a workload does not otherwise run.  They keep
# every per-layer figure measured, near zero, on every workload (the "no
# change" reading), and add no items.
WORKLOAD_PROBES = {
    "scan": ("count", "benford", "discrepancy"),
    "stream": ("scan", "benford", "discrepancy"),
    "diagnostics": ("scan", "count"),
}

# --- scan ------------------------------------------------------------------
# Job times fall into three clusters, with as many cheap jobs as top ones,
# so that p50 and p90 land inside a cluster rather than in a gap between
# two.  Cheap (10): limits, the small polynomials, k = 3 and k = 7 at jmax
# 5, the probes.  Middle (7, p50): k = 1 at jmax 5 and k = 13 and
# SCAN_BAND_K at jmax 6, each deciding 1.6e5 to 2.5e5 indices.  Top (10,
# p90): the large-constant polynomials.
SCAN_FIXED_K = (1, 3, 7, 13)
SCAN_BAND_K = (9, 10, 11, 12, 14)
SCAN_SMALL_POLYS = ("0,0,1", "5,-3,1", "1,0,0,2")  # n^2, n^2-3n+5, 2n^3+1
# Large constant terms: the certification of n_min walks up to
# d*sum|c_i|/c_d, which is about 4.2e5 for every entry, so each of these
# jobs costs about the same on the seed code (known defect: slow n_min).
SCAN_BIG_POLYS = (
    "210000,0,1", "-205000,17,1", "207000,-40,1", "-209000,0,1",
    "208000,25,1", "-211000,-9,1", "-420000,5,2", "419000,20,2",
    "630000,0,3", "140000,0,0,1", "-139500,0,0,1", "1050000,0,5",
)
SCAN_BIG_DRAWN = 10
SCAN_LIMITS_JOBS = 2
SCAN_JMAX_POLY = 8


def scan_jmax(k: int) -> int:
    return 6 if k >= 9 else 5


# --- stream ----------------------------------------------------------------
# Streaming cost per index depends on the family class (about 10 us for
# champ and mult, 13 us for the quadratics and 15 us for the cubics on a
# 2-vCPU host), so every count slot has a fixed family class, and the seed
# draws within the class.  One N per class, smaller
# for the classes with longer terms, makes every count job cost about the
# same, so that p50 and p90 both fall inside that one tight cluster and do
# not depend on which slots a seed makes cheapest.
STREAM_CLASS_N = {"champ": 30_000, "mult": 27_500, "quadratic": 22_500, "cubic": 20_000}
STREAM_COUNT_SLOTS = 16
STREAM_MULT_K = (3, 7, 11, 13)
STREAM_QUADRATICS = ("0,0,1", "5,-3,1", "41,1,1", "7,2,3")
STREAM_CUBICS = ("1,0,0,2", "3,-1,0,1", "1,1,0,1")
STREAM_INTERVALS = (
    ("0.123", "0.1231"), ("0.37", "0.3712"), ("0.5", "0.55"), ("0.1", "0.15"),
    ("0.2718", "0.2719"), ("0.9", "0.95"), ("0.42", "0.4201"),
)
STREAM_TAIL_DIGITS = (500, 1000, 1500, 2000, 2500, 3000, 3500, 4000)
STREAM_TAIL_MAX_N = 10**9

# --- diagnostics -----------------------------------------------------------
DIAG_MULT_K = (3, 7, 11, 13)
DIAG_POLYS = ("0,0,1", "5,-3,1", "41,1,1")
DIAG_BENFORD_POLYS = ("0,0,1", "41,1,1", "7,2,3", "5,-3,1")
DIAG_DISC_N = tuple(range(10_000, 27_501, 2_500))  # 8 discrepancy slots
DIAG_WEYL_H = (1, 2, 3)
DIAG_POW2_N = (1000, 2000, 3000, 4000)
# The benford naturals/poly sizes keep those 16 jobs in one cost cluster,
# between the cheap pow2 and probe jobs and the discrepancy jobs, with p50
# inside it.
DIAG_NATURALS_N = tuple(range(50_000, 85_001, 5_000))
DIAG_BENFORD_POLY_N = tuple(range(30_000, 47_501, 2_500))

# Known-defect jobs: inputs the seed code handles wrongly or slowly.  They
# stay in the mix on purpose, so that a fix shows up in the metrics.  The
# gate accepts either a correct output or, where ``stderr`` is set, exit
# code 1 with that text on stderr.
KNOWN_DEFECTS = {
    "pow2-str-limit": {
        "seed_behaviour": "exit 1: int-to-str conversion exceeds the 4300-digit limit",
        "stderr": "Exceeds the limit (4300 digits)",
    },
    "k17-prefix-rounds-to-1": {
        "seed_behaviour": "exit 1: an 18-digit prefix rounds to 1.0",
        "stderr": "all points must lie in [0, 1)",
    },
    "slow-n-min": {
        "seed_behaviour": "correct, but n_min certification walks about 4.2e5 indices",
        "stderr": None,
    },
}
DIAG_K17 = 99999999999999999


def _coeffs_arg(coeffs: str) -> str:
    # "--coeffs=-7,0,1": a leading minus would read as an option otherwise
    return f"--coeffs={coeffs}"


def _fmt(rng: random.Random) -> list[str]:
    return ["--format", rng.choice(("csv", "json"))]


def _spec_args(family: str) -> list[str]:
    kind, _, param = family.partition(":")
    if kind == "champ":
        return ["--kind", "champ"]
    if kind == "mult":
        return ["--kind", "mult", "--k", param]
    return ["--kind", "poly", _coeffs_arg(param)]


def _job(cmd: str, argv: list[str], items: int | None, **ref) -> dict:
    """A job; ``items`` None means the sum of N over the scan points."""
    return {"cmd": cmd, "argv": argv, "items": items, "defect": ref.pop("defect", None), "ref": ref}


def probe_jobs(workload: str) -> list[dict]:
    probes = {
        "count": _job("count", ["count", "--kind", "champ", "--lo", "0.12", "--hi", "0.1203", "--N", "300"],
                      0, family="champ", lo="0.12", hi="0.1203", N=300),
        "scan": _job("scan", ["scan", "--kind", "poly", "--coeffs=0,0,1", "--jmax", "3"],
                     0, family="poly:0,0,1", jmax=3),
        "benford": _job("benford", ["benford", "--gen", "naturals", "--N", "300"], 0, gen="naturals", N=300),
        "discrepancy": _job("discrepancy", ["discrepancy", "--kind", "champ", "--N", "300"],
                            0, family="champ", N=300, h=1),
    }
    return [probes[name] for name in WORKLOAD_PROBES[workload]]


def _scan_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    ks = SCAN_FIXED_K + SCAN_BAND_K
    for k in ks:
        jmax = scan_jmax(k)
        argv = ["scan", "--kind", "mult", "--k", str(k), "--jmax", str(jmax)] + _fmt(rng)
        jobs.append(_job("scan", argv, None, family=f"mult:{k}", jmax=jmax))
    big = rng.sample(SCAN_BIG_POLYS, SCAN_BIG_DRAWN)
    for coeffs in SCAN_SMALL_POLYS + tuple(big):
        argv = ["scan", "--kind", "poly", _coeffs_arg(coeffs), "--jmax", str(SCAN_JMAX_POLY)]
        jobs.append(_job("scan", argv + _fmt(rng), None, family=f"poly:{coeffs}",
                         jmax=SCAN_JMAX_POLY, defect="slow-n-min" if coeffs in big else None))
    for _ in range(SCAN_LIMITS_JOBS):
        dmax = rng.randint(5, 60)
        jobs.append(_job("limits", ["limits", "--dmax", str(dmax)] + _fmt(rng), 0, dmax=dmax))
    return jobs


def _stream_family(rng: random.Random, cls: str) -> str:
    if cls == "champ":
        return "champ"
    if cls == "mult":
        return f"mult:{rng.choice(STREAM_MULT_K)}"
    if cls == "quadratic":
        return f"poly:{rng.choice(STREAM_QUADRATICS)}"
    return f"poly:{rng.choice(STREAM_CUBICS)}"


def _stream_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    classes = tuple(STREAM_CLASS_N)
    for slot in range(STREAM_COUNT_SLOTS):
        cls = classes[slot % len(classes)]
        N = STREAM_CLASS_N[cls]
        family = _stream_family(rng, cls)
        # the interval changes the cost per index by up to 25%, so it is
        # tied to the slot rather than drawn
        lo, hi = STREAM_INTERVALS[slot % len(STREAM_INTERVALS)]
        argv = ["count"] + _spec_args(family) + ["--lo", lo, "--hi", hi, "--N", str(N)] + _fmt(rng)
        jobs.append(_job("count", argv, N, family=family, lo=lo, hi=hi, N=N))
    for slot, digits in enumerate(STREAM_TAIL_DIGITS):
        family = _stream_family(rng, classes[slot % len(classes)])
        n = rng.randint(1000, STREAM_TAIL_MAX_N)
        argv = ["tail"] + _spec_args(family) + ["--n", str(n), "--digits", str(digits)]
        jobs.append(_job("tail", argv, 0, family=family, n=n, digits=digits))
    return jobs


def _diag_family(rng: random.Random, slot: int) -> str:
    cls = slot % 3
    if cls == 0:
        return "champ"
    if cls == 1:
        return f"mult:{rng.choice(DIAG_MULT_K)}"
    return f"poly:{rng.choice(DIAG_POLYS)}"


def _diagnostics_jobs(rng: random.Random) -> list[dict]:
    jobs = []
    for slot, N in enumerate(DIAG_DISC_N):
        family = _diag_family(rng, slot)
        h = rng.choice(DIAG_WEYL_H)
        argv = ["discrepancy"] + _spec_args(family) + ["--N", str(N), "--weyl-h", str(h)] + _fmt(rng)
        jobs.append(_job("discrepancy", argv, N, family=family, N=N, h=h))
    family = f"mult:{DIAG_K17}"
    argv = ["discrepancy"] + _spec_args(family) + ["--N", "10000"] + _fmt(rng)
    jobs.append(_job("discrepancy", argv, 10_000, family=family, N=10_000, h=1,
                     defect="k17-prefix-rounds-to-1"))
    for N in DIAG_POW2_N:
        argv = ["benford", "--gen", "pow2", "--N", str(N)] + _fmt(rng)
        jobs.append(_job("benford", argv, N, gen="pow2", N=N))
    argv = ["benford", "--gen", "pow2", "--N", "15000"] + _fmt(rng)
    jobs.append(_job("benford", argv, 15_000, gen="pow2", N=15_000, defect="pow2-str-limit"))
    for N in DIAG_NATURALS_N:
        argv = ["benford", "--gen", "naturals", "--N", str(N)] + _fmt(rng)
        jobs.append(_job("benford", argv, N, gen="naturals", N=N))
    for N in DIAG_BENFORD_POLY_N:
        coeffs = rng.choice(DIAG_BENFORD_POLYS)
        argv = ["benford", "--gen", "poly", _coeffs_arg(coeffs), "--N", str(N)] + _fmt(rng)
        jobs.append(_job("benford", argv, N, gen=f"poly:{coeffs}", N=N))
    return jobs


_BUILDERS = {"scan": _scan_jobs, "stream": _stream_jobs, "diagnostics": _diagnostics_jobs}


def job_list(workload: str, seed: int) -> list[dict]:
    """The fixed, seed-determined list of jobs making one pass of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng) + probe_jobs(workload)
    rng.shuffle(jobs)
    return jobs


# Tiny jobs run once, untimed, before the measured loop so that lazy
# imports and first-call set-up inside the library are paid up front.
WARMUP = (
    ["scan", "--kind", "mult", "--k", "3", "--jmax", "2"],
    ["scan", "--kind", "poly", "--coeffs", "0,0,1", "--jmax", "2", "--format", "json"],
    ["count", "--kind", "champ", "--lo", "0.12", "--hi", "0.13", "--N", "50"],
    ["tail", "--kind", "mult", "--k", "7", "--n", "5", "--digits", "20"],
    ["benford", "--gen", "naturals", "--N", "50", "--format", "json"],
    ["discrepancy", "--kind", "champ", "--N", "50"],
    ["limits", "--dmax", "3"],
)
