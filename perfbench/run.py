#!/usr/bin/env python3
"""Builds and runs the fixed-work HTAP benchmark (htap_bench.cc).

    python3 perfbench/run.py --workload fi-durable --seed 7 --seconds 36 --trace 0

Run from the root of a source tree. The first run configures and builds
perfbench/ (the engine from src/ plus htap_bench) under .bench_build/;
later runs only rebuild what changed. Every run executes the statistics
self-tests, then htap_bench WINDOWS times, each in a fresh process with its
own set-up and a window of seconds / WINDOWS, then prints a host/build/seed
stamp line, the end-of-run check's coverage and, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
The full htap_bench output of each run is kept under .bench_build/results/.
Workloads, sizes and rates: perfbench/WORKLOADS.md.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"

WORKLOADS = ("fi-htap", "su-unified", "fi-durable")
# Measured windows per run, each in a fresh process with its own set-up.
# Window k serves the k-th part of the run's seeded request sequence. A
# figure is the mean of the middle half of the windows' values
# (window_mean), so the windows that the host slowed (steal on a shared
# machine comes in bursts of seconds) do not move it, while the rest
# average out how much a window's requests cost.
WINDOWS = 8
# setup_s is the median of every set-up in the run: one per window, then
# more in --setup-only processes (up to MAX_SETUPS) until the set-ups add
# up to SETUP_BUDGET_S, so a workload with a short set-up takes the median
# of more of them.
MAX_SETUPS = 9
SETUP_BUDGET_S = 5.0
# Workloads whose business-rule rollbacks are a function of the seed alone
# (every rollback is drawn from the request's own seeded parameters), so
# two runs at one seed must roll back exactly the same requests.
FIXED_ROLLBACK_WORKLOADS = ("su-unified",)
# Per-layer tails, taken over the latency samples of all the run's windows.
TAILS = {"oltp.p99_us": ("oltp", 0.99), "olap.p95_us": ("olap", 0.95),
         "hybrid.p95_us": ("hybrid", 0.95),
         "freshness.p95_us": ("probe", 0.95)}
# A tail is reported only with at least this many samples beyond it;
# below that it is one or two outliers, not a tail.
MIN_SAMPLES_BEYOND_TAIL = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "loaded_rss_mb": "MB",
    "oltp_tps": "1/s",
    "oltp_latency_us": "us",
    "olap_latency_us": "us",
    "hybrid_latency_us": "us",
    "freshness_p50_us": "us",
}


def per_layer_unit(name):
    if name.endswith("_us") or name.endswith("_us_per_commit"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes_per_row") or name.endswith("bytes_per_commit"):
        return "B"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, **kw):
    """Runs cmd to completion (killing it on timeout); stdout is returned."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              text=True, **kw)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")
        sys.exit(1)
    if proc.returncode != 0:
        log(proc.stdout)
        log(f"exit {proc.returncode}: {' '.join(map(str, cmd))}")
        sys.exit(1)
    return proc.stdout


def build():
    if not (ROOT / "src" / "engine" / "database.h").is_file():
        log(f"engine sources not found under {ROOT / 'src'}")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                     "-DCMAKE_BUILD_TYPE=Release"], 120,
                    stderr=subprocess.STDOUT)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", str(BUILD), "-j", jobs], 660,
                stderr=subprocess.STDOUT)


def source_digest():
    """SHA-256 over every source file the benchmark binary is built from."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and p.suffix in (".cc", ".h", ".txt"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def nearest_rank(q, n):
    """1-based nearest rank of quantile q in n samples: ceil(q * n),
    clamped to [1, n] (as NearestRank in stats.h)."""
    return min(n, max(1, math.ceil(q * n - 1e-9)))


def supports_tail(q, n):
    return n > 0 and n - nearest_rank(q, n) >= MIN_SAMPLES_BEYOND_TAIL


def tail(samples, q):
    """Nearest-rank q-quantile, or None when the samples cannot support
    it as a tail."""
    if not supports_tail(q, len(samples)):
        return None
    return sorted(samples)[nearest_rank(q, len(samples)) - 1]


def selftest():
    """Checks the tail rule and the window mean on hand-built inputs; the
    C++ statistics have their own self-test (stats_selftest)."""
    checks = [
        (nearest_rank(0.95, 200) == 190, "p95 of 200 samples is rank 190"),
        (nearest_rank(0.99, 100) == 99, "p99 of 100 samples is rank 99"),
        (nearest_rank(0.0, 7) == 1, "p0 clamps to the minimum"),
        (supports_tail(0.95, 200), "200 samples support p95"),
        (not supports_tail(0.95, 199), "199 samples do not support p95"),
        (supports_tail(0.99, 1000), "1000 samples support p99"),
        (not supports_tail(0.99, 999), "999 samples do not support p99"),
        (not supports_tail(0.5, 0), "no samples support nothing"),
        (tail(list(range(1000, 0, -1)), 0.99) == 990, "p99 of 1..1000"),
        (tail(list(range(100)), 0.95) is None, "100 samples: no p95"),
        (window_mean([9, 1, 5, 4, 100, 6, 7, 0]) == 5.5, "window mean of "
         "eight drops the two lowest and the two highest"),
        (window_mean([9, 1, 5, 4, 100, 6]) == 6, "of six, one from each end"),
        (window_mean([3, 5]) == 4, "two windows: plain mean"),
    ]
    failed = [what for ok, what in checks if not ok]
    for what in failed:
        log(f"selftest FAIL: {what}")
    if failed:
        sys.exit(1)


def window_mean(values):
    """Mean of the values left after dropping the lowest and the highest
    quarter (len // 4 from each end)."""
    values = sorted(values)
    cut = len(values) // 4
    values = values[cut:len(values) - cut]
    return sum(values) / len(values)


def check_fixed_work(window, digest):
    """Two runs of one workload, seed, length and source tree send the
    same requests in each window, so on a workload whose rollbacks follow
    from the requests alone they must roll back the same ones. The first
    run of a key records its counts in .bench_build/fixed_work.json."""
    if window["workload"] not in FIXED_ROLLBACK_WORKLOADS:
        return []
    ledger_path = OUT / "fixed_work.json"
    ledger = {}
    if ledger_path.is_file():
        ledger = json.loads(ledger_path.read_text())
    key = "|".join(str(window[k]) for k in
                   ("workload", "seed", "seconds", "window")) + "|" + digest
    seen = {c: v["rolled_back"]
            for c, v in window["counts"]["classes"].items()}
    if key in ledger and ledger[key] != seen:
        return [f"fixed work: rollbacks {seen} differ from an earlier run at "
                f"the same seed {ledger[key]}"]
    ledger[key] = seen
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    selftest()
    run_checked([str(BUILD / "stats_selftest")], 60)
    bench = [str(BUILD / "htap_bench"),
             "--workload", args.workload,
             "--seed", str(args.seed),
             "--seconds", repr(args.seconds / WINDOWS),
             "--trace", str(args.trace)]
    # Each window keeps its own scratch directory (WAL, spans).
    windows = [json.loads(run_checked(
        bench + ["--window", str(i),
                 "--scratch", str(OUT / "runs" / f"window{i}")],
        30).strip().splitlines()[-1]) for i in range(WINDOWS)]
    bench += ["--scratch", str(OUT / "runs")]
    setups = [w["setup"] for w in windows]
    while len(setups) < MAX_SETUPS and (
            sum(s["total_s"] for s in setups) < SETUP_BUDGET_S):
        out = run_checked(bench + ["--setup-only", "1"], 20)
        setups.append(json.loads(out.strip().splitlines()[-1])["setup"])

    def over_windows(part):
        return {k: window_mean(w[part][k] for w in windows)
                for k in windows[0][part]}
    end_to_end = over_windows("end_to_end")
    end_to_end["setup_s"] = statistics.median(s["total_s"] for s in setups)
    per_layer = over_windows("per_layer")
    for phase in ("load_s", "catchup_s", "vacuum_s"):
        per_layer["setup." + phase] = statistics.median(
            s[phase] for s in setups)
    unsupported = []
    for name, (cls, q) in TAILS.items():
        value = tail([v for w in windows for profile in w["samples"][cls]
                      for v in profile], q)
        if value is None:
            unsupported.append(name)
        per_layer[name] = value or 0
    for w in windows:
        del w["samples"]

    digest = source_digest()
    problems = [p for w in windows for p in w["problems"]]
    for w in windows:
        problems += check_fixed_work(w, digest)
    stamp = {
        "nproc": os.cpu_count(),
        "compiler": windows[0]["build"]["compiler"],
        "build_type": windows[0]["build"]["build_type"],
        "git_describe": git_describe(),
        "source_sha256": digest,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {"stamp": stamp, "problems": problems,
              "end_to_end": end_to_end, "per_layer": per_layer,
              "unsupported_tails": unsupported, "setups": setups,
              "windows": windows}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    for p in problems:
        log(f"check failed: {p}")
    if unsupported:
        log(f"too few samples for {', '.join(unsupported)}: reported as 0")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    # Which analytical queries the end-of-run check compared across the
    # replica and the row store, and which ran on the row store twice.
    print("check " + json.dumps(windows[0]["check"], sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(w["counts"]["attempted"] for w in windows),
        "failed": sum(w["counts"]["failed"] for w in windows),
        "metrics": metrics}))


if __name__ == "__main__":
    main()
