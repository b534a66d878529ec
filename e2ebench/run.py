#!/usr/bin/env python3
"""End-to-end APM benchmark: builds the program from source, runs trials of
one workload, and prints the result as JSON on the last line of stdout.

    python3 e2ebench/run.py --workload ingest_w --seed 1 --seconds 40 --trace 0

Each trial is a fresh process on a fresh directory that runs a fixed number
of operations (see driver.cc). A run makes trials until --seconds is used
up and reports every metric as its median over the whole run (see
SEGMENTED below). --trace 1 runs untraced and traced trials in turn and
reports the per-layer metrics of the traced ones plus the tracing
overhead. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
DATA = os.path.join(ROOT, ".bench_build", "e2ebench-data")
RESULTS = os.path.join(ROOT, ".bench_build", "e2ebench-results")
TRIAL = os.path.join(BUILD, "e2e_trial")

WORKLOADS = ("ingest_w", "scan_rs", "served_r")
TRIAL_TIMEOUT_S = 150

# name -> unit, in print order. END_TO_END is what --trace 0 reports;
# BENCHMARK.json lists the same names.
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "read_p50_us": "us",
    "write_p50_us": "us",
    "cpu_us_per_op": "us/op",
    "space_amp": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed for reading, not reported as gated metrics: error_ratio is 0 on a
# correct run (the JSON's failed/attempted carry it); the scan latencies
# exist only on scan_rs; tail latencies move with host CPU steal by far more
# than any bound (see README.md). p99s are per trial, median over trials.
INFORMATIONAL = {
    "error_ratio": "ratio",
    "read_p99_us": "us",
    "write_p99_us": "us",
    "scan_p50_us": "us",
    "scan_p99_us": "us",
}
PER_LAYER = {
    "net.self_p50_us": "us",
    "net.ping_p50_us": "us",
    "net.echo_p50_us": "us",
    "net.bytes_per_op": "B/op",
    "stores.read_p50_us": "us",
    "stores.insert_p50_us": "us",
    "stores.scan_p50_us": "us",
    "stores.env_share": "ratio",
    "lsm.writes_per_group": "writes/group",
    "lsm.stall_ms": "ms",
    "lsm.flushes": "count",
    "lsm.compactions": "count",
    "lsm.compaction_write_amp": "ratio",
    "lsm.cache_hit_ratio": "ratio",
    "lsm.cache_evictions_per_op": "1/op",
    "btree.pool_hit_ratio": "ratio",
    "btree.binlog_appends_per_group": "appends/group",
    "btree.height": "count",
    "env.fg_write_bytes_per_op": "B/op",
    "env.bg_write_bytes_per_user_byte": "ratio",
    "env.read_bytes_per_op": "B/op",
    "env.syncs_per_op": "1/op",
    "env.fg_us_per_op": "us/op",
    "trace.client_read_p50_us": "us",
    "trace.overhead_pct": "%",
}
# Every metric is a median over the whole run. The host's slow and fast
# spells last seconds to minutes, so the more of the run a value is taken
# over, the steadier it is: SEGMENTED timings are the median over every
# equal-operation segment of every trial (see kSamplesPerSegment in
# driver.cc), every other metric the median over trials.
SEGMENTED = ("throughput_ops_s", "read_p50_us", "write_p50_us", "scan_p50_us")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Logs go to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("program sources (src/) not found next to e2ebench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "e2e_trial", "-j4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_fingerprint():
    """sha256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def spin_seconds():
    out = subprocess.run([TRIAL, "--spin"], capture_output=True, text=True,
                         timeout=60, check=True)
    return json.loads(out.stdout)["spin_s"]


def cpu_jiffies():
    """Aggregate (steal, total) CPU jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_trial(workload, seed, trace, scale, index):
    """One trial in a fresh process on a fresh directory."""
    path = os.path.join(DATA, "%s-%d-%d-%d" % (workload, seed, index, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        out = subprocess.run(
            [TRIAL, "--workload", workload, "--seed", str(seed),
             "--trace", "1" if trace else "0", "--scale", repr(scale),
             "--dir", path],
            capture_output=True, text=True, timeout=TRIAL_TIMEOUT_S)
    finally:
        shutil.rmtree(path, ignore_errors=True)
    if out.stderr:
        log(out.stderr.rstrip())
    if out.returncode not in (0, 1) or not out.stdout.strip():
        raise RuntimeError("trial exited %d without a result" % out.returncode)
    trial = json.loads(out.stdout.strip().splitlines()[-1])
    trial["ok"] = out.returncode == 0 and trial["failed"] == 0
    return trial


def run_trials(workload, seed, trace, scale, seconds):
    """Runs trials (with trace, pairs of an untraced and a traced trial)
    while the next one is expected to end within `seconds`, and at least
    one. On a slow host a run makes fewer trials; each trial's work is
    fixed."""
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        index = len(untraced) + len(traced)
        untraced.append(run_trial(workload, seed, False, scale, index))
        if trace:
            traced.append(run_trial(workload, seed, True, scale, index + 1))
        elapsed = time.monotonic() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced


def summarize(trials, name):
    if name in SEGMENTED:
        return statistics.median(
            s[name] for t in trials for s in t["segments"])
    return statistics.median(t["metrics"][name] for t in trials)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks preload and operation counts; for smoke tests only.
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.seed < 0:
        ap.error("--seconds and --scale must be positive, --seed non-negative")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    host = {
        "nproc": os.cpu_count(),
        "build_type": "Release",
        "git_sha": git_sha(),
        "source_sha": source_fingerprint(),
    }
    try:
        host["spin_before_s"] = spin_seconds()
        jiffies_before = cpu_jiffies()
        untraced, traced = run_trials(args.workload, args.seed, args.trace,
                                      args.scale, args.seconds)
        jiffies_after = cpu_jiffies()
        host["spin_after_s"] = spin_seconds()
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("run failed: %s" % e)
        return 2

    if jiffies_before and jiffies_after:
        total = jiffies_after[1] - jiffies_before[1]
        host["steal_pct"] = round(
            100.0 * (jiffies_after[0] - jiffies_before[0]) / max(total, 1), 2)
    trials = untraced + traced
    correct = all(t["ok"] for t in trials)
    for t in trials:
        for err in t.get("errors", []):
            log("check failed: %s" % err)

    if args.trace:
        units = PER_LAYER
        metrics = {n: summarize(traced, n) for n in PER_LAYER
                   if n != "trace.overhead_pct"}
        fast = summarize(untraced, "throughput_ops_s")
        slow = summarize(traced, "throughput_ops_s")
        metrics["trace.overhead_pct"] = (fast / slow - 1.0) * 100.0
    else:
        units = END_TO_END
        metrics = {n: summarize(untraced, n) for n in END_TO_END}
    shown = dict(metrics)
    shown.update({n: summarize(untraced, n) for n in INFORMATIONAL})
    shown_units = dict(units, **INFORMATIONAL)

    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    for name in result["metrics"]:
        if not NAME_RE.match(name):
            raise ValueError("bad metric name %r" % name)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "scale": args.scale, "host": host,
        "trials": len(trials), "result": result,
        "per_trial": [{"metrics": t["metrics"], "segments": t["segments"]}
                      for t in trials],
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d-%d.json" % (
            args.workload, args.seed, args.trace, int(time.time()))), "w") as f:
        json.dump(record, f, indent=1)

    print("host: " + " ".join("%s=%s" % kv for kv in sorted(host.items())))
    print("workload=%s seed=%d trials=%d attempted=%d failed=%d correct=%s" % (
        args.workload, args.seed, len(trials), attempted, failed, correct))
    for name, unit in shown_units.items():
        print("  %-34s %14.4f %s" % (name, shown[name], unit))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
