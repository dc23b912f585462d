#!/usr/bin/env python3
"""End-to-end benchmark of the GB-MQO Server.

Run from the repository root:

  python3 perfbench/run.py --workload cold_mqo --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload ingest_stream --seed 1 --seconds 20 --trace 1
  python3 perfbench/run.py --steady 10 --workload cold_mqo --seconds 20

The first call builds the engine and the benchmark program
(perfbench/e2e_bench.cc) from source into .bench_build/, or into
$CARGO_TARGET_DIR when set. A run prints human-readable notes on stderr and,
as the last line of stdout, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same sequence twice in separate processes, untraced and traced, checks
that both return the same answers, and reports the per-layer metrics.
--steady N runs the workload N times with consecutive seeds and prints each
metric's median and quartiles, with a fixed-work host-drift probe read
before and after every run.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_mqo", "ingest_stream")
RUN_TIMEOUT_S = 170  # for all e2e_bench processes of one run, build excluded
BUILD_TIMEOUT_S = 850

# Metric names and units, and the default run length, come from
# BENCHMARK.json at the repository root. Per-layer metrics are read from
# the traced run, except `api.queue_ms_p50`, which only the real Server (the
# untraced run) can report.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
RUN_SECONDS = int(_SPEC["run_seconds"])


def note(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR names the build directory when set (relative to the
    # checkout); .bench_build otherwise.
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures and builds e2e_bench; returns its path or exits 1."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    binary = os.path.join(out, "e2e_bench")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "-j", jobs,
                      "--target", "e2e_bench"])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                note("build failed: %s" % e)
                sys.exit(1)
            if r.returncode != 0:
                note(r.stdout[-4000:])
                note("build failed: %s" % " ".join(cmd))
                sys.exit(1)
    if not os.path.exists(binary):
        note("build produced no e2e_bench at %s" % binary)
        sys.exit(1)
    return binary


def drive(binary, args, run_dir, deadline):
    """Runs e2e_bench once and returns its JSON result (exits 1 on error)."""
    cmd = [binary] + args + ["--dir", run_dir]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        note("e2e_bench timed out: %s" % " ".join(cmd))
        sys.exit(1)
    if r.stderr:
        note(r.stderr.rstrip())
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        note("e2e_bench failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
        sys.exit(1)
    return json.loads(lines[-1])


def run_once(binary, workload, seed, seconds, trace):
    """One benchmark run; returns the contract result object."""
    base = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    run_root = os.path.join(ROOT, ".bench_run")
    run_dir = os.path.join(run_root, "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        plain = drive(binary, base + ["--mode", "plain"], run_dir, deadline)
        runs = [plain]
        if trace:
            traced = drive(binary, base + ["--mode", "traced"], run_dir,
                           deadline)
            runs.append(traced)
            spans = os.path.join(run_root, "spans-%s-%d.jsonl" % (workload, seed))
            shutil.copyfile(os.path.join(run_dir, "spans.jsonl"), spans)
            note("spans and per-layer self times: %s" % os.path.relpath(spans, ROOT))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = all(r["correct"] for r in runs)
    for r in runs:
        if r["problem"]:
            note("%s run: %s" % (r["mode"], r["problem"]))
    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    info = plain["info"]
    note("%s seed %d: %d timed requests, %d ingests, failed_ops_frac %.6g"
         % (workload, seed, info["req_samples"], info["ingest_samples"],
            info["failed_ops_frac"]))
    if "ingest_p90_ms" in info:
        note("ingest_p90_ms %.6g over %d batches"
             % (info["ingest_p90_ms"], info["ingest_samples"]))

    if not trace:
        metrics = {k: {"value": plain["metrics"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    else:
        if plain["digest"] != traced["digest"]:
            note("traced answers differ from untraced answers (%s vs %s)"
                 % (traced["digest"], plain["digest"]))
            correct = False
        note("tracing overhead (untraced -> traced, rebuilt call path):")
        for k in ("req_p50_ms", "req_p90_ms", "req_per_s", "ingest_p50_ms",
                  "recovery_s"):
            a, b = plain["metrics"][k], traced["info"][k]
            note("  %-14s %12.6g -> %12.6g" % (k, a, b))
        layer = dict(traced["metrics"])
        layer["api.queue_ms_p50"] = info["api.queue_ms_p50"]
        metrics = {k: {"value": layer[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def probe(binary):
    r = subprocess.run([binary, "--mode", "probe"], stdout=subprocess.PIPE,
                       text=True, timeout=RUN_TIMEOUT_S, check=True)
    return json.loads(r.stdout.strip().splitlines()[-1])["probe_ms"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(binary, workload, runs, first_seed, seconds, trace):
    """Repeats a workload with consecutive seeds; prints spread per metric."""
    values = {}
    drift = []
    for i in range(runs):
        seed = first_seed + i
        before = probe(binary)
        result = run_once(binary, workload, seed, seconds, trace)
        after = probe(binary)
        drift.append((before, after))
        if not result["correct"] or result["failed"]:
            note("run with seed %d was not clean" % seed)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        note("seed %d: probe %.1f -> %.1f ms; %s" % (
            seed, before, after,
            ", ".join("%s %.4g" % (k, m["value"])
                      for k, m in result["metrics"].items()
                      if k in END_TO_END)))
    probes = [p for pair in drift for p in pair]
    pq1, pmed, pq3 = quartiles(probes)
    print("%s: %d runs of %d s, seeds %d..%d" % (
        workload, runs, seconds, first_seed, first_seed + runs - 1))
    print("host-drift probe: median %.2f ms, quartile spread %.4f, "
          "largest before/after change %.4f" % (
              pmed, (pq3 - pq1) / pmed,
              max(abs(a - b) / b for b, a in drift)))
    print("%-32s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3",
                                        "spread"))
    summary = {}
    for k, v in values.items():
        q1, med, q3 = quartiles(v)
        spread = (q3 - q1) / med if med else float("nan")
        summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print("%-32s %14.6g %14.6g %14.6g %8.4f" % (k, q1, med, q3, spread))
    print(json.dumps({"workload": workload, "runs": runs,
                      "probe_spread": (pq3 - pq1) / pmed, "metrics": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="run N times with seeds seed..seed+N-1 and "
                         "print each metric's median and quartiles")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    binary = build()
    if args.steady:
        steady(binary, args.workload, args.steady, args.seed, args.seconds,
               args.trace)
        return
    result = run_once(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
