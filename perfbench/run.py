#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds perfbench/main.exe from
source with dune (into .bench_build/), then runs the workload again and
again, one run per fresh process, for about S seconds, and prints a
report: one "name value unit" line per metric, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 runs untraced and reports every end-to-end metric named in
BENCHMARK.json: host time, set-up time and peak heap as medians over the
runs, and the virtual-time makespan and goodput, which are exact for a
seed and so must agree across the runs.

--trace 1 alternates untraced runs with traced ones (Obs.Trace and
Obs.Prof attached, every span written to .bench_out/) and
reports every per-layer metric.  The traced runs must reproduce every
virtual-time result and every count of the untraced ones exactly.

A run is correct when every operation succeeded, every output check of
every process passed, and the runs agreed.  An incorrect run still
prints its report and exits 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")

AT_LEAST = 2  # processes of each kind, so every host time is a median
LIMIT = 170.0  # seconds a whole invocation may take, build excluded
BUILD_TIMEOUT = 850.0

# Reported beside the metrics, under the names of the operation each
# workload performs: (sample key, operation name).
OPERATIONS = {
    "routed-swarm": [("dial", "dial"), ("op", "echo")],
    "close-burst": [("dial", "dial"), ("op", "echo")],
    "bootstorm": [("rpc", "rpc"), ("boot", "boot")],
    "file-churn": [("rpc", "rpc"), ("op", "file")],
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    for need in ("dune-project", "lib", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s is missing: run from the root of a whole checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD, "-j", "2",
           "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def one(workload, seed, traced, timeout):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans",
                os.path.join(OUT, "%s-%d.spans.tsv" % (workload, seed))]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s seed %d did not finish within %.0f s" % (workload, seed, timeout))
    if r.returncode != 0:
        die("%s seed %d exited %d: %s" % (workload, seed, r.returncode,
                                          r.stderr.strip()[-2000:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def runs(workload, seed, seconds, traced_too):
    """Untraced (and, with traced_too, traced) processes in turn, at
    least AT_LEAST of each kind, then more while the next one is
    expected to end within [seconds]."""
    kinds = [False, True] if traced_too else [False]
    start = time.monotonic()
    done = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(done) >= AT_LEAST * len(kinds) and elapsed + longest > seconds:
            break
        t0 = time.monotonic()
        traced = kinds[len(done) % len(kinds)]
        done.append(one(workload, seed, traced, max(1.0, LIMIT - elapsed)))
        longest = max(longest, time.monotonic() - t0)
    return [r for r in done if not r["traced"]], [r for r in done if r["traced"]]


def agree(results, part, problems, what):
    first = part(results[0])
    for r in results[1:]:
        if part(r) != first:
            diff = sorted(k for k in first if part(r).get(k) != first[k])
            problems.append("%s differ: %s" % (what, ", ".join(diff[:8])))
            return


def section(name):
    return lambda r: r[name]


def trace_counts(r):
    return {k: v for k, v in r["traced_only"].items() if not k.startswith("prof.")}


def judge(untraced, traced):
    problems = []
    for r in untraced + traced:
        for name, ok in r["checks"].items():
            if not ok:
                problems.append("check failed: " + name)
        for reason, n in r["fail_reasons"].items():
            problems.append("%d x %s" % (n, reason))
    agree(untraced, section("virtual"), problems,
          "virtual-time results of same-seed runs")
    agree(untraced, section("exact"), problems, "counts of same-seed runs")
    agree(untraced, section("host"), problems,
          "allocation of same-seed untraced runs")
    if traced:
        agree(traced, section("exact"), problems,
              "counts of same-seed traced runs")
        agree(traced, trace_counts, problems,
              "trace counts of same-seed traced runs")
        agree([untraced[0], traced[0]], section("virtual"), problems,
              "virtual-time results of traced and untraced runs")
        agree([untraced[0], traced[0]], section("exact"), problems,
              "counts of traced and untraced runs")
    return sorted(set(problems))


def median(xs):
    return statistics.median(xs)


def end_to_end(untraced):
    v = untraced[0]["virtual"]
    return {
        "wall_s": median([r["wall_s"] for r in untraced]),
        "setup_s": median([s for r in untraced for s in r["setup_s"]]),
        "peak_heap_mb": median([r["peak_heap_mb"] for r in untraced]),
        "makespan_s": v["makespan_s"],
        "goodput_mbs": v["goodput_mbs"],
    }


def per_layer(untraced, traced):
    m = dict(traced[0]["exact"])
    for k in traced[0]["traced_only"]:
        m[k] = median([r["traced_only"][k] for r in traced])
    wall = median([r["wall_s"] for r in untraced])
    host = untraced[0]["host"]
    events = host["sim.events"]
    m["sim.events_per_s"] = events / wall
    m["sim.minor_words"] = host["sim.minor_words"]
    m["sim.minor_words_per_event"] = host["sim.minor_words"] / events
    m["sim.major_collections"] = host["sim.major_collections"]
    m["obs.trace_overhead"] = median([r["wall_s"] for r in traced]) / wall
    m["obs.traced_peak_heap_mb"] = median([r["peak_heap_mb"] for r in traced])
    return m


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    a = ap.parse_args()
    if a.seconds < 1:
        die("--seconds must be at least 1")
    build()
    untraced, traced = runs(a.workload, a.seed, a.seconds, a.trace == 1)
    problems = judge(untraced, traced)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    values = per_layer(untraced, traced) if a.trace else end_to_end(untraced)
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        die("no value for: " + ", ".join(missing))
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
               for w in wanted}
    everything = untraced + traced
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)

    first = untraced[0]
    print("workload %s  seed %d  runs: %d untraced, %d traced"
          % (a.workload, a.seed, len(untraced), len(traced)))
    for name, m in metrics.items():
        print("  %-34s %18.6f %s" % (name, m["value"], m["unit"]))
    for kind, rs in (("untraced", untraced), ("traced", traced)):
        if rs:
            print("  %s wall_s per process: %s"
                  % (kind, " ".join("%.4f" % r["wall_s"] for r in rs)))
    print("  %-34s %18.6f ratio  (%d of %d operations)"
          % ("fail_ratio", failed / max(1, attempted), failed, attempted))
    for key, op in OPERATIONS[a.workload]:
        unit = "s" if key == "boot" else "ms"
        for pct in ("p50", "p90" if key == "boot" else "p99"):
            print("  %-34s %18.6f %s  (%d samples, virtual)"
                  % ("%s_%s_%s" % (op, pct, unit),
                     first["virtual"]["%s_%s_%s" % (key, pct, unit)], unit,
                     first["samples"][key]))
    for p in problems:
        print("  FAIL " + p)
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
