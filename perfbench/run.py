#!/usr/bin/env python3
"""End-to-end benchmark of the EXPRESS simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the harness and
the simulator from source (Release) into .bench_build/perfbench. Each
repetition of the workload is a fresh process, so its setup time and
peak RSS are its own; repetitions continue until --seconds is used up
(at least three). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json (medians over repetitions) for --trace 0, and
its per-layer metrics (medians over traced repetitions) for --trace 1.

A run is correct when no operation failed in any repetition and every
wire counter repeated exactly across repetitions (traced ones too).
Exit status is 0 only for a correct run.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
MIN_REPS = 3
REP_TIMEOUT_S = 150
MIN_COVERAGE = 0.95


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build the harness; a no-op when it is up to date."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as out:
            for step in steps:
                if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    sys.stderr.write(log.read_text()[-4000:])
                    fail("build failed")


def run_rep(workload, seed, trace_out):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(reps):
    setup = [r["setup_s"] for r in reps]
    run = [r["run_s"] for r in reps]
    return {
        "setup_s": median(setup),
        "run_s": median(run),
        "total_s": median([s + r for s, r in zip(setup, run)]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "deliveries_per_s": median([r["deliveries"] / r["run_s"] for r in reps]),
    }


def per_layer(traced, untraced):
    values = {}
    for name in traced[0]["layers"]:
        values[name] = median([r["layers"][name] for r in traced])
    base = median([r["run_s"] for r in untraced])
    values["bench.trace_overhead_ratio"] = (
        median([r["run_s"] for r in traced]) - base) / base
    return values


def self_test():
    build()
    proc = subprocess.run([str(BINARY), "--selftest"], cwd=ROOT,
                          timeout=REP_TIMEOUT_S)
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        sys.exit(self_test())

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    build()

    traced_mode = args.trace == 1
    trace_dir = BUILD / "traces"
    trace_dir.mkdir(exist_ok=True)
    reps = []
    start = time.monotonic()
    while True:
        # A traced run alternates traced and untraced repetitions so the
        # tracing overhead is measured under the same conditions.
        arm = traced_mode and len(reps) % 2 == 0
        # Spans of the latest traced repetition; a churn trace is ~50 MB.
        trace_out = trace_dir / f"{args.workload}.jsonl" if arm else None
        reps.append(run_rep(args.workload, args.seed, trace_out))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
            break

    problems = [p for r in reps for p in r["problems"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    wire = reps[0]["wire"]
    for i, r in enumerate(reps[1:], start=1):
        if r["wire"] != wire:
            problems.append(f"wire counters of repetition {i} differ: "
                            f"{r['wire']} vs {wire}")
    if traced_mode:
        traced = [r for r in reps if r["traced"]]
        untraced = [r for r in reps if not r["traced"]]
        values = per_layer(traced, untraced)
        declared = spec["per_layer"]
        # The layers' self times must account for the phases they sit in,
        # or the attribution is not worth reading.
        for phase in ("setup", "run"):
            coverage = values[f"bench.{phase}_coverage"]
            if coverage < MIN_COVERAGE:
                problems.append(f"layer spans cover {coverage:.3f} of {phase}")
    else:
        values = end_to_end(reps)
        declared = spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    correct = failed == 0 and len(problems) == 0

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}"
          f"  wire {json.dumps(wire)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"  operations attempted {attempted}  failed {failed}")
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
