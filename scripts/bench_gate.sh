#!/usr/bin/env bash
# Performance regression gate. Compares an end-to-end benchmark run
# (perfbench/run.py --trace 0) of broadcast, membership-churn and
# link-flap at seed 7919 with the committed BENCH_perf.json. A workload
# fails (exit 1) when its run is not correct, when any operation
# failed, or when an end-to-end metric is worse than the committed
# median by more than that metric's bound in BENCHMARK.json. When a
# committed BENCH_reliable.json baseline and the bench_reliable binary
# both exist, the reliable repair-path gate runs too: delivery must
# stay complete, repair rounds/bytes must not regress, and subcast
# repair must keep beating channel-wide repair.
#
# Usage (from anywhere; paths resolve against the repo root):
#   scripts/bench_gate.sh              run the three workloads, then gate
#   scripts/bench_gate.sh RESULT_DIR   gate saved runs: RESULT_DIR/<workload>.json
#                                      holds the stdout of the perfbench command
#   scripts/bench_gate.sh --selftest   show that doctored results are rejected
#   scripts/bench_gate.sh --record     re-measure and rewrite BENCH_perf.json
#
# The perfbench command per workload is
#   python3 perfbench/run.py --workload <w> --seed 7919 --seconds 35 --trace 0
# where 35 is BENCHMARK.json's run_seconds: enough repetitions that the
# medians, setup_s included, sit well inside the bounds on an idle host.
# The bench_reliable binary is expected at build/bench/bench_reliable
# (run cmake --build build first).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
benchmark="$repo_root/BENCHMARK.json"
baseline="$repo_root/BENCH_perf.json"
workloads=(broadcast membership-churn link-flap)
run_seconds="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$benchmark")"
perf_args=(--seed 7919 --seconds "$run_seconds" --trace 0)

cleanup_paths=()
cleanup() { rm -rf "${cleanup_paths[@]}"; }
trap cleanup EXIT

# run_perfbench DIR: one perfbench run per workload, stdout to DIR/<w>.json.
# A run that exits non-zero still leaves its result for the check.
run_perfbench() {
  for w in "${workloads[@]}"; do
    echo "bench_gate: python3 perfbench/run.py --workload $w ${perf_args[*]}"
    (cd "$repo_root" &&
      python3 perfbench/run.py --workload "$w" "${perf_args[@]}" ||
      true) | tee "$1/$w.json"
  done
}

# perf_check DIR: compare DIR/<w>.json with BENCH_perf.json; exit 1 on
# any regression or failed run.
perf_check() {
  python3 - "$benchmark" "$baseline" "$1" "${perf_args[1]}" <<'EOF'
import json
import os
import re
import sys

bench_path, base_path, result_dir, seed = sys.argv[1:5]
with open(bench_path) as f:
    declared = json.load(f)["end_to_end"]
with open(base_path) as f:
    base = json.load(f)["workloads"]

failures = []
print("bench_gate: comparing against committed BENCH_perf.json "
      "(bounds from BENCHMARK.json)")
for workload, committed in base.items():
    path = os.path.join(result_dir, f"{workload}.json")
    try:
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
    except OSError:
        lines = []
    header = re.compile(rf"^workload {re.escape(workload)}\s+seed {seed}\s")
    if not lines or not any(header.match(l) for l in lines):
        print(f"  {workload}: FAIL (no perfbench run at seed {seed} in {path})")
        failures.append(workload)
        continue
    cur = json.loads(lines[-1])
    if not cur.get("correct", False) or cur.get("failed", 1) > 0:
        print(f"  {workload}: FAIL (correct={cur.get('correct')} "
              f"failed={cur.get('failed')})")
        failures.append(f"{workload}.correct")
    for m in declared:
        name, bound = m["name"], m["bound"]
        b = committed["metrics"][name]["value"]
        c = cur["metrics"][name]["value"]
        if m["better"] == "lower":
            limit = b * (1.0 + bound)
            ok = c <= limit
        else:
            limit = b * (1.0 - bound)
            ok = c >= limit
        print(f"  {workload + '.' + name:34s} baseline={b:>12.4g} "
              f"current={c:>12.4g} limit={limit:>12.4g} "
              f"({'+' if m['better'] == 'lower' else '-'}{bound:.0%}) "
              f"{'ok' if ok else 'FAIL'}")
        if not ok:
            failures.append(f"{workload}.{name}")

if failures:
    print(f"bench_gate: FAIL ({', '.join(failures)})")
    sys.exit(1)
print("bench_gate: PASS")
EOF
}

if [[ ! -f "$baseline" && "${1:-}" != "--record" ]]; then
  echo "bench_gate: missing committed baseline $baseline" >&2
  exit 2
fi

case "${1:-}" in
--record)
  dir="$(mktemp -d /tmp/bench_perf.XXXXXX)"
  cleanup_paths+=("$dir")
  run_perfbench "$dir"
  python3 - "$dir" "$baseline" "${perf_args[*]}" "${perf_args[1]}" \
    "${workloads[@]}" <<'EOF'
import json
import os
import sys

result_dir, out, args, seed = sys.argv[1:5]
with open("/proc/cpuinfo") as f:
    model = next((l.split(":", 1)[1].strip() for l in f
                  if l.startswith("model name")), "unknown")
header = {
    "command": f"python3 perfbench/run.py --workload <workload> {args}",
    "seed": int(seed),
    "recorded_by": "scripts/bench_gate.sh --record",
    "host": f"{os.cpu_count()} vCPU, {model}",
}
# Each workload's entry is the last stdout line of its run, verbatim.
entries = []
for name in sys.argv[5:]:
    with open(os.path.join(result_dir, f"{name}.json")) as f:
        line = f.read().strip().splitlines()[-1]
    result = json.loads(line)
    if not result["correct"] or result["failed"] > 0:
        sys.exit(f"bench_gate: {name} run is not correct; nothing recorded")
    entries.append(f'    "{name}": {line}')
with open(out, "w") as f:
    f.write("{\n")
    for key, value in header.items():
        f.write(f'  "{key}": {json.dumps(value)},\n')
    f.write('  "workloads": {\n' + ",\n".join(entries) + "\n  }\n}\n")
print(f"bench_gate: wrote {out}")
EOF
  exit 0
  ;;
--selftest)
  # Each case is a copy of the committed results with at most one
  # change; the gate must pass the copy as is and reject every doctored
  # one, including a metric pushed just past its bound.
  dir="$(mktemp -d /tmp/bench_gate_selftest.XXXXXX)"
  cleanup_paths+=("$dir")
  python3 - "$benchmark" "$baseline" "$dir" "${perf_args[1]}" <<'EOF'
import copy
import json
import os
import sys

bench_path, base_path, out, seed = sys.argv[1:5]
with open(bench_path) as f:
    declared = json.load(f)["end_to_end"]
with open(base_path) as f:
    base = json.load(f)["workloads"]


def write_case(name, expect, results):
    case = os.path.join(out, name)
    os.makedirs(case)
    for workload, result in results.items():
        with open(os.path.join(case, f"{workload}.json"), "w") as f:
            f.write(f"workload {workload}  seed {seed}  (self-test copy)\n")
            f.write(json.dumps(result) + "\n")
    with open(os.path.join(out, "cases"), "a") as f:
        f.write(f"{name} {expect}\n")


def doctored(workload, change):
    results = copy.deepcopy(base)
    change(results[workload])
    return results


def push(metric, factor):
    """Move `metric` `factor` times its bound in its worse direction."""
    sign = 1 if metric["better"] == "lower" else -1

    def change(result):
        m = result["metrics"][metric["name"]]
        m["value"] *= 1 + sign * factor * metric["bound"]
    return change


write_case("unmodified", "pass", base)
first = next(iter(base))
for metric in declared:
    write_case(f"{first}.{metric['name']}-inside-bound", "pass",
               doctored(first, push(metric, 0.9)))
for workload in base:
    for metric in declared:
        write_case(f"{workload}.{metric['name']}-past-bound", "reject",
                   doctored(workload, push(metric, 1.1)))
write_case(f"{first}.failed-1", "reject",
           doctored(first, lambda r: r.update(failed=1)))
write_case(f"{first}.not-correct", "reject",
           doctored(first, lambda r: r.update(correct=False)))
missing = copy.deepcopy(base)
del missing[first]
write_case(f"{first}.missing", "reject", missing)
EOF
  bad=0
  while read -r name expect; do
    if perf_check "$dir/$name" > "$dir/$name.log"; then got=pass; else got=reject; fi
    if [[ "$got" == "$expect" ]]; then
      echo "  $name: $got (expected) ok"
    else
      echo "  $name: $got, expected $expect FAIL"
      cat "$dir/$name.log"
      bad=1
    fi
  done < "$dir/cases"
  if [[ "$bad" != 0 ]]; then
    echo "bench_gate: self-test FAIL"
    exit 1
  fi
  echo "bench_gate: self-test PASS"
  exit 0
  ;;
-*)
  echo "usage: $0 [RESULT_DIR | --selftest | --record]" >&2
  exit 2
  ;;
esac

result_dir="${1:-}"
if [[ -z "$result_dir" ]]; then
  result_dir="$(mktemp -d /tmp/bench_perf.XXXXXX)"
  cleanup_paths+=("$result_dir")
  run_perfbench "$result_dir"
fi
perf_check "$result_dir"

# ----------------------------------------------------------------------
# Reliable repair-path gate (auto-detected: needs the committed baseline
# and the bench_reliable binary in build/bench).
# ----------------------------------------------------------------------
reliable_baseline="$repo_root/BENCH_reliable.json"
reliable_bin="$repo_root/build/bench/bench_reliable"

if [[ -f "$reliable_baseline" && -x "$reliable_bin" ]]; then
  reliable_result="$(mktemp /tmp/bench_reliable.XXXXXX.json)"
  cleanup_paths+=("$reliable_result")
  echo "bench_gate: running $reliable_bin ..."
  (cd "$repo_root" && "$reliable_bin" --out "$reliable_result")

  python3 - "$reliable_baseline" "$reliable_result" <<'EOF'
import json
import sys

TOLERANCE = 0.10  # 10%

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    cur = json.load(f)

failures = []


def check_ceiling(name, baseline, current):
    """Metric where lower is better: fail if it rises >10%."""
    ceiling = baseline * (1.0 + TOLERANCE)
    verdict = "ok" if current <= ceiling else "FAIL"
    print(f"  {name:36s} baseline={baseline:>12.0f} "
          f"current={current:>12.0f} ceiling={ceiling:>12.1f} {verdict}")
    if current > ceiling:
        failures.append(name)


print("bench_gate: comparing against committed BENCH_reliable.json")
# Guard every key: the gate must keep running against baselines from
# before (or after) a schema change instead of KeyError-ing.
for mode in ("subcast", "channel_wide"):
    if mode not in base or mode not in cur:
        continue
    if "delivered_all" in cur[mode] and not cur[mode]["delivered_all"]:
        print(f"  {mode}.delivered_all: FAIL (blocks lost for good)")
        failures.append(f"{mode}.delivered_all")
    for key in ("repair_rounds", "repair_bytes"):
        if key in base[mode] and key in cur[mode]:
            check_ceiling(f"{mode}.{key}", base[mode][key], cur[mode][key])
# The paper's point (§2.1): repairing through the covering subtree must
# cost strictly less than flooding the channel.
if "subcast" in cur and "channel_wide" in cur and \
        "repair_bytes" in cur.get("subcast", {}) and \
        "repair_bytes" in cur.get("channel_wide", {}):
    sub_b = cur["subcast"]["repair_bytes"]
    chan_b = cur["channel_wide"]["repair_bytes"]
    verdict = "ok" if sub_b < chan_b else "FAIL"
    print(f"  subcast < channel_wide repair bytes   "
          f"{sub_b} vs {chan_b} {verdict}")
    if sub_b >= chan_b:
        failures.append("subcast_vs_channel_repair_bytes")

if failures:
    print(f"bench_gate: FAIL ({', '.join(failures)})")
    sys.exit(1)
print("bench_gate: PASS (reliable)")
EOF
else
  echo "bench_gate: skipping reliable gate (baseline or binary missing)"
fi
