#!/usr/bin/env bash
# Golden determinism gate for the observability plane (DESIGN.md §11).
#
# For each obs_capture scenario (seeded churn, then the chaos fault
# campaign) it captures the run twice with the same seed and asserts
# both artifacts are byte-identical:
#   - the event trace JSONL, compared with scripts/tracediff.py
#   - the metrics registry snapshot, compared with cmp
# then captures a different seed and asserts tracediff reports the
# first divergent record (non-zero exit). obs_capture itself exits
# non-zero if its trace ring wrapped, so every compared trace is
# complete. Run by ctest as `obs_golden` and by the CI `obs` step.
#
# Usage: scripts/obs_golden.sh [path/to/obs_capture]
set -uo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
capture="${1:-$repo_root/build/bench/obs_capture}"

if [[ ! -x "$capture" ]]; then
  echo "obs_golden: capture binary not found: $capture" >&2
  echo "  build it first: cmake --build build --target obs_capture" >&2
  exit 2
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
fail=0

run() {
  local tag="$1"; shift
  "$capture" "$@" \
    --trace-out "$workdir/$tag.jsonl" \
    --metrics-out "$workdir/$tag.json" >/dev/null || {
    echo "obs_golden: capture ($tag: $*) failed" >&2
    exit 1
  }
}

for scenario in churn chaos; do
  run "$scenario-a" --scenario "$scenario" --seed 7
  run "$scenario-b" --scenario "$scenario" --seed 7
  run "$scenario-c" --scenario "$scenario" --seed 8

  if python3 "$repo_root/scripts/tracediff.py" \
      "$workdir/$scenario-a.jsonl" "$workdir/$scenario-b.jsonl"; then
    echo "obs_golden: [$scenario] same-seed traces identical"
  else
    echo "obs_golden: FAIL — [$scenario] same-seed traces diverge (see above)" >&2
    fail=1
  fi

  if cmp -s "$workdir/$scenario-a.json" "$workdir/$scenario-b.json"; then
    echo "obs_golden: [$scenario] same-seed metrics snapshots identical"
  else
    echo "obs_golden: FAIL — [$scenario] same-seed metrics snapshots differ" >&2
    fail=1
  fi

  if python3 "$repo_root/scripts/tracediff.py" \
      "$workdir/$scenario-a.jsonl" "$workdir/$scenario-c.jsonl"; then
    echo "obs_golden: FAIL — [$scenario] different-seed traces compare identical" >&2
    fail=1
  else
    echo "obs_golden: [$scenario] different-seed divergence detected and located"
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo "obs_golden: FAILED" >&2
  exit 1
fi
echo "obs_golden: all green"
