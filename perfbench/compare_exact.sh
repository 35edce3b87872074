#!/usr/bin/env bash
# Flag any difference between two runs in the output digests and the
# machine-independent counts (the "digest" and "exact" lines).
#   bash perfbench/compare_exact.sh WORKLOAD SEED [SECONDS]
#       runs the traced benchmark twice and compares the two runs
#   bash perfbench/compare_exact.sh OUTPUT_A OUTPUT_B
#       compares two saved benchmark outputs, e.g. of two commits
set -euo pipefail
cd "$(dirname "$0")/.."
pick() { grep -E '^(digest|exact) ' || true; }
if [ -f "${1:-}" ] && [ -f "${2:-}" ]; then
  a=$(pick < "$1"); b=$(pick < "$2")
else
  run() {
    bash perfbench/run.sh --workload "$1" --seed "$2" --seconds "${3:-4}" \
      --trace 1 | pick
  }
  a=$(run "$@"); b=$(run "$@")
fi
if [ -z "$a" ]; then echo "no digest or exact lines found" >&2; exit 2; fi
if [ "$a" = "$b" ]; then
  echo "identical digests and exact counts"
else
  echo "DIFFERENT digests or exact counts:"
  diff <(echo "$a") <(echo "$b") || true
  exit 1
fi
