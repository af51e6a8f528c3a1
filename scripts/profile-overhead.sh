#!/usr/bin/env bash
# profile-overhead.sh — assert the profiler's disabled cost is nil.
#
# The execution profiler attaches through the interpreter's one observer
# seam (interp.Options.Observer), tested once per instruction behind a
# single nil check, so with Config.Profile unset a study must run
# exactly as fast as before the profiler existed. This script
# re-measures BenchmarkStudyThroughput (profiling disabled — the
# benchmark never sets Profile) and fails if the best ns/study over the
# repetitions regresses more than TOLERANCE_PCT against the committed
# baseline median. The minimum is the noise-robust estimator: load
# spikes only ever slow a repetition down, while a real hot-path
# regression shifts the whole distribution, minimum included.
#
# The trace ring shares that Observer seam, and the campaign heartbeat
# rides interp.Options.Pulse on the budget-check schedule; the benchmark
# sets neither Config.Trace, Config.Profile, Config.Timeline nor
# Config.Heartbeat — so this gate doubles as the observability-disabled
# cost gate: the overhead-gate CI job runs it at TOLERANCE_PCT=1.
#
#   scripts/profile-overhead.sh [outdir]
#
# Environment:
#   BASELINE_FILE  committed baseline JSON            (default BENCH_6.json)
#   COUNT          benchmark repetitions              (default 9)
#   BENCHTIME      -benchtime per repetition          (default 1s)
#   TOLERANCE_PCT  max allowed regression in percent  (default 2)
#
# The committed baseline was recorded on one machine; on different
# hardware, raise TOLERANCE_PCT or re-record the baseline with
# scripts/bench-cache.sh rather than chasing cross-machine noise.
set -euo pipefail

cd "$(dirname "$0")/.."
outdir=${1:-bench-out}
BASELINE_FILE=${BASELINE_FILE:-BENCH_6.json}
COUNT=${COUNT:-9}
BENCHTIME=${BENCHTIME:-1s}
TOLERANCE_PCT=${TOLERANCE_PCT:-2}
mkdir -p "$outdir"

[ -f "$BASELINE_FILE" ] || { echo "baseline $BASELINE_FILE not found" >&2; exit 2; }

# best (minimum) ns/op over the repetitions of one run.
min_ns() {
  awk '/^BenchmarkStudyThroughput/ {print $3}' "$1" | sort -n | head -1
}

baseline=$(awk -F'[:,]' '/"uncached_ns_per_study"/ {gsub(/ /,"",$2); print $2}' "$BASELINE_FILE")
[ -n "$baseline" ] || { echo "no uncached_ns_per_study in $BASELINE_FILE" >&2; exit 2; }

echo "== profiling-disabled study throughput (inputs=0) =="
VULFI_BENCH_INPUTS=0 go test -run '^$' -bench StudyThroughput \
  -count "$COUNT" -benchtime "$BENCHTIME" ./internal/campaign/ |
  tee "$outdir/profile-off.txt"

now=$(min_ns "$outdir/profile-off.txt")
delta=$(awk -v b="$baseline" -v n="$now" 'BEGIN {printf "%.2f", 100*(n-b)/b}')
echo "ns/study: baseline(median)=$baseline now(min)=$now  delta=${delta}%  (tolerance ${TOLERANCE_PCT}%)"

if awk -v d="$delta" -v t="$TOLERANCE_PCT" 'BEGIN {exit !(d > t)}'; then
  echo "FAIL: profiling-disabled throughput regressed ${delta}% > ${TOLERANCE_PCT}% vs $BASELINE_FILE" >&2
  exit 1
fi
echo "OK: disabled-profiler cost within tolerance"
