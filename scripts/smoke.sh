#!/usr/bin/env bash
# smoke.sh — end-to-end smoke scenarios for the VULFI CLIs and daemon.
#
#   scripts/smoke.sh SCENARIO [outdir]     (default outdir: SCENARIO-out)
#
# Scenarios:
#   vulfid    start the daemon, submit a traced study, SIGTERM it mid-run,
#             restart over the same journal, and assert the job resumes
#             from its checkpoints and matches an uninterrupted run field
#             for field, propagation profile included (DESIGN.md §9);
#             `vulfi -remote` with -events or -http exits 2 naming
#             -timeline and the daemon's /metrics.
#   trace     one deterministic `-explain` per ISA; the JSON explanations
#             must parse (DESIGN.md §10).
#   profile   one small profiled study via `vulfi -profile`: the text
#             report names hot opcodes and at least one hot site, the
#             folded stacks are well-formed (4 frames per line, phase
#             root, numeric values), and the flame-graph HTML is
#             self-contained (DESIGN.md §13).
#   timeline  one small traced study via `vulfi -timeline -events`; python3
#             validates the Perfetto trace span by span against the study
#             wall and the JSONL sidecar line by line (DESIGN.md §15), and
#             the -events file is byte-identical to the sidecar.
#             Env: EXPERIMENTS (default 10), CAMPAIGNS (2), WORKERS (2).
#   shard     a coordinator and two worker vulfids run a traced sharded
#             study through `vulfi -remote -shards -trace`; one worker is
#             SIGKILLed mid-study and the merged result, propagation
#             profile included, must equal the single-node run
#             (DESIGN.md §16).
#   fleet     the same fleet runs a sharded study with -timeline and
#             -profile: the merged trace has a coordinator lane plus one
#             lane group per worker and joins by span ID, the merged
#             profile counts equal single-node, /v1/fleet credits both
#             workers, and the statistics match single-node (DESIGN.md §17).
#   atlas     one tiny study run twice with -atlas/-history: the heatmap is
#             self-contained, the history lists both runs, `vulfi diff`
#             passes identical runs and fails a detector-disabled
#             candidate naming `detected` (DESIGN.md §12).
#   paper     regenerate every table and figure with `experiments -all
#             -backend vm` and diff the report against the committed
#             experiments_output.txt with the wall-clock fields masked
#             (see mask_wall): no outcome rate, count or site tally may
#             move (EXPERIMENTS.md).
#
# Artifacts and daemon logs land in outdir and are kept when a check
# fails. Daemons listen on 127.0.0.1 from VULFID_PORT (default 8666)
# upward. The daemon scenarios need curl and jq; trace and timeline need
# python3; paper needs awk.
set -euo pipefail
cd "$(dirname "$0")/.."

SCENARIO=${1:?usage: scripts/smoke.sh SCENARIO [outdir]}
OUT=${2:-$SCENARIO-out}
PORT=${VULFID_PORT:-8666}
CBASE=http://127.0.0.1:$PORT
WORK=$(mktemp -d)
PIDS=()
# Wall-clock fields and the build stamp are the only legitimate
# differences between two runs of the same study.
STRIP='del(.wall_total_ns, .wall_min_ns, .wall_mean_ns, .wall_max_ns, .build)'

cleanup() {
  for pid in ${PIDS[@]+"${PIDS[@]}"}; do
    kill "$pid" 2>/dev/null || true
  done
  cp "$WORK"/*.log "$OUT/" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

die() { echo "FAIL: $*" >&2; exit 1; }

# start_daemon ADDR JOURNAL [ARGS...] starts a vulfid in the background,
# waits for /healthz, and leaves its pid in DAEMON.
start_daemon() {
  local addr=$1 journal=$2
  shift 2
  "$WORK/vulfid" -addr "$addr" -journal "$journal" "$@" \
    >>"$WORK/$(basename "$journal").log" 2>&1 &
  DAEMON=$!
  PIDS+=("$DAEMON")
  for _ in $(seq 100); do
    curl -sf "http://$addr/healthz" >/dev/null 2>&1 && return
    sleep 0.1
  done
  die "daemon did not come up on $addr"
}

# start_fleet starts a coordinator on PORT and workers w1 and w2 on the
# next two ports, waits until the coordinator sees both, and leaves
# w2's pid in W2PID.
start_fleet() {
  start_daemon "127.0.0.1:$PORT" "$WORK/coord" -coordinator
  start_daemon "127.0.0.1:$((PORT + 1))" "$WORK/w1" -join "127.0.0.1:$PORT" -name w1
  start_daemon "127.0.0.1:$((PORT + 2))" "$WORK/w2" -join "127.0.0.1:$PORT" -name w2
  W2PID=$DAEMON
  # The -join heartbeat registers each worker; wait until the
  # coordinator sees both.
  local fleet
  for _ in $(seq 100); do
    fleet=$(curl -sf "$CBASE/v1/workers" | jq '.workers | length')
    [ "$fleet" = 2 ] && break
    sleep 0.1
  done
  [ "$fleet" = 2 ] || die "fleet has $fleet workers, want 2"
  echo "coordinator sees $fleet workers"
}

scenario_vulfid() {
  local addr=127.0.0.1:$PORT jdir=$WORK/journal pid rc msg flag
  mkdir -p "$jdir"

  # The local telemetry sinks cannot follow a study onto the daemon:
  # combined with -remote they fail fast instead of being dropped.
  for flag in -events -http; do
    rc=0
    msg=$("$WORK/vulfi" -remote "$addr" "$flag" "$OUT/unused" 2>&1 >/dev/null) || rc=$?
    [ "$rc" = 2 ] || die "vulfi -remote $flag exited $rc, want 2"
    grep -q -- '-events/-http cannot be combined with -remote' <<<"$msg" &&
      grep -q -- '-timeline FILE' <<<"$msg" && grep -q '/metrics' <<<"$msg" ||
      die "vulfi -remote $flag: unexpected message: $msg"
  done
  echo "vulfi -remote rejects -events and -http"

  start_daemon "$addr" "$jdir"
  pid=$DAEMON

  # 1000 traced experiments on one worker: slow enough to interrupt
  # mid-run, and the propagation profile must survive the restart too.
  ID=$(curl -sf -XPOST "$CBASE/v1/jobs" -d '{
    "benchmark":"Blackscholes","isa":"AVX","category":"control",
    "experiments":50,"campaigns":20,"seed":9,"workers":1,"trace":true}' | jq -r .id)
  [ -n "$ID" ] && [ "$ID" != null ] || die "submit returned no job id"
  echo "submitted job $ID"

  # Wait for the first checkpoints, then pull the plug.
  for _ in $(seq 200); do
    DONE=$(curl -sf "$CBASE/v1/jobs/$ID" | jq -r .done)
    [ "$DONE" -gt 0 ] && break
    sleep 0.05
  done
  [ "$DONE" -gt 0 ] || die "no experiments completed before timeout"
  STATE=$(curl -sf "$CBASE/v1/jobs/$ID" | jq -r .state)
  [ "$STATE" = running ] || die "job is $STATE at $DONE experiments, cannot interrupt"
  echo "SIGTERM at $DONE completed experiments"
  kill -TERM "$pid"
  wait "$pid" || die "daemon did not drain cleanly"

  LAST=$(jq -rs '[.[] | select(.t=="state")] | last.state' "$jdir/$ID.jsonl")
  [ "$LAST" = interrupted ] || die "journal ends in state $LAST, want interrupted"
  CKPTS=$(jq -rs '[.[] | select(.t=="exp")] | length' "$jdir/$ID.jsonl")
  echo "journal holds $CKPTS checkpointed experiments"
  [ "$CKPTS" -gt 0 ] || die "no experiment checkpoints journaled"

  # Restart over the same journal: the job must resume and complete.
  start_daemon "$addr" "$jdir"
  pid=$DAEMON
  for _ in $(seq 600); do
    STATE=$(curl -sf "$CBASE/v1/jobs/$ID" | jq -r .state || true)
    [ "$STATE" = done ] && break
    case "$STATE" in failed|cancelled) die "resumed job ended $STATE";; esac
    sleep 0.2
  done
  [ "$STATE" = done ] || die "resumed job never completed (state $STATE)"

  FINAL=$(curl -sf "$CBASE/v1/jobs/$ID")
  echo "$FINAL" >"$OUT/resumed-job.json"
  jq -e '.resumed == true' <<<"$FINAL" >/dev/null || die "job not marked resumed"
  jq -e '.done == .total' <<<"$FINAL" >/dev/null || die "resumed job incomplete"
  jq -e '.result.sdc + .result.benign + .result.crash == .total' <<<"$FINAL" \
    >/dev/null || die "study outcomes do not cover all experiments"
  jq -e '.result.propagation.traced > 0' <<<"$FINAL" >/dev/null ||
    die "resumed traced study has no propagation profile"
  echo "resumed job completed: $(jq -c \
    '{done, total, sdc: .result.sdc, benign: .result.benign, crash: .result.crash,
      moe: .result.margin_of_error_95, traced: .result.propagation.traced}' <<<"$FINAL")"

  # The acceptance bar: the interrupted-then-resumed study must be
  # identical to the same seed run uninterrupted, statistics and
  # propagation profile alike.
  REF=$("$WORK/vulfi" -json -trace -benchmark Blackscholes -category control \
    -isa AVX -experiments 50 -campaigns 20 -seed 9 | jq -S "$STRIP")
  GOT=$(jq -S ".result | $STRIP" <<<"$FINAL")
  [ "$REF" = "$GOT" ] || {
    diff <(echo "$REF") <(echo "$GOT") >&2 || true
    die "resumed study differs from uninterrupted run"
  }
  echo "resumed study matches the uninterrupted run field-for-field"

  kill -TERM "$pid"
  wait "$pid" || true
  echo "PASS: vulfid resumed $ID from $CKPTS checkpoints and completed"
}

scenario_trace() {
  for isa in SSE AVX; do
    "$WORK/vulfi" -benchmark VectorCopy -isa "$isa" \
      -category pure-data -experiments 10 -campaigns 1 -seed 1 \
      -explain 3 -json > "$OUT/explain-$isa.json"
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
      "$OUT/explain-$isa.json"
  done
  echo "PASS: trace smoke (artifacts in $OUT/)"
}

scenario_profile() {
  echo "== profiled study =="
  "$WORK/vulfi" -benchmark VectorCopy -isa AVX -category pure-data \
    -experiments 20 -campaigns 2 -seed 7 \
    -profile "$OUT/profile.folded" | tee "$OUT/study.txt"

  echo "== text report =="
  grep -q "execution profile:" "$OUT/study.txt" || die "study text has no profile section"
  grep -q "hot opcodes:" "$OUT/study.txt" || die "profile names no hot opcodes"
  grep -q "hot sites:" "$OUT/study.txt" || die "profile names zero hot sites"
  grep -Eq "^ +1\. @" <(sed -n '/hot sites:/,/^[^ ]/p' "$OUT/study.txt") \
    || die "hottest site does not use the @func/block site-key spelling"

  echo "== folded stacks =="
  [ -s "$OUT/profile.folded" ] || die "folded-stack file is empty"
  awk '
    { sp = match($0, / [0-9]+$/); if (!sp) { exit 1 } }
    { n = split(substr($0, 1, sp - 1), frames, ";"); if (n != 4) exit 1 }
  ' "$OUT/profile.folded" || die "folded lines are not 'phase;func;block;instr count'"
  grep -q "^golden;" "$OUT/profile.folded" || die "no golden-phase stacks"
  grep -q "^faulty;" "$OUT/profile.folded" || die "no faulty-phase stacks"

  echo "== flame graph =="
  local flame=$OUT/profile.folded.html
  [ -s "$flame" ] || die "flame-graph HTML missing"
  grep -q "<!DOCTYPE html>" "$flame" || die "flame graph is not an HTML page"
  grep -q '"stacks"' "$flame" || die "flame graph carries no stack data"
  if grep -Eq 'https?://|src="|<link' "$flame"; then
    die "flame graph references external assets"
  fi

  echo "PASS: profile smoke (artifacts in $OUT/)"
}

scenario_timeline() {
  local experiments=${EXPERIMENTS:-10} campaigns=${CAMPAIGNS:-2} workers=${WORKERS:-2}
  echo "== traced study (${campaigns}x${experiments} experiments, $workers workers) =="
  "$WORK/vulfi" -benchmark VectorCopy -isa AVX -category pure-data \
    -experiments "$experiments" -campaigns "$campaigns" -seed 1 \
    -workers "$workers" -timeline "$OUT/trace.json" \
    -events "$OUT/events.jsonl" -json > "$OUT/study.json"

  echo "== validating $OUT/trace.json =="
  python3 - "$OUT/trace.json" "$((experiments * campaigns))" "$workers" <<'EOF'
import json, sys

path, total, workers = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
trace = json.load(open(path))
spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
by = {}
for e in spans:
    by.setdefault(e["name"], []).append(e)

assert len(by.get("study", [])) == 1, f"want 1 study span, got {by.get('study', [])}"
assert len(by.get("compile", [])) == 1, "want 1 compile span"
exps = by.get("experiment", [])
assert len(exps) == total, f"want {total} experiment spans, got {len(exps)}"
# With no input pool every experiment runs its own golden; faulty and
# compare pair up (a pre-injection trap can skip both, never one).
assert len(by.get("golden", [])) == total, "want one golden span per experiment"
assert len(by.get("faulty", [])) == len(by.get("compare", [])), \
    "faulty/compare spans must pair up"

# The timeline is anchored at the prepare epoch: the compile span sits
# at offset 0 and must finish before the study span opens; every other
# span nests inside the study window.
root = by["study"][0]
lo, hi = root["ts"], root["ts"] + root["dur"]
slack = 1.0  # us; ns->us rounding
compile_span = by["compile"][0]
assert compile_span["ts"] + compile_span["dur"] <= lo + slack, \
    "compile span overlaps the study span"
for e in spans:
    if e["name"] == "compile":
        continue
    end = e["ts"] + e.get("dur", 0)
    assert e["ts"] >= lo - slack and end <= hi + slack, \
        f"{e['name']} span [{e['ts']:.1f},{end:.1f}]us outside study window [{lo:.1f},{hi:.1f}]us"

# Header reconciliation: the JSONL sidecar's wall covers the root span,
# its span count matches the trace export, and summed experiment time
# cannot exceed what the worker pool could have delivered.
with open(path + ".jsonl") as f:
    lines = f.read().splitlines()
header = json.loads(lines[0])
assert header["kind"] == "timeline", header
assert header["spans"] == len(lines) - 1 == len(spans), \
    f"header says {header['spans']} spans, jsonl has {len(lines)-1}, trace has {len(spans)}"
for line in lines[1:]:
    json.loads(line)  # every span line is complete JSON
wall_us = header["wall_ns"] / 1e3
assert root["dur"] <= wall_us + slack, \
    f"study span {root['dur']:.1f}us exceeds timeline wall {wall_us:.1f}us"
exp_sum = sum(e["dur"] for e in exps)
assert exp_sum <= workers * wall_us + slack, \
    f"sum(experiment)={exp_sum:.1f}us exceeds {workers} workers x wall {wall_us:.1f}us"

print(f"OK: {len(spans)} spans, {total} experiments, "
      f"study {root['dur']/1e3:.1f}ms within wall {wall_us/1e3:.1f}ms, "
      f"experiment occupancy {100*exp_sum/(workers*wall_us):.0f}% of {workers} lanes")
EOF

  # -events and -timeline export one span stream.
  cmp "$OUT/events.jsonl" "$OUT/trace.json.jsonl" ||
    die "-events file differs from the -timeline JSONL sidecar"

  echo "PASS: timeline smoke (artifacts in $OUT/)"
}

scenario_shard() {
  start_fleet

  # 1000 traced experiments on single-worker shards: slow enough that
  # killing a worker lands mid-study and forces a shard reassignment.
  SPEC=(-benchmark Blackscholes -category control -isa AVX
    -experiments 50 -campaigns 20 -seed 9 -workers 1 -trace)
  "$WORK/vulfi" -remote "127.0.0.1:$PORT" -shards 4 -json "${SPEC[@]}" \
    >"$OUT/sharded.json" 2>"$WORK/vulfi.log" &
  local vpid=$!
  PIDS+=("$vpid")

  # Wait for the sharded job to make progress, then pull the plug on w2.
  for _ in $(seq 200); do
    DONE=$(curl -sf "$CBASE/v1/jobs" | jq -r '.jobs[0].done // 0')
    [ "$DONE" -gt 0 ] && break
    sleep 0.1
  done
  [ "$DONE" -gt 0 ] || die "no sharded experiments completed before timeout"
  echo "SIGKILL worker w2 at $DONE harvested experiments"
  kill -KILL "$W2PID"

  wait "$vpid" || { cat "$WORK/vulfi.log" >&2; die "sharded study failed"; }

  STATE=$(curl -sf "$CBASE/v1/jobs" | jq -r '.jobs[0].state')
  [ "$STATE" = done ] || die "sharded job ended $STATE, want done"

  # The acceptance bar: the merged sharded study must match the same
  # seed run single-node field for field, propagation profile included.
  jq -e '.propagation.traced > 0' "$OUT/sharded.json" >/dev/null ||
    die "merged traced study has no propagation profile"
  REF=$("$WORK/vulfi" -json "${SPEC[@]}" | jq -S "$STRIP")
  GOT=$(jq -S "$STRIP" "$OUT/sharded.json")
  [ "$REF" = "$GOT" ] || {
    diff <(echo "$REF") <(echo "$GOT") >&2 || true
    die "sharded study differs from the single-node run"
  }
  echo "sharded study matches the single-node run field-for-field"

  # The dead worker must still be visible in the fleet view, not
  # silently dropped.
  curl -sf "$CBASE/v1/workers" >"$OUT/fleet.json"
  W2STATE=$(jq -r '.workers[] | select(.name == "w2") | .state' "$OUT/fleet.json")
  [ -n "$W2STATE" ] || die "killed worker vanished from the fleet view"
  echo "fleet view: w2 is $W2STATE after SIGKILL"

  echo "PASS: sharded study survived a killed worker and merged byte-identically"
}

scenario_fleet() {
  start_fleet

  # -inputs stays at its default (0): with a shared input pool each shard
  # would fill its own golden cache and the merged profile counts would
  # legitimately exceed single-node (DESIGN.md §17).
  SPEC=(-benchmark Blackscholes -category control -isa AVX
    -experiments 30 -campaigns 10 -seed 11 -workers 1)

  "$WORK/vulfi" -remote "127.0.0.1:$PORT" -shards 2 -json "${SPEC[@]}" \
    -timeline "$OUT/fleet-trace.json" -profile "$OUT/fleet-profile.folded" \
    >"$OUT/sharded.json" 2>"$WORK/vulfi.log" \
    || { cat "$WORK/vulfi.log" >&2; die "sharded observability study failed"; }

  for f in fleet-trace.json fleet-trace.json.jsonl fleet-profile.folded fleet-profile.folded.html; do
    [ -s "$OUT/$f" ] || die "client artifact $f missing or empty"
  done

  # --- 1. Fleet trace shape -----------------------------------------------
  # Thread-name metadata events carry the merged lane names: the client's
  # own lane (vulfi -remote merges via traceparent), "coordinator", and
  # one "<worker> <lane>" group per fleet worker.
  LANES=$(jq -r '[.traceEvents[] | select(.ph == "M" and .name == "thread_name")
    | .args.name] | join("\n")' "$OUT/fleet-trace.json")
  echo "$LANES" | grep -qx 'coordinator' || die "merged trace lacks the coordinator lane"
  for w in w1 w2; do
    echo "$LANES" | grep -q "^$w " || die "merged trace has no lane group for $w"
  done
  LANEGROUPS=$(echo "$LANES" | grep -v '^coordinator' | grep -vx 'client' \
    | awk '{print $1}' | sort -u | wc -l)
  [ "$LANEGROUPS" = 2 ] || die "merged trace has $LANEGROUPS worker lane groups, want 2"
  echo "fleet trace: coordinator lane + $LANEGROUPS worker lane groups"

  # Joinability: every shard study root's parent is a coordinator
  # shard[...) span present in the same trace.
  BADROOTS=$(jq '[.traceEvents[] | select(.ph == "X")] as $spans
    | [$spans[] | select(.name | startswith("shard[")) | .args.id] as $shards
    | [$spans[] | select(.name | startswith("study[")) | .args.parent]
    | map(select(. as $p | ($shards | index($p)) == null)) | length' \
    "$OUT/fleet-trace.json")
  [ "$BADROOTS" = 0 ] || die "$BADROOTS shard study roots not parented under a shard span"
  echo "fleet trace: all shard study roots join the coordinator's dispatch spans"

  # --- 2. Profile equality ------------------------------------------------
  "$WORK/vulfi" -json "${SPEC[@]}" -profile "$WORK/single-profile.folded" \
    >"$OUT/single.json" 2>/dev/null

  PROFCOUNTS='.hot_profile | {runs, experiments, total_dyn, total_vector,
    ops: [.ops[] | {op, count, vector}], sites: [.sites[] | {site, count}]}'
  REFPROF=$(jq -S "$PROFCOUNTS" "$OUT/single.json")
  GOTPROF=$(jq -S "$PROFCOUNTS" "$OUT/sharded.json")
  [ "$REFPROF" = "$GOTPROF" ] || {
    diff <(echo "$REFPROF") <(echo "$GOTPROF") >&2 || true
    die "merged fleet profile counts differ from the single-node run"
  }
  echo "fleet profile: per-opcode counts and totals equal single-node"

  # The folded-stacks artifact agrees with the profile total.
  FOLDSUM=$(awk '{s += $NF} END {print s}' "$OUT/fleet-profile.folded")
  TOTALDYN=$(jq -r '.hot_profile.total_dyn' "$OUT/sharded.json")
  [ "$FOLDSUM" = "$TOTALDYN" ] || die "folded stacks sum to $FOLDSUM, profile says $TOTALDYN"

  # --- 3. Fleet metrics ---------------------------------------------------
  curl -sf "$CBASE/v1/fleet" >"$OUT/fleet.json"
  for w in w1 w2; do
    HARVESTED=$(jq -r --arg w "$w" \
      '.workers[] | select(.worker == $w) | .harvested' "$OUT/fleet.json")
    [ -n "$HARVESTED" ] && [ "$HARVESTED" -gt 0 ] \
      || die "/v1/fleet credits $w with ${HARVESTED:-no} harvested experiments"
  done
  echo "fleet metrics: both workers credited with harvested experiments"

  # --- 4. Triple statistics -----------------------------------------------
  # Observability artifacts aside (their wall-clock content legitimately
  # differs), the merged study matches single-node field for field.
  OBSSTRIP="$STRIP | del(.timeline, .hot_profile)"
  REF=$(jq -S "$OBSSTRIP" "$OUT/single.json")
  GOT=$(jq -S "$OBSSTRIP" "$OUT/sharded.json")
  [ "$REF" = "$GOT" ] || {
    diff <(echo "$REF") <(echo "$GOT") >&2 || true
    die "sharded study statistics differ from the single-node run"
  }
  echo "triple statistics match the single-node run field-for-field"

  echo "PASS: fleet observatory merged timeline, profile, and metrics check out"
}

scenario_atlas() {
  local hist=$OUT/history.jsonl
  rm -f "$hist"

  run() { # run EXTRA_FLAGS... — one tiny control-category study
    "$WORK/vulfi" -benchmark VectorCopy -isa AVX -category control \
      -experiments 20 -campaigns 2 -seed 7 -history "$hist" "$@"
  }

  echo "== two identical runs with atlas + history =="
  run -atlas "$OUT/heatmap.html" >"$OUT/study-1.txt"
  run -atlas "$OUT/heatmap-2.html" >"$OUT/study-2.txt"

  grep -q "<table" "$OUT/heatmap.html" || die "heatmap has no table"
  grep -q "resiliency atlas" "$OUT/study-1.txt" || die "study text has no atlas section"
  if grep -Eq 'https?://|src="|<link' "$OUT/heatmap.html"; then
    die "heatmap references external assets"
  fi

  echo "== history =="
  "$WORK/vulfi" history -file "$hist" list | tee "$OUT/history.txt"
  [ "$("$WORK/vulfi" history -file "$hist" list | grep -c VectorCopy)" -eq 2 ] \
    || die "history does not list both runs"

  echo "== gate: identical runs must pass =="
  "$WORK/vulfi" diff -file "$hist" 1 2 | tee "$OUT/diff-identical.txt" \
    || die "vulfi diff on identical runs exited non-zero"

  echo "== gate: detector-disabled candidate must fail =="
  run -detectors >/dev/null   # entry 3: baseline with detectors
  run >/dev/null              # entry 4: same study, detectors off
  if "$WORK/vulfi" diff -file "$hist" 3 4 >"$OUT/diff-regression.txt"; then
    die "gate passed a detector-disabled candidate"
  fi
  grep -q "detected" "$OUT/diff-regression.txt" \
    || die "gate failure does not name the detected class"

  echo "PASS: atlas smoke (artifacts in $OUT/)"
}

# mask_wall FILE prints an `experiments -all` report without what a
# rerun legitimately changes: the section timings (`[… done in …]`),
# Figure 12's Avg Overhead(wall) column and ablation (c)'s
# `wall overhead=` values. It drops the committed file's trailing EXIT=
# line and collapses runs of spaces, since column widths follow the
# masked values.
mask_wall() {
  awk '
    /^EXIT=/ { next }
    /^FIGURE 12/ { fig12 = 1 }
    /^$/ { fig12 = 0 }
    { sub(/ done in .*\]$/, " done]"); gsub(/wall overhead=[^ ]*/, "wall overhead=WALL") }
    fig12 && NF == 6 && $4 ~ /%$/ { $4 = "WALL" }
    { gsub(/ +/, " "); sub(/ $/, ""); print }
  ' "$1"
}

scenario_paper() {
  echo "== experiments -all -backend vm =="
  go build -o "$WORK/experiments" ./cmd/experiments
  "$WORK/experiments" -all -backend vm >"$OUT/experiments_output.txt"
  mask_wall experiments_output.txt >"$OUT/committed.masked"
  mask_wall "$OUT/experiments_output.txt" >"$OUT/regenerated.masked"
  if ! diff -u "$OUT/committed.masked" "$OUT/regenerated.masked" >"$OUT/paper.diff"; then
    cat "$OUT/paper.diff"
    die "regenerated report differs from experiments_output.txt"
  fi
  echo "PASS: paper smoke, every number reproduced (artifacts in $OUT/)"
}

declare -F "scenario_$SCENARIO" >/dev/null ||
  die "unknown scenario $SCENARIO (want vulfid, trace, profile, timeline, shard, fleet, atlas or paper)"
mkdir -p "$OUT"
go build -o "$WORK/vulfi" ./cmd/vulfi
go build -o "$WORK/vulfid" ./cmd/vulfid
"scenario_$SCENARIO"
