#!/usr/bin/env bash
# Kill-and-resume smoke test (the CI resume-determinism job and
# `make resume-smoke`).
#
# The checkpoint/resume contract: a run killed mid-flight (SIGKILL — no
# cleanup, the checkpoint must already be durable) and resumed from its last
# checkpoint prints a report byte-identical to the uninterrupted run. This
# script enforces it end-to-end through the sdpcm-sim binary, at Shards=1 and
# Shards=4, with a plain and a -race build:
#
#   1. run to completion                          -> full.txt
#   2. run with -checkpoint, SIGKILL once the
#      checkpoint file appears (~50% of the run)
#   3. rerun with -resume                         -> resumed.txt
#   4. diff full.txt resumed.txt (byte-for-byte, except exec.* entries)
#
# The sharded executor's exec.* metrics describe host scheduling, not the
# simulation: they sit outside the determinism contract and a resumed run
# counts only its second half. The diff therefore drops the metric entries
# whose name starts with "exec." from both reports (after checking, at
# -shards 4, that both reports carry them) and compares everything else
# byte-for-byte.
#
# The checkpoint interval is >50% of the run so the file is written exactly
# once and never overwritten — the resume always starts from mid-run state.
set -euo pipefail
cd "$(dirname "$0")/.."

REFS=40000
CORES=4
TOTAL=$((REFS * CORES))
EVERY=$((TOTAL / 2 + 1))
FLAGS=(-scheme all -bench mcf -refs "$REFS" -cores "$CORES" \
  -seed 9 -no-baseline -metrics json)

tmp="$(mktemp -d)"
cleanup() {
  [ -n "${SIM_PID:-}" ] && kill -9 "$SIM_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

# strip_exec IN OUT copies the report IN to OUT without the exec.* entries of
# its JSON metrics document and prints how many entries it removed.
strip_exec() {
  python3 - "$1" "$2" <<'PY'
import json, sys
text = open(sys.argv[1]).read()
cut = text.index("\n{\n") + 1
doc = json.loads(text[cut:])
removed = 0
for key, entries in doc.items():
    if isinstance(entries, list):
        kept = [m for m in entries if not str(m.get("name", "")).startswith("exec.")]
        removed += len(entries) - len(kept)
        doc[key] = kept
with open(sys.argv[2], "w") as out:
    out.write(text[:cut] + json.dumps(doc, indent=2) + "\n")
print(removed)
PY
}

go build -o "$tmp/sdpcm-sim" ./cmd/sdpcm-sim
go build -race -o "$tmp/sdpcm-sim-race" ./cmd/sdpcm-sim

for mode in plain race; do
  bin="$tmp/sdpcm-sim"
  [ "$mode" = race ] && bin="$tmp/sdpcm-sim-race"
  for shards in 1 4; do
    echo "== $mode shards=$shards"
    ckpt="$tmp/$mode-$shards.ckpt"

    "$bin" "${FLAGS[@]}" -shards "$shards" >"$tmp/full.txt"

    "$bin" "${FLAGS[@]}" -shards "$shards" \
      -checkpoint "$ckpt" -checkpoint-every "$EVERY" >/dev/null &
    SIM_PID=$!
    # The checkpoint is published by atomic rename, so existence implies a
    # complete, loadable file. Kill the instant it appears.
    while [ ! -f "$ckpt" ]; do
      if ! kill -0 "$SIM_PID" 2>/dev/null; then
        break # finished before we could kill it; the checkpoint remains
      fi
      sleep 0.02
    done
    if [ ! -f "$ckpt" ]; then
      echo "run exited without writing a checkpoint" >&2
      exit 1
    fi
    kill -9 "$SIM_PID" 2>/dev/null || true
    wait "$SIM_PID" 2>/dev/null || true
    SIM_PID=""

    "$bin" "${FLAGS[@]}" -shards "$shards" \
      -checkpoint "$ckpt" -checkpoint-every "$EVERY" -resume \
      >"$tmp/resumed.txt" 2>"$tmp/resumed.err"
    grep -q "resuming from" "$tmp/resumed.err" || {
      echo "resumed run did not pick up the checkpoint:" >&2
      cat "$tmp/resumed.err" >&2
      exit 1
    }
    full_exec=$(strip_exec "$tmp/full.txt" "$tmp/full.cmp")
    resumed_exec=$(strip_exec "$tmp/resumed.txt" "$tmp/resumed.cmp")
    if [ "$shards" -gt 1 ] && { [ "$full_exec" -eq 0 ] || [ "$resumed_exec" -eq 0 ]; }; then
      echo "exec.* metrics missing at shards=$shards (full $full_exec, resumed $resumed_exec entries)" >&2
      exit 1
    fi
    if ! diff -u "$tmp/full.cmp" "$tmp/resumed.cmp"; then
      echo "resume diverged ($mode, shards=$shards)" >&2
      exit 1
    fi
  done
done
echo "resume smoke OK: killed-and-resumed output byte-identical apart from exec.* (plain+race, shards 1 and 4)"
