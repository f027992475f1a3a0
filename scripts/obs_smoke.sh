#!/usr/bin/env bash
# Observability smoke test (the CI obs-smoke step and `make obs-smoke`).
#
# Starts `sdpcm-bench -listen 127.0.0.1:0` on a short sweep, scrapes the
# live endpoints mid-run, and fails on any non-200 response or unparsable
# payload:
#
#   /metrics   must be Prometheus text exposition with sdpcm_-prefixed
#              series and at least one nonzero counter
#   /progress  must be JSON carrying the points_done tally
#   /events    must be JSON carrying at least one typed event: the sweep
#              runs with -trace-events, and the live view keeps a bounded
#              ring of the points' event tails
#
# The bench prints its bound address ("obs: listening on http://ADDR") to
# stderr, so the script needs no free-port guessing.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
cleanup() {
  [ -n "${BENCH_PID:-}" ] && kill "$BENCH_PID" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/sdpcm-bench" ./cmd/sdpcm-bench

# A sweep big enough to still be in flight when we scrape: every figure at
# the golden scale.
"$tmp/sdpcm-bench" -exp all -refs 2000 -cores 4 -benchmarks gemsFDTD,lbm,mcf \
  -mem-mb 128 -region-pages 256 -trace-events 64 -listen 127.0.0.1:0 \
  >"$tmp/stdout.txt" 2>"$tmp/stderr.txt" &
BENCH_PID=$!

# Wait for the listening line (the server binds before the sweep starts).
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's|^obs: listening on http://||p' "$tmp/stderr.txt" | head -1)"
  [ -n "$addr" ] && break
  if ! kill -0 "$BENCH_PID" 2>/dev/null; then
    echo "sdpcm-bench exited before listening:" >&2
    cat "$tmp/stderr.txt" >&2
    exit 1
  fi
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "sdpcm-bench never printed its listen address" >&2
  exit 1
fi
echo "scraping http://$addr"

# Give the sweep a moment to publish its first aggregate, then scrape while
# it is still running.
ok=1
for _ in $(seq 1 100); do
  curl -fsS "http://$addr/metrics" >"$tmp/metrics.txt" || { ok=0; break; }
  grep -q '^sdpcm_' "$tmp/metrics.txt" && break
  sleep 0.1
done
[ "$ok" -eq 1 ] || { echo "/metrics unreachable" >&2; exit 1; }

# /metrics: exposition shape + a nonzero counter.
if ! grep -q '^# TYPE sdpcm_' "$tmp/metrics.txt"; then
  echo "/metrics carries no sdpcm_ TYPE lines:" >&2
  head "$tmp/metrics.txt" >&2
  exit 1
fi
if ! awk '$1 ~ /^sdpcm_.*_total$/ && $2+0 > 0 { found=1 } END { exit !found }' "$tmp/metrics.txt"; then
  echo "/metrics has no nonzero sdpcm_*_total counter mid-run" >&2
  exit 1
fi

# /progress: valid JSON with a points_done tally.
curl -fsS "http://$addr/progress" >"$tmp/progress.json"
python3 - "$tmp/progress.json" <<'EOF'
import json, sys
p = json.load(open(sys.argv[1]))
assert "points_done" in p, p
assert isinstance(p["experiments"], list), p
EOF

# /events: valid JSON with at least one event. The server closes when the
# sweep ends, so a successful scrape is a mid-run one.
curl -fsS "http://$addr/events?n=5" >"$tmp/events.json"
python3 - "$tmp/events.json" <<'EOF'
import json, sys
e = json.load(open(sys.argv[1]))
assert len(e["events"]) >= 1, ("no live events mid-run", e)
EOF

wait "$BENCH_PID"
BENCH_PID=""
echo "obs smoke OK: /metrics, /progress and /events served live data"
