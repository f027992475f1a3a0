# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; keep the two in sync.

GO ?= go

.PHONY: build test race bench bench-json golden check-golden bench-record obs-smoke resume-smoke serve-smoke lint ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every benchmark — a smoke test that the bench harness
# still runs, not a measurement.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The pinned data-plane benchmark set the benchstat CI gate compares
# against main. Parent names only: sub-benchmarks (WritePath/vnc, ...) run
# because go test splits the -bench regex on '/'.
# Keep in sync with the baseline regex of the bench-gate job in
# .github/workflows/ci.yml.
BENCH_PIN = BenchmarkDevicePeek$$|BenchmarkDeviceWrite$$|BenchmarkDeviceDisturb$$|BenchmarkDeviceNeighbourhood$$|BenchmarkWDInject$$|BenchmarkDINEncode$$|BenchmarkECPRecordWD$$|BenchmarkTranslate$$|BenchmarkPrereadIssue$$|BenchmarkWritePath$$|BenchmarkSimulatorThroughput$$|BenchmarkSimRunSharded$$|BenchmarkGeneratorNext$$|BenchmarkDrawMutation$$
BENCH_PKGS = ./internal/pcm ./internal/wd ./internal/din ./internal/ecp ./internal/vm ./internal/mc ./internal/workload .

# Where bench-json records the per-benchmark medians; the CI bench-gate sets
# it explicitly so the Makefile and workflow can never disagree on the name.
BENCH_OUT ?= BENCH_18.json

# Run the pinned set six times, keep the raw text (bench.txt, what
# benchstat consumes) and record per-benchmark medians as $(BENCH_OUT).
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PIN)' -benchtime 200ms -count 6 \
		$(BENCH_PKGS) > bench.txt
	$(GO) run ./scripts/benchgate -emit bench.txt > $(BENCH_OUT)

# Refresh the pinned golden tables after an intentional simulator change.
golden:
	./scripts/golden.sh --update

# Regenerate the golden tables and fail on any byte difference (the CI job).
check-golden:
	./scripts/golden.sh --check

# Start sdpcm-bench -listen on a free port and scrape /metrics, /progress
# and /events mid-run; fails on any non-200 or unparsable payload.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end sweep-service check: cold sdpcm-serve run (SSE stream, per-job
# /metrics, golden-identical table), warm rerun on the same store dir with
# zero simulations, and a clean mid-job SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh

# Kill a checkpointing sdpcm-sim run with SIGKILL at ~50%, resume it, and
# diff the output byte-for-byte against an uninterrupted run — plain and
# -race builds, Shards=1 and Shards=4 (the CI resume-determinism job).
resume-smoke:
	./scripts/resume_smoke.sh

# Emit one point of the performance trajectory (BENCH_ci.json).
bench-record:
	$(GO) run ./cmd/sdpcm-bench -exp fig11 -refs 2000 -cores 4 \
		-benchmarks gemsFDTD,lbm,mcf -mem-mb 128 -region-pages 256 \
		-metrics json -bench-json BENCH_ci.json >/dev/null

lint:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) run ./scripts/archcheck.go

ci: build lint race check-golden bench obs-smoke resume-smoke serve-smoke
