package main

import (
	"testing"
	"time"

	"sdpcm"
	"sdpcm/internal/serve"
)

// TestShardBudget pins how sdpcm-bench splits the host between concurrent
// points before the auto -shards rule sees it: a full-width sweep leaves one
// core per point, so -shards 0 runs inline.
func TestShardBudget(t *testing.T) {
	for _, tc := range []struct {
		procs, parallel, budget, shards int
	}{
		{8, 2, 4, 4},
		{8, 0, 1, 1},
		{8, 1, 8, 8},
		{8, 8, 1, 1},
		{2, 1, 2, 1},
		{4, 16, 1, 1},
		{32, 1, 32, 16},
	} {
		b := shardBudget(tc.procs, tc.parallel)
		n, err := sdpcm.ResolveShards(0, b)
		if b != tc.budget || err != nil || n != tc.shards {
			t.Errorf("procs=%d parallel=%d: budget %d -> shards %d (%v); want budget %d -> shards %d",
				tc.procs, tc.parallel, b, n, err, tc.budget, tc.shards)
		}
	}
}

// TestSectionLineWarmStore: the per-experiment stderr line reads the sweep
// fold's section, so a warm -result-store rerun reports its points as store
// hits and 0 simulated.
func TestSectionLineWarmStore(t *testing.T) {
	store, err := serve.OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp, err := sdpcm.ExperimentByName("fig4")
	if err != nil {
		t.Fatal(err)
	}
	line := func() string {
		sweep := &sdpcm.ObsSweep{}
		opts := sdpcm.ExperimentOptions{
			Base:       sdpcm.SweepBase{RefsPerCore: 400, Cores: 2, MemPages: 1 << 14, RegionPages: 256, Seed: 3},
			Benchmarks: []string{"lbm", "mcf"},
			Observer:   sweep,
			Exec:       &sdpcm.SweepRunner{Store: store}, // a fresh runner: a new invocation
		}
		sweep.Begin(exp.Name)
		if _, err := exp.Run(opts); err != nil {
			t.Fatal(err)
		}
		secs := sweep.Progress().Experiments
		return sectionLine(exp.Name, time.Second, secs[len(secs)-1], "heap")
	}
	for _, tc := range []struct{ pass, want string }{
		{"cold", "(fig4 completed in 1s: 2 points, 2 simulated, 0 cache hits, 0 store hits, heap)"},
		{"warm", "(fig4 completed in 1s: 2 points, 0 simulated, 0 cache hits, 2 store hits, heap)"},
	} {
		if got := line(); got != tc.want {
			t.Errorf("%s pass: %s\nwant %s", tc.pass, got, tc.want)
		}
	}
}
