package main

import (
	"testing"

	"sdpcm"
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
