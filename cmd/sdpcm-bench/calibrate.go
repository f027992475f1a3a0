package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"sdpcm"
	"sdpcm/internal/pcm"
)

// calibrateReps repeats each configuration and keeps the fastest time —
// minimum, not mean, because scheduling noise only ever adds time.
const calibrateReps = 3

// runCalibrate times the BenchmarkSimRunSharded workload (the heaviest
// scheme, mcf on 8 cores) across a shard-count × batch-window grid on this
// host and prints the fastest configuration as ready-to-paste flags. The
// sweep is wall-clock tuning only: every cell computes the identical Result.
func runCalibrate(refs int, seed uint64) int {
	shardAxis := []int{1, 2, 4, 8, pcm.NumBanks}
	windowAxis := []int{16, 64, 256, 512}

	cfg := sdpcm.SimConfig{
		Scheme:      sdpcm.AllThree(6, sdpcm.Tag23),
		Mix:         sdpcm.HomogeneousMix("mcf", 8),
		RefsPerCore: refs,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        seed,
	}
	fmt.Fprintf(os.Stderr, "calibrate: %d refs/core x 8 cores, GOMAXPROCS=%d, %d reps per cell (best kept)\n",
		refs, runtime.GOMAXPROCS(0), calibrateReps)

	// Warm up once so first-cell costs (page faults, heap growth) don't
	// masquerade as a slow configuration.
	if _, err := sdpcm.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-bench: calibrate: %v\n", err)
		return 1
	}

	fmt.Printf("%-8s", "shards")
	for _, w := range windowAxis {
		fmt.Printf(" %12s", fmt.Sprintf("win=%d", w))
	}
	fmt.Println()

	type point struct {
		shards, window int
		best           time.Duration
	}
	var fastest *point
	for _, s := range shardAxis {
		fmt.Printf("%-8d", s)
		for _, w := range windowAxis {
			c := cfg
			c.Shards = s
			c.BatchWindow = w
			best := time.Duration(0)
			for r := 0; r < calibrateReps; r++ {
				t0 := time.Now()
				if _, err := sdpcm.Run(c); err != nil {
					fmt.Fprintf(os.Stderr, "sdpcm-bench: calibrate: %v\n", err)
					return 1
				}
				if d := time.Since(t0); best == 0 || d < best {
					best = d
				}
			}
			fmt.Printf(" %12s", best.Round(time.Millisecond))
			if fastest == nil || best < fastest.best {
				fastest = &point{shards: s, window: w, best: best}
			}
			// Inline execution ignores the window; one column tells all.
			if s <= 1 {
				for range windowAxis[1:] {
					fmt.Printf(" %12s", "-")
				}
				break
			}
		}
		fmt.Println()
	}
	fmt.Printf("\ncalibrate: best -shards %d -batch-window %d (%v)\n",
		fastest.shards, fastest.window, fastest.best.Round(time.Millisecond))
	// The cells above run one simulation at a time, so the auto rule gets
	// every core, as it does in sdpcm-sim and in sdpcm-bench -parallel 1.
	procs := runtime.GOMAXPROCS(0)
	auto, _ := sdpcm.ResolveShards(0, procs)
	verdict := "agrees with the fastest"
	if auto != fastest.shards {
		verdict = fmt.Sprintf("differs from the fastest (-shards %d)", fastest.shards)
	}
	fmt.Printf("calibrate: auto -shards 0 resolves to %d for one simulation on %d cores (inline below %d); %s\n",
		auto, procs, sdpcm.ShardCrossoverCores, verdict)
	return 0
}
