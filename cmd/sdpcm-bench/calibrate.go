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
// scheme, mcf on 8 cores) at each shard count on this host and prints the
// fastest next to what the auto rule picks. The sweep is wall-clock tuning
// only: every row computes the identical Result.
func runCalibrate(refs int, seed uint64) int {
	cfg := sdpcm.SimConfig{
		Scheme:      sdpcm.AllThree(6, sdpcm.Tag23),
		Mix:         sdpcm.HomogeneousMix("mcf", 8),
		RefsPerCore: refs,
		MemPages:    1 << 16,
		RegionPages: 1024,
		Seed:        seed,
	}
	fmt.Fprintf(os.Stderr, "calibrate: %d refs/core x 8 cores, GOMAXPROCS=%d, %d reps per row (best kept)\n",
		refs, runtime.GOMAXPROCS(0), calibrateReps)

	// Warm up once so first-row costs (page faults, heap growth) don't
	// masquerade as a slow configuration.
	if _, err := sdpcm.Run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "sdpcm-bench: calibrate: %v\n", err)
		return 1
	}

	fmt.Printf("%-8s %12s\n", "shards", "best")
	fastest, fastestTime := 0, time.Duration(0)
	for _, s := range []int{1, 2, 4, 8, pcm.NumBanks} {
		c := cfg
		c.Shards = s
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
		fmt.Printf("%-8d %12s\n", s, best.Round(time.Millisecond))
		if fastest == 0 || best < fastestTime {
			fastest, fastestTime = s, best
		}
	}
	fmt.Printf("\ncalibrate: best -shards %d (%v)\n", fastest, fastestTime.Round(time.Millisecond))
	// The rows above run one simulation at a time, so the auto rule gets
	// every core, as it does in sdpcm-sim and in sdpcm-bench -parallel 1.
	procs := runtime.GOMAXPROCS(0)
	auto, _ := sdpcm.ResolveShards(0, procs)
	verdict := "agrees with the fastest"
	if auto != fastest {
		verdict = fmt.Sprintf("differs from the fastest (-shards %d)", fastest)
	}
	fmt.Printf("calibrate: auto -shards 0 resolves to %d for one simulation on %d cores (inline below %d); %s\n",
		auto, procs, sdpcm.ShardCrossoverCores, verdict)
	return 0
}
