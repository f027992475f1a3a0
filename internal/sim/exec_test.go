package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// execSide is a bank plane plus one executor over it, built the way sim.Run
// builds them, so executor edge cases can be driven op-by-op without the
// core model in the way. The inline side routes every controller through a
// single shared tag mirror and applies ownership changes at issue time —
// exactly when the live allocator would have mutated.
type execSide struct {
	p       *bankPlane
	exec    bankExec
	sharded *shardExec // nil on the inline side
	mirror0 *tagMirror // inline only
	mirrors []*tagMirror
}

// newExecSide builds the inline side (shards <= 1, the plane itself) or a
// sharded side whose adaptive batch window is capped at windowMax.
func newExecSide(t *testing.T, cfg Config, shards int) *execSide {
	return newExecSideWindow(t, cfg, shards, windowMax)
}

func newExecSideWindow(t *testing.T, cfg Config, shards int, maxWin uint64) *execSide {
	t.Helper()
	root := rng.New(cfg.Seed)
	dev, err := pcm.NewDevice(pcm.Config{
		Pages:    cfg.MemPages,
		FillSeed: root.SplitLabeled("fill").Uint64(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc.New(cfg.MemPages, cfg.RegionPages)
	if err != nil {
		t.Fatal(err)
	}
	bankRngs := root.SplitLabeled("mc").SplitLabeledSeq("bank", pcm.NumBanks)
	mcCfg := func() mc.Config { return cfg.Scheme.MCConfig(cfg.WriteQueueCap) }
	s := &execSide{}
	if shards > 1 {
		s.mirrors = make([]*tagMirror, shards)
		for i := range s.mirrors {
			s.mirrors[i] = newTagMirror(a)
		}
		resolve := func(bank int) mc.RegionResolver { return s.mirrors[bank%shards] }
		s.p, err = newBankPlane(cfg, dev, mcCfg, resolve, bankRngs)
		if err != nil {
			t.Fatal(err)
		}
		s.sharded = newShardExec(s.p, s.mirrors, cfg.collecting(), maxWin)
		s.exec = s.sharded
	} else {
		s.mirror0 = newTagMirror(a)
		resolve := func(bank int) mc.RegionResolver { return s.mirror0 }
		s.p, err = newBankPlane(cfg, dev, mcCfg, resolve, bankRngs)
		if err != nil {
			t.Fatal(err)
		}
		s.exec = s.p
	}
	return s
}

// ownerChange mutates region ownership the way each executor expects: the
// sharded side broadcasts through the op stream, the inline side applies to
// its live resolver at issue time.
func (s *execSide) ownerChange(region int, tg alloc.Tag, present bool) {
	if s.mirror0 != nil {
		s.mirror0.apply(region, tg, present)
		return
	}
	s.sharded.ownerChange(region, tg, present)
}

// stateFingerprint closes the executor, flushes the plane and renders the
// merged statistics plus the stored content of every line in [0, lines).
func (s *execSide) stateFingerprint(t *testing.T, now uint64, lines int) string {
	t.Helper()
	s.exec.close()
	end := s.p.flushAll(now)
	mcS, devS, ecpS, wdS := s.p.mergedStats()
	out := fmt.Sprintf("end=%d mc=%+v dev=%+v ecp=%+v wd=%+v\n", end, mcS, devS, ecpS, wdS)
	for l := 0; l < lines; l++ {
		a := pcm.LineAddr(l)
		out += fmt.Sprintf("%d:%x\n", l, s.p.ctrlFor(a).PeekData(a))
	}
	return out
}

func execPairCfg() Config {
	return Config{
		Scheme:        core.AllThree(6, alloc.Tag23),
		MemPages:      1 << 10,
		RegionPages:   64,
		WriteQueueCap: 8,
		Seed:          77,
	}
}

// TestExecRingWraparound drives far more posted ops through one shard than
// its ring holds — with no demand reads, so nothing ever resets the window —
// forcing the free-running indices to wrap several times. Run with -race to
// double as the ring's publication-protocol check. The inline twin pins
// equivalence.
func TestExecRingWraparound(t *testing.T) {
	cfg := execPairCfg()
	const ops = 4 * ringCap
	lines := 4 * pcm.LinesPerPage
	drive := func(s *execSide) string {
		mut := workload.NewMutator(0.2, 9)
		for i := 0; i < ops; i++ {
			a := pcm.LineAddr(i % lines)
			s.exec.write(uint64(i), a, a, mut.DrawMutation())
			if i%97 == 0 {
				// Start-Gap-shaped copy: both lines share a page (page p
				// lives wholly in bank p mod NumBanks), so they share a bank.
				to := a&^pcm.LineAddr(pcm.LinesPerPage-1) | pcm.LineAddr(int(a+1)%pcm.LinesPerPage)
				s.exec.copyLine(uint64(i), a, to)
			}
		}
		s.exec.barrier()
		return s.stateFingerprint(t, ops, lines)
	}
	inline := drive(newExecSide(t, cfg, 1))
	for _, shards := range []int{2, 16} {
		if got := drive(newExecSide(t, cfg, shards)); got != inline {
			t.Errorf("shards=%d: state diverged from inline after ring wraparound", shards)
		}
	}
}

// TestExecBarrierAfterOwnerChange pins the ordering edge the ISSUE calls
// out: a barrier issued immediately after an ownerChange — with no ops in
// between — must still apply the broadcast to every shard mirror before
// returning, and must not deadlock on shards whose rings were empty.
func TestExecBarrierAfterOwnerChange(t *testing.T) {
	cfg := execPairCfg()
	s := newExecSide(t, cfg, 8)
	for round := 0; round < 50; round++ {
		region := (round % 4) * cfg.RegionPages
		tg := alloc.Tag{N: 1 + round%2, M: 2}
		s.sharded.ownerChange(region, tg, true)
		s.exec.barrier()
		for i, m := range s.mirrors {
			if got := m.RegionTag(pcm.PageAddr(region)); got != tg {
				t.Fatalf("round %d: mirror %d saw tag %+v after barrier, want %+v", round, i, got, tg)
			}
		}
	}
	// Retag to absent and re-check the broadcast propagates that too.
	s.sharded.ownerChange(0, alloc.Tag{N: 1, M: 2}, false)
	s.exec.barrier()
	for i, m := range s.mirrors {
		if got := m.RegionTag(0); got != alloc.Tag11 {
			t.Fatalf("mirror %d still resolves %+v after release", i, got)
		}
	}
	s.exec.close()
}

// TestExecRandomizedBatchBoundaries is the batch-boundary stress: random op
// soups at random shard counts and batch windows (including window 1, which
// publishes every op, and windows straddling every power of two) must leave
// plane state and every demand-read result byte-identical to the inline
// executor. Read replies are compared in program order, so a reordering
// anywhere in the transport shows up as a concrete diverging op index.
func TestExecRandomizedBatchBoundaries(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cfg := execPairCfg()
			cfg.CheckIntegrity = true
			shards := []int{2, 3, 4, 8, 16}[r.Intn(5)]
			window := []uint64{1, 2, 3, 7, 31, windowMax}[r.Intn(6)]
			lines := 8 * pcm.LinesPerPage
			const ops = 6000

			// A read's data is what its bank holds for the line once the read
			// returns: the read's own shard has applied every op up to and
			// including it, so the caller may look at that bank.
			type readResult struct {
				done uint64
				data pcm.Line
				err  bool
			}
			drive := func(s *execSide, muts []workload.Mutation, kinds []int, addrs []pcm.LineAddr) ([]readResult, string) {
				var reads []readResult
				mi := 0
				for i := 0; i < ops; i++ {
					a := addrs[i]
					now := uint64(i)
					switch kinds[i] {
					case 0: // write
						s.exec.write(now, a, a, muts[mi])
						mi++
					case 1: // read (with lookahead, as the sim loop hints)
						s.exec.hintRead()
						done, err := s.exec.read(now, a, a)
						reads = append(reads, readResult{done, s.p.ctrlFor(a).LatestData(a), err != nil})
					case 2: // same-page copy
						to := a&^pcm.LineAddr(pcm.LinesPerPage-1) | pcm.LineAddr(int(a+1)%pcm.LinesPerPage)
						s.exec.copyLine(now, a, to)
					case 3: // ownership broadcast
						region := (int(a) / pcm.LinesPerPage / cfg.RegionPages) * cfg.RegionPages
						s.ownerChange(region, alloc.Tag{N: 2, M: 3}, i%2 == 0)
					case 4:
						s.exec.barrier()
					}
				}
				return reads, s.stateFingerprint(t, ops, lines)
			}

			// Pre-draw the op soup once so both sides replay the identical
			// program: kinds, addresses and mutation payloads.
			kinds := make([]int, ops)
			addrs := make([]pcm.LineAddr, ops)
			var muts []workload.Mutation
			mut := workload.NewMutator(0.25, uint64(seed))
			for i := range kinds {
				p := r.Intn(100)
				switch {
				case p < 62:
					kinds[i] = 0
					muts = append(muts, mut.DrawMutation())
				case p < 82:
					kinds[i] = 1
				case p < 90:
					kinds[i] = 2
				case p < 96:
					kinds[i] = 3
				default:
					kinds[i] = 4
				}
				addrs[i] = pcm.LineAddr(r.Intn(lines))
			}

			inlineReads, inlineState := drive(newExecSide(t, cfg, 1), muts, kinds, addrs)
			shardReads, shardState := drive(newExecSideWindow(t, cfg, shards, window), muts, kinds, addrs)
			if len(inlineReads) != len(shardReads) {
				t.Fatalf("read count diverged: %d inline, %d sharded", len(inlineReads), len(shardReads))
			}
			for i := range inlineReads {
				if inlineReads[i] != shardReads[i] {
					t.Fatalf("read %d diverged (shards=%d window=%d): inline %+v, sharded %+v",
						i, shards, window, inlineReads[i], shardReads[i])
				}
			}
			if inlineState != shardState {
				t.Fatalf("plane state diverged (shards=%d window=%d)", shards, window)
			}
		})
	}
}

// TestExecZeroRefSharded: a sharded run that never posts a single op must
// start and join its workers cleanly at high shard counts, report zero
// work, and (with collection on) export an all-zero ExecMetrics snapshot
// rather than nil or garbage.
func TestExecZeroRefSharded(t *testing.T) {
	for _, shards := range []int{8, 16} {
		cfg := Config{
			Scheme:         core.Baseline(),
			Streams:        []trace.Stream{trace.NewSliceStream(nil), trace.NewSliceStream(nil)},
			RefsPerCore:    100,
			MemPages:       1 << 16,
			RegionPages:    1024,
			Seed:           3,
			Shards:         shards,
			CollectMetrics: true,
		}
		r := run(t, cfg)
		if math.IsNaN(r.CPI) || r.CPI != 0 || r.Instructions != 0 || r.MC.WriteOps != 0 {
			t.Fatalf("shards=%d: zero-ref run did work: %+v", shards, r)
		}
		if r.ExecMetrics == nil {
			t.Fatalf("shards=%d: ExecMetrics nil with collection on", shards)
		}
		if n := r.ExecMetrics.Counter("exec.ops_published"); n != 0 {
			t.Fatalf("shards=%d: %d ops published on a zero-ref run", shards, n)
		}
		if g := r.ExecMetrics.Gauge("exec.shards"); g != uint64(shards) {
			t.Fatalf("shards=%d: exec.shards gauge = %d", shards, g)
		}
	}
}

// TestExecMetricsPlacement pins the split between the two snapshots: the
// deterministic Result.Metrics must never contain executor-behaviour
// counters (they would break byte-identity across shard counts), and
// ExecMetrics appears exactly when a sharded run collects metrics.
func TestExecMetricsPlacement(t *testing.T) {
	cfg := quickCfg(core.LazyC(6), "mcf")
	cfg.RefsPerCore = 500
	cfg.CollectMetrics = true
	inline := run(t, cfg)
	if inline.ExecMetrics != nil {
		t.Fatal("inline run exported ExecMetrics")
	}
	cfg.Shards = 8
	sharded := run(t, cfg)
	if sharded.ExecMetrics == nil {
		t.Fatal("sharded run with CollectMetrics exported no ExecMetrics")
	}
	if n := sharded.ExecMetrics.Counter("exec.reads_inline") + sharded.ExecMetrics.Counter("exec.reads_rendezvous"); n == 0 {
		t.Fatal("sharded run recorded no demand reads in ExecMetrics")
	}
	for _, c := range sharded.Metrics.Counters {
		if len(c.Name) >= 5 && c.Name[:5] == "exec." {
			t.Fatalf("deterministic snapshot contains executor counter %s", c.Name)
		}
	}
	off := cfg
	off.CollectMetrics = false
	if r := run(t, off); r.ExecMetrics != nil {
		t.Fatal("ExecMetrics exported with collection off")
	}
}

// TestResolveShards pins the host-aware -shards default and the shared range
// check: inline below ShardCrossoverCores, min(banks, cores) at or above it,
// explicit counts passed through, and one usage error outside 0..MaxShards.
func TestResolveShards(t *testing.T) {
	for _, tc := range []struct {
		n, cores, want int
	}{
		{0, 1, 1},
		{0, 2, 1},
		{0, 3, 1},
		{0, 4, 4},
		{0, 8, 8},
		{0, 32, pcm.NumBanks},
		{1, 32, 1},
		{4, 2, 4},
		{MaxShards, 1, MaxShards},
	} {
		got, err := ResolveShards(tc.n, tc.cores)
		if err != nil || got != tc.want {
			t.Errorf("ResolveShards(%d, %d) = %d, %v; want %d", tc.n, tc.cores, got, err, tc.want)
		}
	}
	for _, n := range []int{-1, MaxShards + 1} {
		_, err := ResolveShards(n, 8)
		want := fmt.Sprintf("-shards %d out of range (usage: -shards 0..1024, 0 = inline below 4 cores, else min(banks, cores))", n)
		if err == nil || err.Error() != want {
			t.Errorf("ResolveShards(%d, 8) error = %v; want %q", n, err, want)
		}
	}
}
