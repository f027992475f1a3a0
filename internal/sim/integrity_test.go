package sim

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"sdpcm/internal/core"
	"sdpcm/internal/mc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// capture returns n records of a Table 3 benchmark's reference stream.
func capture(t *testing.T, bench string, n int, seed uint64) []trace.Record {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.NewGenerator(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Capture(g, n)
}

// TestRunFailsOnTruncatedTrace: a replayed trace that ends mid-record must
// fail the run with the reader's decode error and the core it fed, rather
// than pass as a shorter trace.
func TestRunFailsOnTruncatedTrace(t *testing.T) {
	recs := capture(t, "mcf", 2000, 3)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	if _, err := trace.ReadAll(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("precondition: the cut must land mid-record, ReadAll err = %v", err)
	}
	for _, shards := range []int{1, 4} {
		_, err := Run(Config{
			Scheme: core.Baseline(),
			Streams: []trace.Stream{
				trace.NewSliceStream(recs),
				trace.NewStreamReader(bytes.NewReader(cut)),
			},
			RefsPerCore: 1 << 30, // streams exhaust first
			MemPages:    1 << 16,
			RegionPages: 1024,
			Seed:        9,
			Shards:      shards,
		})
		if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "core 1") {
			t.Errorf("shards=%d: err = %v, want core 1's unexpected EOF", shards, err)
		}
	}
}

// corruptStored flips one clear cell of a's stored copy behind the
// controller's back, as an undetected disturbance error would.
func corruptStored(t *testing.T, p *bankPlane, a pcm.LineAddr) {
	t.Helper()
	raw := p.dev.Peek(a)
	var flip pcm.Mask
	for i, w := range raw {
		if w != ^uint64(0) {
			flip[i] = ^w & (w + 1) // lowest clear bit
			break
		}
	}
	if p.dev.Disturb(a, flip) != 1 {
		t.Fatalf("line %d: disturbance did not land", a)
	}
}

// TestIntegrityDetectsCorruption drives each read path of the executors
// against a line whose stored copy was corrupted after its write drained:
// the inline read, the sharded steal-on-read path (shard caught up) and the
// sharded rendezvous path (the read posted into the worker's op stream).
// Each must report the integrity violation; the same read before the
// corruption must not.
func TestIntegrityDetectsCorruption(t *testing.T) {
	cfg := execPairCfg()
	cfg.CheckIntegrity = true
	const a = pcm.LineAddr(3 * pcm.LinesPerPage)
	const want = "sim: integrity violation: read of line 192 returned corrupted data"
	for _, tc := range []struct {
		name   string
		shards int
		read   func(t *testing.T, s *execSide, now uint64) error
	}{
		{"inline", 1, func(t *testing.T, s *execSide, now uint64) error {
			_, err := s.exec.read(now, a, a)
			return err
		}},
		{"steal", 2, func(t *testing.T, s *execSide, now uint64) error {
			w := s.sharded.shardFor(a)
			if !w.caughtUp() {
				t.Fatal("shard not caught up after a barrier: read would rendezvous")
			}
			_, err := s.sharded.read(now, a, a)
			return err
		}},
		{"rendezvous", 2, func(t *testing.T, s *execSide, now uint64) error {
			_, err := s.sharded.rendezvous(s.sharded.shardFor(a), now, a, a)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newExecSide(t, cfg, tc.shards)
			defer s.exec.close()
			mut := workload.NewMutator(0.5, 1)
			s.exec.write(0, a, a, mut.DrawMutation())
			s.exec.barrier()
			now := s.p.flushAll(1)
			if err := tc.read(t, s, now); err != nil {
				t.Fatalf("clean read: %v", err)
			}
			corruptStored(t, s.p, a)
			if err := tc.read(t, s, now+1000); err == nil || err.Error() != want {
				t.Fatalf("corrupted read: err = %v, want %q", err, want)
			}
		})
	}
}

// dropWD is a broken correction policy: it claims every detected
// disturbance error as handled and repairs nothing, so the errors stay in
// the array — WD escaping VnC.
type dropWD struct{}

func (dropWD) Absorb(mc.PolicyContext, pcm.LineAddr, pcm.Mask, []int, int) (int, bool) {
	return 0, true
}

// TestIntegrityDetectsEscapeAfterFlush: with a correction policy that lets
// disturbance errors escape and a write-only workload (so no demand read
// can notice first), sim.Run's post-flush check must fail the run at every
// shard count. The same run under real eager correction passes.
func TestIntegrityDetectsEscapeAfterFlush(t *testing.T) {
	var writes []trace.Record
	for _, r := range capture(t, "mcf", 6000, 5) {
		if r.Kind == trace.Write {
			writes = append(writes, r)
		}
	}
	mk := func(shards int) Config {
		return Config{
			Scheme:         core.Baseline(),
			Streams:        []trace.Stream{trace.NewSliceStream(writes)},
			RefsPerCore:    len(writes),
			MemPages:       1 << 16,
			RegionPages:    1024,
			Seed:           5,
			Shards:         shards,
			CheckIntegrity: true,
		}
	}
	run(t, mk(1))
	for _, shards := range []int{1, 4} {
		cfg := mk(shards)
		cfg.Scheme.Policy = func(m *mc.Config) { m.Correction = dropWD{} }
		_, err := Run(cfg)
		if err == nil || !strings.Contains(err.Error(), "corrupted after flush (WD escaped VnC)") {
			t.Errorf("shards=%d: err = %v, want the post-flush integrity violation", shards, err)
		}
	}
}
