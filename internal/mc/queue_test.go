package mc

import (
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
)

// checkQueueIndex verifies every bank's address index against a linear
// scan of its queue entries.
func checkQueueIndex(t *testing.T, c *Controller, probes []pcm.LineAddr) {
	t.Helper()
	for bi := range c.banks {
		b := &c.banks[bi]
		if len(b.addrs) != len(b.wq) {
			t.Fatalf("bank %d: index holds %d addresses for %d entries", bi, len(b.addrs), len(b.wq))
		}
		for _, a := range probes {
			want := -1
			for i, e := range b.wq {
				if e.addr == a {
					want = i
					break
				}
			}
			if got := b.find(a); got != want {
				t.Fatalf("bank %d: find(%d) = %d, linear scan %d", bi, a, got, want)
			}
		}
	}
}

// resumeController checkpoints a controller and its device and restores
// them into fresh ones built from the same configuration.
func resumeController(t *testing.T, cfg Config, c *Controller, a *alloc.Allocator) *Controller {
	t.Helper()
	e := snap.NewEncoder(1)
	c.dev.EncodeState(e)
	c.EncodeState(e)
	d, err := snap.NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	nc, err := New(cfg, dev, a, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := nc.DecodeState(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return nc
}

// TestWriteQueueIndexMatchesScan drives random enqueue, coalesce, drain,
// preread-cancel and resume sequences through a PreRead controller and
// checks, after every step, the queue's address index against a linear scan
// of its entries — and, at the end, that the run that was checkpointed and
// resumed along the way finished exactly like one that was not.
func TestWriteQueueIndexMatchesScan(t *testing.T) {
	cfg := baselineCfg()
	cfg.Correction = LazyECP()
	cfg.ECPEntries = 6
	cfg.Preread = IdleSlotPreread()
	cfg.Drain = WriteCancelDrain()
	cfg.WriteQueueCap = 8
	// A few bit-line-adjacent pages in bank 0 and bank 1: writes coalesce,
	// forward pre-reads from each other and fill the queues.
	var probes []pcm.LineAddr
	for _, p := range []pcm.PageAddr{0, 16, 32, 48, 64, 1, 17, 33} {
		for slot := 0; slot < 3; slot++ {
			probes = append(probes, pcm.LineOf(p, slot))
		}
	}
	ref, test := newRig(t, cfg), newRig(t, cfg)
	r := rng.New(11)
	var clock uint64
	for step := 0; step < 3000; step++ {
		a := probes[r.Intn(len(probes))]
		var data pcm.Line
		data[0] = r.Uint64()
		switch op := r.Intn(10); {
		case op < 6:
			ref.c.Write(clock, a, data)
			test.c.Write(clock, a, data)
		case op < 9:
			ref.c.Read(clock, a)
			test.c.Read(clock, a)
		default:
			ref.c.Flush(clock)
			test.c.Flush(clock)
		}
		clock += uint64(r.Intn(900))
		if r.Intn(200) == 0 {
			test.c = resumeController(t, cfg, test.c, test.a)
		}
		checkQueueIndex(t, test.c, probes)
	}
	ref.c.Flush(clock)
	test.c.Flush(clock)
	if ref.c.Stats != test.c.Stats {
		t.Fatalf("resumed run diverged:\n%+v\n%+v", test.c.Stats, ref.c.Stats)
	}
	if ref.c.Stats.PreReadsForwarded == 0 || ref.c.Stats.PreReadsCanceled == 0 || ref.c.Stats.Coalesced == 0 {
		t.Fatalf("sequence missed a path: %+v", ref.c.Stats)
	}
}

// BenchmarkPrereadIssue is the pinned PreRead layer benchmark: one full
// issue pass over a 30-entry queue whose entries all need both pre-write
// reads, some of them forwardable from queued neighbours.
func BenchmarkPrereadIssue(b *testing.B) {
	cfg := baselineCfg()
	cfg.Preread = IdleSlotPreread()
	d, err := pcm.NewDevice(pcm.Config{Pages: testPages, FillSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	a, err := alloc.New(testPages, 128)
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(cfg, d, a, rng.New(99))
	if err != nil {
		b.Fatal(err)
	}
	bk := &c.banks[0]
	for i := 0; i < 30; i++ {
		// Rows 1..30 of bank 0, every other row's slot shared with its
		// upper neighbour: those pre-reads forward from the queue.
		row := 1 + i
		slot := i / 2 % pcm.LinesPerPage
		e := c.newEntry(pcm.LineOf(pcm.PageAddr(row*pcm.NumBanks), slot), pcm.Line{})
		bk.push(e)
	}
	s := idleSlotPreread{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range bk.wq {
			e.prTop, e.prBelow = false, false
		}
		bk.prereads = bk.prereads[:0]
		bk.freeAt = 0
		bk.prStale = true
		s.issue(c, bk, 1)
	}
}
