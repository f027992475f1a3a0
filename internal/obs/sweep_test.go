package obs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sdpcm/internal/core"
	"sdpcm/internal/metrics"
	"sdpcm/internal/runner"
	"sdpcm/internal/sim"
	"sdpcm/internal/wd"
)

// fakeClock returns a fixed time until tick advances it, so Progress reads
// never perturb the inter-completion intervals the EWMA measures.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) tick(d time.Duration) { c.t = c.t.Add(d) }

func newTestProgress() (*Sweep, *fakeClock) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p := &Sweep{}
	p.now = c.now
	return p, c
}

func TestProgressCounts(t *testing.T) {
	p, c := newTestProgress()
	p.Begin("fig11")
	for i := 0; i < 5; i++ {
		c.tick(time.Second)
		ev := runner.PointEvent{Index: i, Total: 5}
		switch i {
		case 1, 2:
			ev.Cached = true
		case 4:
			ev.Err = errors.New("boom")
		}
		p.PointDone(ev)
	}
	s := p.Progress()
	if s.PointsDone != 5 || s.PointsCached != 2 || s.PointsErrored != 1 {
		t.Fatalf("totals = %+v", s)
	}
	if len(s.Experiments) != 1 {
		t.Fatalf("experiments = %+v", s.Experiments)
	}
	e := s.Experiments[0]
	if e.Name != "fig11" || e.Total != 5 || e.Done != 5 || e.Cached != 2 || e.Errored != 1 {
		t.Fatalf("experiment = %+v", e)
	}
	if s.ElapsedSeconds != 5 {
		t.Fatalf("elapsed = %v, want 5", s.ElapsedSeconds)
	}
}

func TestProgressAnonymousSection(t *testing.T) {
	p, c := newTestProgress()
	c.tick(time.Second)
	p.PointDone(runner.PointEvent{Total: 3})
	s := p.Progress()
	if len(s.Experiments) != 1 || s.Experiments[0].Name != "sweep" {
		t.Fatalf("expected an anonymous sweep section, got %+v", s.Experiments)
	}
}

func TestProgressRateAndETA(t *testing.T) {
	// One point per second: the EWMA must converge to 1/s and the ETA must
	// fall monotonically as the section drains at a constant pace.
	p, c := newTestProgress()
	p.Begin("fig12")
	var lastETA float64
	for i := 0; i < 20; i++ {
		c.tick(time.Second)
		p.PointDone(runner.PointEvent{Index: i, Total: 40})
		s := p.Progress()
		if s.RatePerSec <= 0 {
			t.Fatalf("rate = %v after %d points", s.RatePerSec, i+1)
		}
		if i > 0 && s.ETASeconds >= lastETA {
			t.Fatalf("ETA not monotone at point %d: %v -> %v", i, lastETA, s.ETASeconds)
		}
		lastETA = s.ETASeconds
	}
	s := p.Progress()
	if s.RatePerSec < 0.99 || s.RatePerSec > 1.01 {
		t.Fatalf("EWMA rate = %v, want ~1/s", s.RatePerSec)
	}
	// 20 of 40 points remain at 1/s.
	if s.ETASeconds < 19 || s.ETASeconds > 21 {
		t.Fatalf("ETA = %vs, want ~20s", s.ETASeconds)
	}
}

func TestProgressCachedBurstDoesNotBlowUpRate(t *testing.T) {
	// Cached points complete back-to-back with ~zero interval; the dt floor
	// must keep the rate finite.
	p, c := newTestProgress()
	p.Begin("fig13")
	c.tick(time.Second)
	for i := 0; i < 10; i++ {
		p.PointDone(runner.PointEvent{Index: i, Total: 10, Cached: true})
	}
	s := p.Progress()
	if s.RatePerSec <= 0 || s.RatePerSec != s.RatePerSec { // NaN check
		t.Fatalf("rate = %v", s.RatePerSec)
	}
}

func TestProgressETAZeroWhenSectionDone(t *testing.T) {
	p, c := newTestProgress()
	p.Begin("fig13")
	for i := 0; i < 3; i++ {
		c.tick(time.Second)
		p.PointDone(runner.PointEvent{Index: i, Total: 3})
	}
	if eta := p.Progress().ETASeconds; eta != 0 {
		t.Fatalf("ETA = %v after the section finished, want 0", eta)
	}
}

func TestProgressNewSectionResetsETA(t *testing.T) {
	p, c := newTestProgress()
	p.Begin("a")
	c.tick(time.Second)
	p.PointDone(runner.PointEvent{Total: 100})
	if p.Progress().ETASeconds == 0 {
		t.Fatal("mid-section ETA should be positive")
	}
	p.Begin("b")
	// The new, empty section has no Total yet, so nothing remains to estimate.
	if eta := p.Progress().ETASeconds; eta != 0 {
		t.Fatalf("fresh section ETA = %v, want 0", eta)
	}
}

// TestSweepFailedDuplicateCountsOnce: a waiter coalesced onto a failed owner
// reports Cached together with Err. The fold must count it once, as an
// error, so the derived simulated count never goes negative.
func TestSweepFailedDuplicateCountsOnce(t *testing.T) {
	bad := runner.Spec{Scheme: core.Scheme{}, Bench: "lbm"} // no name/layout: sim.Run fails
	base := runner.Base{RefsPerCore: 100, Cores: 2, MemPages: 1 << 14, RegionPages: 256, Seed: 1}
	sw := &Sweep{}
	cachedErr := 0
	probe := runner.ObserverFunc(func(ev runner.PointEvent) {
		if ev.Cached && ev.Err != nil {
			cachedErr++
		}
	})
	r := &runner.Runner{Workers: 1}
	if _, err := r.Run(context.Background(), base, []runner.Spec{bad, bad}, runner.Multi(sw, probe)); err == nil {
		t.Fatal("an invalid scheme must fail the run")
	}
	if cachedErr != 1 {
		t.Fatalf("runner reported %d cached failures, want the one waiter", cachedErr)
	}
	p := sw.Progress()
	if p.PointsDone != 2 || p.PointsErrored != 2 || p.PointsCached != 0 || p.PointsStored != 0 {
		t.Fatalf("totals = %+v, want 2 done, 2 errored, 0 cached, 0 stored", p)
	}
	sec := p.Experiments[0]
	if sec.Done != sec.Cached+sec.Stored+sec.Errored+sec.Simulated() || sec.Simulated() != 0 || p.PointsSimulated() != 0 {
		t.Fatalf("section = %+v (simulated %d), want every point classified once", sec, sec.Simulated())
	}
}

// withMetrics is a successful point carrying a metrics snapshot with n
// events, dropped ring overflow and an optional heatmap.
func withMetrics(n int, dropped uint64, heat *wd.HeatmapSnapshot) runner.PointEvent {
	m := &metrics.Snapshot{
		Counters:      []metrics.CounterPoint{{Name: "mc.write_ops", Value: 3}},
		Events:        make([]metrics.Event, n),
		EventsDropped: dropped,
	}
	for i := range m.Events {
		m.Events[i].Seq = uint64(i)
	}
	return runner.PointEvent{Total: 2, Result: &sim.Result{Metrics: m, Heatmap: heat}}
}

// TestSweepMetricsAndLiveRing: Metrics is the tail-free deterministic
// merge; Live adds the bounded ring, whose overflow counts as dropped.
func TestSweepMetricsAndLiveRing(t *testing.T) {
	sw := &Sweep{}
	if sw.Metrics() != nil || sw.Live() != nil || sw.Heatmap() != nil {
		t.Fatal("an empty fold must export nil snapshots")
	}
	heat := &wd.HeatmapSnapshot{Banks: 1, Regions: 1, Cells: [][]wd.HeatCell{{{Injected: 2}}}}
	sw.PointDone(withMetrics(600, 5, heat))
	sw.PointDone(withMetrics(600, 0, heat))
	sw.PointDone(runner.PointEvent{Total: 2, Err: errors.New("boom")})

	m := sw.Metrics()
	if len(m.Events) != 0 || m.EventsDropped != 1205 || m.Counters[0].Value != 6 {
		t.Fatalf("Metrics = %d events, %d dropped, counters %+v; want the tail-free merge",
			len(m.Events), m.EventsDropped, m.Counters)
	}
	live := sw.Live()
	if len(live.Events) != eventRingCap || live.EventsDropped != 5+(1200-eventRingCap) {
		t.Fatalf("Live = %d events, %d dropped; want %d and %d",
			len(live.Events), live.EventsDropped, eventRingCap, 5+(1200-eventRingCap))
	}
	if last := live.Events[len(live.Events)-1].Seq; last != 599 {
		t.Fatalf("ring tail ends at seq %d, want the newest event (599)", last)
	}
	if live.Counters[0].Value != 6 {
		t.Fatalf("Live counters %+v, want the merged aggregate", live.Counters)
	}
	h := sw.Heatmap()
	if got := h.Total(func(c wd.HeatCell) uint64 { return c.Injected }); got != 4 {
		t.Fatalf("merged heatmap injected = %d, want 4", got)
	}
	// The export is a copy: later points must not write into it.
	sw.PointDone(withMetrics(0, 0, heat))
	if got := h.Total(func(c wd.HeatCell) uint64 { return c.Injected }); got != 4 {
		t.Fatalf("exported heatmap changed to %d after a later point", got)
	}
}

// TestSweepConcurrentReaders: HTTP readers export while the runner folds
// points; under -race, every export must be safe to read in full.
func TestSweepConcurrentReaders(t *testing.T) {
	sw := &Sweep{}
	heat := &wd.HeatmapSnapshot{Banks: 1, Regions: 1, Cells: [][]wd.HeatCell{{{Injected: 1}}}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = sw.Progress()
				for _, sn := range []*metrics.Snapshot{sw.Metrics(), sw.Live()} {
					if sn != nil {
						_ = sn.Counters[0].Value + uint64(len(sn.Events))
					}
				}
				_ = sw.Heatmap().Total(func(c wd.HeatCell) uint64 { return c.Injected })
			}
		}()
	}
	for i := 0; i < 200; i++ {
		sw.PointDone(withMetrics(8, 0, heat))
	}
	close(stop)
	wg.Wait()
	if p := sw.Progress(); p.PointsDone != 200 || p.PointsSimulated() != 200 {
		t.Fatalf("progress = %+v, want 200 simulated points", p)
	}
}
