package obs

import (
	"sync"
	"time"

	"sdpcm/internal/metrics"
	"sdpcm/internal/runner"
	"sdpcm/internal/wd"
)

// ewmaAlpha weights the newest inter-point interval in the rate estimate:
// high enough to track a sweep speeding up as cache hits kick in, low
// enough that one slow point does not swing the ETA.
const ewmaAlpha = 0.2

// eventRingCap bounds the live typed-event ring: the per-point tails
// concatenate here, and overflow counts as dropped.
const eventRingCap = 1024

// ExperimentProgress is one experiment's (or anonymous sweep's) tally.
type ExperimentProgress struct {
	Name string `json:"name"`
	// Total is the point count of the experiment's largest Run call — an
	// upper bound on what remains when a figure issues several sweeps.
	Total int `json:"total"`
	// Done counts completed points. Each lands in exactly one of Errored,
	// Stored, Cached or (the remainder) simulated, classified in that order.
	Done    int `json:"done"`
	Cached  int `json:"cached"`
	Stored  int `json:"stored"`
	Errored int `json:"errored"`
}

// Simulated counts the section's points that ran sim.Run successfully.
func (e ExperimentProgress) Simulated() int { return e.Done - e.Cached - e.Stored - e.Errored }

// ProgressSnapshot is the /progress JSON payload.
type ProgressSnapshot struct {
	// Experiments lists every section in Begin order; the last entry is the
	// one currently executing.
	Experiments []ExperimentProgress `json:"experiments"`
	// PointsDone / PointsCached / PointsStored / PointsErrored tally the
	// whole invocation, classified as ExperimentProgress is; Stored counts
	// points answered by the durable result store without simulating.
	PointsDone    int `json:"points_done"`
	PointsCached  int `json:"points_cached"`
	PointsStored  int `json:"points_stored"`
	PointsErrored int `json:"points_errored"`
	// RatePerSec is the EWMA point completion rate.
	RatePerSec float64 `json:"rate_per_sec"`
	// ETASeconds estimates time to finish the current experiment section
	// (remaining points / rate); 0 when idle or unknown.
	ETASeconds float64 `json:"eta_seconds"`
	// ElapsedSeconds is wall time since the tracker saw its first event (or
	// Begin call).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// PointsSimulated counts the invocation's points that ran sim.Run
// successfully.
func (p ProgressSnapshot) PointsSimulated() int {
	return p.PointsDone - p.PointsCached - p.PointsStored - p.PointsErrored
}

// Sweep is the one fold of a sweep's point events. It implements
// runner.Observer and keeps:
//
//   - progress sections (Begin / Progress), with an EWMA rate and ETA;
//   - the deterministic merged metrics snapshot (Metrics): Snapshot.Merge
//     over every successful point, no event tail, identical at any worker
//     count or completion order;
//   - the merged WD heatmap (Heatmap);
//   - a bounded ring of the points' typed events, in completion order, for
//     live views only (Live).
//
// Safe for concurrent use: the Runner serializes PointDone calls, but
// readers arrive on their own goroutines. The zero value is ready to use.
type Sweep struct {
	mu       sync.Mutex
	now      func() time.Time // test hook; time.Now when nil
	start    time.Time
	lastDone time.Time
	rate     float64 // EWMA points/sec
	all      ExperimentProgress
	exps     []ExperimentProgress
	merged   *metrics.Snapshot
	heat     *wd.HeatmapSnapshot
	events   []metrics.Event
	dropped  uint64
}

func (s *Sweep) clock() time.Time {
	if s.now != nil {
		return s.now()
	}
	return time.Now()
}

// Begin opens a new experiment section; subsequent point completions tally
// against it. Without a Begin call, events fall into an anonymous "sweep"
// section.
func (s *Sweep) Begin(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.start.IsZero() {
		s.start = s.clock()
	}
	s.exps = append(s.exps, ExperimentProgress{Name: name})
}

// count classifies one point into e: error, stored, cached, else simulated.
// A waiter coalesced onto a failed owner reports both Cached and Err; it
// counts once, as an error.
func (e *ExperimentProgress) count(ev runner.PointEvent) {
	e.Done++
	switch {
	case ev.Err != nil:
		e.Errored++
	case ev.Stored:
		e.Stored++
	case ev.Cached:
		e.Cached++
	}
}

// PointDone implements runner.Observer.
func (s *Sweep) PointDone(ev runner.PointEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.clock()
	if s.start.IsZero() {
		s.start = t
	}
	if len(s.exps) == 0 {
		s.exps = append(s.exps, ExperimentProgress{Name: "sweep"})
	}
	cur := &s.exps[len(s.exps)-1]
	cur.Total = max(cur.Total, ev.Total)
	cur.count(ev)
	s.all.count(ev)
	// EWMA over inter-completion intervals. Cached points land in bursts;
	// the floor keeps a zero interval from producing an infinite rate.
	ref := s.lastDone
	if ref.IsZero() {
		ref = s.start
	}
	inst := 1 / max(t.Sub(ref).Seconds(), 1e-6)
	if s.rate == 0 {
		s.rate = inst
	} else {
		s.rate = ewmaAlpha*inst + (1-ewmaAlpha)*s.rate
	}
	s.lastDone = t

	if ev.Err != nil || ev.Result == nil {
		return
	}
	s.heat = s.heat.Merge(ev.Result.Heatmap)
	if m := ev.Result.Metrics; m != nil {
		s.merged = s.merged.Merge(m)
		s.dropped += m.EventsDropped
		s.events = append(s.events, m.Events...)
		if over := len(s.events) - eventRingCap; over > 0 {
			s.dropped += uint64(over)
			s.events = append(s.events[:0:0], s.events[over:]...)
		}
	}
}

// Progress exports the progress sections and invocation totals.
func (s *Sweep) Progress() ProgressSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := ProgressSnapshot{
		Experiments:   append([]ExperimentProgress(nil), s.exps...),
		PointsDone:    s.all.Done,
		PointsCached:  s.all.Cached,
		PointsStored:  s.all.Stored,
		PointsErrored: s.all.Errored,
		RatePerSec:    s.rate,
	}
	if !s.start.IsZero() {
		p.ElapsedSeconds = s.clock().Sub(s.start).Seconds()
	}
	if n := len(s.exps); n > 0 && s.rate > 0 {
		if remaining := s.exps[n-1].Total - s.exps[n-1].Done; remaining > 0 {
			p.ETASeconds = float64(remaining) / s.rate
		}
	}
	return p
}

// Metrics returns the deterministic merged snapshot (nil before the first
// point with metrics). Its event tail is empty; EventsDropped counts every
// per-point event the merge discarded, as Snapshot.Merge does.
func (s *Sweep) Metrics() *metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merged == nil {
		return nil
	}
	// A shallow copy suffices: Merge builds fresh slices for the next
	// aggregate, so the returned ones are never written again.
	cp := *s.merged
	return &cp
}

// Live returns the merged snapshot with the bounded event ring as its tail —
// the shape /metrics and /events render mid-run. Unlike Metrics it depends
// on completion order. Nil before any point carried metrics.
func (s *Sweep) Live() *metrics.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merged == nil {
		return nil
	}
	sn := *s.merged
	sn.Events = append([]metrics.Event(nil), s.events...)
	sn.EventsDropped = s.dropped
	return &sn
}

// Heatmap returns a copy of the merged WD heatmap (nil when not enabled or
// before the first point); the fold keeps merging into its own.
func (s *Sweep) Heatmap() *wd.HeatmapSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return (*wd.HeatmapSnapshot)(nil).Merge(s.heat)
}
