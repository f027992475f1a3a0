package sim

import (
	"sdpcm/internal/alloc"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/wd"
)

// bankPlane is the per-bank decomposition of a run's memory-system state:
// one mc.Controller per PCM bank, each with its own ECP table, policy
// instances, disturbance engine (on a labeled per-bank RNG stream) and — when
// collection is on — its own metrics registry and event ring. The device and
// heatmap are shared, but their mutable state is bank-sharded internally
// (per-bank stat counters and storage arenas; bank-major heatmap cells), so
// controllers driving disjoint banks never write the same memory.
//
// The decomposition is exact, not approximate: banks are serially-busy
// independent resources and write disturbance only couples physically
// adjacent rows within one bank (rows r±1 of the same bank), so per-bank
// state machines fed the same per-bank op sequences produce identical state
// regardless of how banks are grouped onto goroutines. Aggregate results are
// folded in fixed bank order 0..Banks-1. One plane covers one module; a
// multi-module topology builds one plane per module over that module's
// device geometry.
type bankPlane struct {
	dev   *pcm.Device
	geo   pcm.Geometry
	ctrls []*mc.Controller
	regs  []*metrics.Registry // nil entries when collection is off
	hm    *wd.Heatmap         // nil when disabled; shared, bank-disjoint cells

	traceCap int
}

// newBankPlane builds the per-bank controllers over the device's bank
// geometry. mcCfg produces a fresh controller configuration per bank (policy
// values are stateful and must not be shared); bankRngs must hold one labeled
// stream per bank (module root "mc" → "bank-<b>"); resolve supplies each
// bank's RegionResolver — the live allocator for single-goroutine execution,
// a versioned tag mirror for shard goroutines.
func newBankPlane(cfg Config, dev *pcm.Device, mcCfg func() mc.Config, resolve func(bank int) mc.RegionResolver, bankRngs []*rng.Rand) (*bankPlane, error) {
	p := &bankPlane{
		dev:      dev,
		geo:      dev.Geometry(),
		ctrls:    make([]*mc.Controller, dev.Banks()),
		regs:     make([]*metrics.Registry, dev.Banks()),
		traceCap: cfg.TraceEvents,
	}
	if cfg.HeatmapRegions > 0 {
		p.hm = wd.NewHeatmapGeo(cfg.HeatmapRegions, dev.RowsPerBank, dev.Geometry())
	}
	collect := cfg.CollectMetrics || cfg.TraceEvents > 0 || cfg.SnapshotInterval > 0
	for b := range p.ctrls {
		ctrl, err := mc.New(mcCfg(), dev, resolve(b), bankRngs[b])
		if err != nil {
			return nil, err
		}
		if collect {
			reg := metrics.New()
			reg.EnableTrace(cfg.TraceEvents)
			ctrl.Instrument(reg)
			p.regs[b] = reg
		}
		if p.hm != nil {
			ctrl.InstrumentHeatmap(p.hm)
		}
		p.ctrls[b] = ctrl
	}
	return p, nil
}

// bankOf returns the bank a line address belongs to under the plane's
// geometry.
func (p *bankPlane) bankOf(a pcm.LineAddr) int { return p.geo.Locate(a).Bank }

// ctrlFor returns the controller owning a line address.
func (p *bankPlane) ctrlFor(a pcm.LineAddr) *mc.Controller { return p.ctrls[p.bankOf(a)] }

// collecting reports whether metric registries are attached.
func (p *bankPlane) collecting() bool { return p.regs[0] != nil }

// mergedStats folds the per-bank module counters in bank order. Only valid
// when no shard goroutine is active (quiesced or joined).
func (p *bankPlane) mergedStats() (mcS mc.Stats, devS pcm.Stats, ecpS ecp.Stats, wdS wd.Stats) {
	for b := range p.ctrls {
		mcS.Add(p.ctrls[b].Stats)
		ecpS.Add(p.ctrls[b].ECP().Stats)
		wdS.Add(p.ctrls[b].Engine().Stats)
	}
	devS = p.dev.Stats()
	return
}

// simCounters is the orchestrator-side contribution to a snapshot.
type simCounters struct {
	cycles       uint64
	instructions uint64
	tlbMisses    uint64
	pageFaults   uint64
	wearMoves    uint64
}

// assembleSnapshot builds a metrics snapshot from the quiesced plane: module
// stats are rendered into a scratch registry, merged with every bank
// registry's histograms, and the per-bank event-ring tails are combined into
// one canonical bounded tail. The result is a pure function of per-bank
// state, so it is byte-identical across shard counts.
func (p *bankPlane) assembleSnapshot(sc simCounters) *metrics.Snapshot {
	tmp := metrics.New()
	mcS, devS, ecpS, wdS := p.mergedStats()
	mcS.Publish(tmp)
	devS.Publish(tmp)
	ecpS.Publish(tmp)
	wdS.Publish(tmp)
	tmp.Counter("sim.instructions").Add(sc.instructions)
	tmp.Counter("sim.tlb_misses").Add(sc.tlbMisses)
	tmp.Counter("sim.page_faults").Add(sc.pageFaults)
	tmp.Counter("sim.wear_moves").Add(sc.wearMoves)
	tmp.Gauge("sim.cycles").Set(sc.cycles)
	s := tmp.Snapshot()
	var tails [][]metrics.Event
	var dropped []uint64
	for b := range p.regs {
		bs := p.regs[b].Snapshot()
		if p.traceCap > 0 {
			tails = append(tails, bs.Events)
			dropped = append(dropped, bs.EventsDropped)
		}
		s = s.Merge(bs)
	}
	if p.traceCap > 0 {
		s.Events, s.EventsDropped = metrics.MergeEventTails(p.traceCap, tails, dropped)
	} else {
		s.Events, s.EventsDropped = nil, 0
	}
	return s
}

// flushAll drains every controller completely and returns the cycle all work
// finishes, combining per-bank controllers exactly as one controller would:
// queue work ends at the max over banks, and the policies' volatile drain
// buffers are conservatively serialised after it (summed, as the single
// controller's DrainFlush summed its banks).
func (p *bankPlane) flushAll(now uint64) uint64 {
	var end, drain uint64
	end = now
	for b := range p.ctrls {
		e, d := p.ctrls[b].FlushParts(now)
		end = max(end, e)
		drain += d
	}
	return end + drain
}

// tagMirror is a RegionResolver fed by in-band ownership updates: the
// orchestrator broadcasts every allocator owner-map mutation into each
// shard's op stream, so a shard resolving a page's (n:m) tag sees exactly
// the allocator state at the moment the op was issued — which is when the
// live allocator would have been consulted on one goroutine.
type tagMirror struct {
	regionPages int
	stripPages  int
	strips      int
	owner       []alloc.Tag // by region number; the zero Tag = unowned
}

func newTagMirror(a *alloc.Allocator) *tagMirror {
	return &tagMirror{
		regionPages: a.RegionPages(),
		stripPages:  a.StripPages(),
		strips:      a.StripsPerRegion(),
		owner:       make([]alloc.Tag, a.TotalPages()/a.RegionPages()),
	}
}

func (m *tagMirror) RegionTag(p pcm.PageAddr) alloc.Tag {
	if r := uint64(p) / uint64(m.regionPages); r < uint64(len(m.owner)) && m.owner[r] != (alloc.Tag{}) {
		return m.owner[r]
	}
	return alloc.Tag11
}

func (m *tagMirror) StripIndexInRegion(p pcm.PageAddr) int {
	return (int(p) % m.regionPages) / m.stripPages
}

func (m *tagMirror) StripsPerRegion() int { return m.strips }

func (m *tagMirror) apply(regionStart int, t alloc.Tag, present bool) {
	if !present {
		t = alloc.Tag{}
	}
	m.owner[regionStart/m.regionPages] = t
}
