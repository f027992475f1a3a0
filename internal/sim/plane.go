package sim

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/wd"
	"sdpcm/internal/workload"
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
// folded in fixed bank order 0..Banks-1. One plane covers one module; every
// run builds one plane per module over that module's device geometry.
//
// The plane applies the per-op work (read, write, copyLine) for every
// executor, and is itself the inline executor (Config.Shards <= 1): ops run
// at issue time on the calling goroutine, so its controllers resolve (n:m)
// tags through the live allocator, whose state at issue time is exactly
// what a shard's tag mirror would hold.
type bankPlane struct {
	dev   *pcm.Device
	geo   pcm.Geometry
	ctrls []*mc.Controller
	regs  []*metrics.Registry // nil entries when collection is off
	hm    *wd.Heatmap         // nil when disabled; shared, bank-disjoint cells
	// shadow is the integrity shadow (Config.CheckIntegrity): the data the
	// cores last wrote to each line, one map per bank, keyed by logical
	// (pre-wear-leveling) address. Start-Gap rotates a line within its row,
	// so a logical address and its remapped slot share a bank, and each map
	// is touched only by the goroutine that owns that bank. Nil when
	// integrity checking is off.
	shadow []map[pcm.LineAddr]pcm.Line
}

// newBankPlane builds the per-bank controllers over the device's bank
// geometry. mcCfg produces a fresh controller configuration per bank (policy
// values are stateful and must not be shared); bankRngs must hold one labeled
// stream per bank (module subtree "mc" → "bank-<b>"); resolve supplies each
// bank's RegionResolver — the live allocator for single-goroutine execution,
// a versioned tag mirror for shard goroutines.
func newBankPlane(cfg Config, dev *pcm.Device, mcCfg func() mc.Config, resolve func(bank int) mc.RegionResolver, bankRngs []*rng.Rand) (*bankPlane, error) {
	p := &bankPlane{
		dev:   dev,
		geo:   dev.Geometry(),
		ctrls: make([]*mc.Controller, dev.Banks()),
		regs:  make([]*metrics.Registry, dev.Banks()),
	}
	if cfg.HeatmapRegions > 0 {
		p.hm = wd.NewHeatmapGeo(cfg.HeatmapRegions, dev.RowsPerBank, dev.Geometry())
	}
	if cfg.CheckIntegrity {
		p.shadow = make([]map[pcm.LineAddr]pcm.Line, dev.Banks())
		for b := range p.shadow {
			p.shadow[b] = make(map[pcm.LineAddr]pcm.Line)
		}
	}
	for b := range p.ctrls {
		ctrl, err := mc.New(mcCfg(), dev, resolve(b), bankRngs[b])
		if err != nil {
			return nil, err
		}
		if cfg.collecting() {
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

// read performs a blocking demand read and returns its completion time.
// logical keys the integrity shadow; err reports a shadow mismatch. The
// read's data is built only for that check: it is the controller's
// LatestData right after the read (a write-queue miss before the read's
// catch-up stays a miss after it, because only a new write adds entries).
func (p *bankPlane) read(now uint64, addr, logical pcm.LineAddr) (uint64, error) {
	b := p.bankOf(addr)
	done := p.ctrls[b].Read(now, addr)
	if p.shadow != nil {
		if want, ok := p.shadow[b][logical]; ok && p.ctrls[b].LatestData(addr) != want {
			return done, fmt.Errorf("sim: integrity violation: read of line %d returned corrupted data", logical)
		}
	}
	return done, nil
}

// write posts a write of the pre-drawn mutation applied to the line's
// latest queued-or-stored content.
func (p *bankPlane) write(now uint64, addr, logical pcm.LineAddr, m workload.Mutation) {
	b := p.bankOf(addr)
	ctrl := p.ctrls[b]
	data := pcm.Line(m.Apply([8]uint64(ctrl.LatestData(addr))))
	ctrl.Write(now, addr, data)
	if p.shadow != nil {
		p.shadow[b][logical] = data
	}
}

// copyLine posts a Start-Gap line copy. from and to share a bank (Start-Gap
// rotates slots within a row), so LatestData(from) sees exactly the bank
// state program order implies.
func (p *bankPlane) copyLine(now uint64, from, to pcm.LineAddr) {
	ctrl := p.ctrlFor(to)
	ctrl.Write(now, to, ctrl.LatestData(from))
}

// As the inline executor the plane has no backlog: nothing to publish early,
// quiesce or join.
func (p *bankPlane) hintRead() {}
func (p *bankPlane) barrier()  {}
func (p *bankPlane) close()    {}

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
