package sim

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/core"
	"sdpcm/internal/ecp"
	"sdpcm/internal/mc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/topo"
	"sdpcm/internal/wd"
)

// ModuleResult is one module's share of a multi-module run.
type ModuleResult struct {
	// Name, Scheme, Banks, Pages and LinkCycles echo the resolved topology
	// placement (Scheme is the run scheme's name when the module inherited
	// it).
	Name       string
	Scheme     string
	Banks      int
	Pages      int
	LinkCycles int

	MC  mc.Stats
	Dev pcm.Stats
	ECP ecp.Stats
	WD  wd.Stats
}

// CorrectionsPerWrite is the Figure 12 metric restricted to one module.
func (m ModuleResult) CorrectionsPerWrite() float64 {
	if m.MC.WriteOps == 0 {
		return 0
	}
	return float64(m.MC.CorrectionWrites) / float64(m.MC.WriteOps)
}

// moduleRun bundles one module's live machinery: its own device (p.dev),
// buddy allocator (strip width = the module's bank count), per-bank
// controllers and executor. Addresses handed to a module's executor are
// module-local — the address-range router assigns each core to one module
// and its address space allocates module-local frames, so no global
// translation exists on the hot path. The default topology is a single
// moduleRun: 16 banks holding all of memory, link latency 0.
type moduleRun struct {
	pl      topo.Placement
	scheme  core.Scheme
	link    uint64
	alloc   *alloc.Allocator
	p       *bankPlane
	exec    bankExec
	mirrors []*tagMirror
}

// placements resolves the run's topology into module placements. The
// default topology is one 16-bank module over all MemPages; any other spec
// is validated against the scheme registry and laid out by topo.Resolve.
func (c Config) placements() ([]topo.Placement, error) {
	if c.Topology.IsDefault() {
		return []topo.Placement{{Module: topo.Module{
			Name: "m0", Banks: topo.DefaultBanks, Pages: c.MemPages, RegionPages: c.RegionPages,
		}}}, nil
	}
	if err := c.Topology.Validate(schemeKnown); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if c.WearLevelPsi > 0 {
		return nil, fmt.Errorf("sim: intra-row wear leveling is not supported under a multi-module topology")
	}
	placements, err := c.Topology.Resolve(c.MemPages, c.RegionPages)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return placements, nil
}

// moduleTiming builds the module's device timing: the Table 2 defaults with
// any per-module overrides applied.
func moduleTiming(m topo.Module) pcm.Timing {
	t := pcm.DefaultTiming
	if m.ReadCycles > 0 {
		t.ReadCycles = m.ReadCycles
	}
	if m.SetCycles > 0 {
		t.SetCycles = m.SetCycles
	}
	if m.ResetCycles > 0 {
		t.ResetCycles = m.ResetCycles
	}
	if m.ParallelBits > 0 {
		t.ParallelBits = m.ParallelBits
	}
	return t
}

// schemeKnown is the topo.Spec.Validate lookup backed by the live scheme
// registry.
func schemeKnown(name string) bool {
	_, err := core.ByName(name, 0)
	return err == nil
}

// newModuleRun constructs one module from its placement. sub is the
// module's labeled RNG subtree: its "fill" child seeds the device
// background and its "mc" child seeds the per-bank streams, so a bank's
// disturbance draws depend only on (seed, module, bank, that bank's op
// sequence) — never on global call order — which is what makes results
// shard-count invariant. Errors are returned unwrapped; Run names the
// module.
func newModuleRun(cfg Config, pl topo.Placement, sub *rng.Rand) (*moduleRun, error) {
	scheme := cfg.Scheme
	if pl.Scheme != "" {
		s, err := core.ByName(pl.Scheme, pl.ECPEntries)
		if err != nil {
			return nil, err
		}
		scheme = s
	}
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	timing := moduleTiming(pl.Module)
	dev, err := pcm.NewDevice(pcm.Config{
		Pages:    pl.Pages,
		Banks:    pl.Banks,
		Timing:   timing,
		FillSeed: sub.SplitLabeled("fill").Uint64(),
	})
	if err != nil {
		return nil, err
	}
	allocator, err := alloc.NewWithStrip(pl.Pages, pl.RegionPages, pl.Banks)
	if err != nil {
		return nil, err
	}
	bankRngs := sub.SplitLabeled("mc").SplitLabeledSeq("bank", pl.Banks)

	shards := cfg.Shards
	if shards > pl.Banks {
		shards = pl.Banks
	}
	m := &moduleRun{pl: pl, scheme: scheme, link: uint64(pl.LinkCycles), alloc: allocator}
	resolve := func(bank int) mc.RegionResolver { return allocator }
	if shards > 1 {
		m.mirrors = make([]*tagMirror, shards)
		for s := range m.mirrors {
			m.mirrors[s] = newTagMirror(allocator)
		}
		resolve = func(bank int) mc.RegionResolver { return m.mirrors[bank%shards] }
	}
	mcCfg := func() mc.Config {
		c := scheme.MCConfig(cfg.WriteQueueCap)
		c.Timing = timing
		if pl.WordLineRate > 0 {
			c.Rates.WordLine = pl.WordLineRate
		}
		if pl.BitLineRate > 0 {
			c.Rates.BitLine = pl.BitLineRate
		}
		return c
	}
	m.p, err = newBankPlane(cfg, dev, mcCfg, resolve, bankRngs)
	if err != nil {
		return nil, err
	}
	m.exec = m.p
	if shards > 1 {
		se := newShardExec(m.p, m.mirrors, cfg.collecting(), windowMax)
		allocator.OnOwnerChange = se.ownerChange
		m.exec = se
	}
	return m, nil
}

// stackHeatmaps concatenates the per-module heatmaps bank-major in module
// order: global bank b is module m's bank b - sum(banks of modules before
// m). Nil when heatmaps are disabled.
func stackHeatmaps(mods []*moduleRun) *wd.HeatmapSnapshot {
	var out *wd.HeatmapSnapshot
	for _, m := range mods {
		s := m.p.hm.Snapshot()
		if s == nil {
			continue
		}
		if out == nil {
			out = &wd.HeatmapSnapshot{}
		}
		out.Banks += s.Banks
		if s.Regions > out.Regions {
			out.Regions = s.Regions
		}
		out.Cells = append(out.Cells, s.Cells...)
	}
	return out
}

// simCounters is the orchestrator-side contribution to a snapshot.
type simCounters struct {
	cycles       uint64
	instructions uint64
	tlbMisses    uint64
	pageFaults   uint64
	wearMoves    uint64
}

// assembleSnapshot builds a metrics snapshot from the quiesced modules:
// module stats are summed and rendered into a scratch registry, every
// module's per-bank registries merge in module-major, bank-minor order, and
// the per-bank event-ring tails combine into one canonical bounded tail.
// The result is a pure function of per-bank state, so it is byte-identical
// across shard counts.
func assembleSnapshot(mods []*moduleRun, traceCap int, sc simCounters) *metrics.Snapshot {
	tmp := metrics.New()
	var mcS mc.Stats
	var devS pcm.Stats
	var ecpS ecp.Stats
	var wdS wd.Stats
	for _, m := range mods {
		a, b, c, d := m.p.mergedStats()
		mcS.Add(a)
		devS.Add(b)
		ecpS.Add(c)
		wdS.Add(d)
	}
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
	for _, m := range mods {
		for b := range m.p.regs {
			bs := m.p.regs[b].Snapshot()
			if traceCap > 0 {
				tails = append(tails, bs.Events)
				dropped = append(dropped, bs.EventsDropped)
			}
			s = s.Merge(bs)
		}
	}
	if traceCap > 0 {
		s.Events, s.EventsDropped = metrics.MergeEventTails(traceCap, tails, dropped)
	} else {
		s.Events, s.EventsDropped = nil, 0
	}
	return s
}
