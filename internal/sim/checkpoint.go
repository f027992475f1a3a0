package sim

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
	"sdpcm/internal/trace"
	"sdpcm/internal/weargap"
	"sdpcm/internal/workload"
)

// checkpointVersion and multiCheckpointVersion are the on-disk format
// versions of the two checkpoint containers. Default-topology runs write
// v1 files (section "sim.run"), topology runs write v2 files (section
// "sim.multi"); both carry the same per-module state through one codec,
// and a container mismatch surfaces as a snap.VersionError wrapped in
// ErrResume. Bump both whenever any module's EncodeState layout changes;
// old files then fail with a snap.VersionError instead of decoding
// garbage.
const (
	checkpointVersion      = 1
	multiCheckpointVersion = 2
)

var (
	// ErrResume marks a failure to load or validate a resume checkpoint.
	// The run can always be restarted cold instead — the sweep runner does
	// exactly that — so callers should treat it as "checkpoint unusable",
	// not "configuration broken".
	ErrResume = errors.New("sim: checkpoint resume failed")
	// ErrCheckpointUnsupported marks a configuration whose state cannot be
	// captured exactly: an opaque correction policy or word-line codec that
	// does not declare its state through mc.PolicyState / the codec state
	// surface. Checkpointing such a run would silently drop state and break
	// the identical-resume contract, so it is refused up front.
	ErrCheckpointUnsupported = errors.New("sim: configuration cannot be checkpointed")
)

// checkpointIdentity renders every behavior-affecting Config field into a
// canonical string stored in (and verified against) each checkpoint, so a
// file can never silently resume a different run. Shards is deliberately
// absent: results are shard-count invariant, and so are checkpoints — a
// Shards=1 checkpoint resumes under Shards=4 and vice versa.
func (c Config) checkpointIdentity(cores int) string {
	s := c.Scheme
	return fmt.Sprintf(
		"scheme=%s layout=%v lazy=%t preread=%t cancel=%t ecp=%d tag=%v noverify=%t nocorrect=%t enc=%q policy=%q hardfn=%t "+
			"mix=%s mixcores=%v streams=%d mutate=%g refs=%d mem=%d region=%d wq=%d seed=%d coretags=%v psi=%d "+
			"metrics=%t trace=%d heat=%d snap=%d integrity=%t cores=%d",
		s.Name, s.Layout, s.LazyCorrection, s.PreRead, s.WriteCancel, s.ECPEntries, s.Tag,
		s.NoVerifyCharge, s.NoCorrectCharge, s.Encoding, s.PolicyKey, s.HardErrorFn != nil,
		c.Mix.Name, c.Mix.Cores, len(c.Streams), c.MutateChunkProb, c.RefsPerCore, c.MemPages,
		c.RegionPages, c.WriteQueueCap, c.Seed, c.CoreTags, c.WearLevelPsi,
		c.CollectMetrics, c.TraceEvents, c.HeatmapRegions, c.SnapshotInterval, c.CheckIntegrity, cores)
}

// runState bundles the live structures of one Run invocation so the
// checkpoint encoder and the resume restorer see the same picture. The
// orchestrator owns it; encode and restore are only called with every
// module executor quiesced (post-barrier, or before the main loop), when
// per-bank state is exactly the inline state at this point in program
// order.
type runState struct {
	cfg   Config
	mods  []*moduleRun
	cores []*corePending
	h     *coreHeap
	wl    *weargap.IntraRow

	// totalRefs counts processed references in program order — one per
	// heap dispatch, identical across shard counts — and triggers
	// checkpoints at Config.CheckpointEvery boundaries.
	totalRefs uint64
	nextSnap  uint64
}

// topology reports whether the run uses a non-default topology and hence
// the v2 container.
func (s *runState) topology() bool { return !s.cfg.Topology.IsDefault() }

// container returns the checkpoint's format version and section name.
func (s *runState) container() (uint32, string) {
	if s.topology() {
		return multiCheckpointVersion, "sim.multi"
	}
	return checkpointVersion, "sim.run"
}

// identity is the configuration identity stored in the checkpoint. A
// topology run appends the canonical topology, so a checkpoint can never
// resume under a different module layout.
func (s *runState) identity() string {
	id := s.cfg.checkpointIdentity(len(s.cores))
	if s.topology() {
		id += " topo=" + s.cfg.Topology.Canon()
	}
	return id
}

// encodeCheckpoint serializes the complete simulator state: the shared
// core states first, then each module's device, controllers, heatmap,
// allocator, registries and integrity shadow in module order. The v2
// container records the module count; the v1 container has one module and
// carries the wear-leveling layer between its allocator and registries.
func (s *runState) encodeCheckpoint() []byte {
	version, section := s.container()
	e := snap.NewEncoder(version)
	e.Begin(section)
	e.String(s.identity())
	e.U64(s.totalRefs)
	e.U64(s.nextSnap)

	active := make([]bool, len(s.cores))
	for _, c := range *s.h {
		active[c.id] = true
	}
	replay := len(s.cfg.Streams) > 0
	e.Uvarint(uint64(len(s.cores)))
	for i, c := range s.cores {
		e.Bool(active[i])
		e.U64(c.time)
		e.Uvarint(uint64(c.refs))
		e.U64(c.instrs)
		if replay {
			// Replayed streams are fast-forwarded by record count on
			// resume; only the write-back mutator carries RNG state.
			c.mut.(*workload.Mutator).EncodeState(e)
		} else {
			c.mut.(*workload.Generator).EncodeState(e)
		}
		c.as.EncodeState(e)
	}

	if s.topology() {
		e.Uvarint(uint64(len(s.mods)))
	}
	for _, m := range s.mods {
		m.p.dev.EncodeState(e)
		for b := range m.p.ctrls {
			m.p.ctrls[b].EncodeState(e)
		}
		m.p.hm.EncodeState(e)
		m.alloc.EncodeState(e)
		if !s.topology() {
			e.Bool(s.wl != nil)
			if s.wl != nil {
				s.wl.EncodeState(e)
			}
		}
		for b := range m.p.regs {
			m.p.regs[b].EncodeState(e) // nil-safe: disabled registries encode as absent
		}
		e.Bool(s.cfg.CheckIntegrity)
		if s.cfg.CheckIntegrity {
			// One address-sorted list across the per-bank maps (each line
			// lives in exactly one), so the bytes are shard-count invariant.
			var addrs []pcm.LineAddr
			for _, sh := range m.p.shadow {
				for a := range sh {
					addrs = append(addrs, a)
				}
			}
			slices.Sort(addrs)
			e.Uvarint(uint64(len(addrs)))
			for _, a := range addrs {
				e.U64(uint64(a))
				pcm.EncodeLine(e, m.p.shadow[m.p.bankOf(a)][a])
			}
		}
	}
	e.End()
	return e.Finish()
}

// writeCheckpoint publishes a checkpoint atomically: a kill at any instant
// leaves either the previous complete file or the new one, never a torn
// write, because the content lands under a temporary name first and the
// rename is atomic on POSIX filesystems.
func writeCheckpoint(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("sim: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("sim: publishing checkpoint: %w", err)
	}
	return nil
}

func resumeErr(err error) error { return fmt.Errorf("%w: %w", ErrResume, err) }

// restoreCheckpoint loads a checkpoint into the freshly constructed run and
// returns each core's heap-membership flag. Setup (seeding, construction,
// instrument registration) has already re-run deterministically from
// Config, so only mutable state is overwritten here. All failures wrap
// ErrResume; the caller can fall back to a cold start.
func (s *runState) restoreCheckpoint(path string) ([]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, resumeErr(err)
	}
	version, section := s.container()
	d, err := snap.NewDecoder(data, version)
	if err != nil {
		return nil, resumeErr(err)
	}
	d.Begin(section)
	if id := d.String(); d.Err() == nil && id != s.identity() {
		return nil, resumeErr(fmt.Errorf("checkpoint belongs to a different configuration:\n  theirs: %s\n  ours:   %s",
			id, s.identity()))
	}
	s.totalRefs = d.U64()
	s.nextSnap = d.U64()

	if n := d.Uvarint(); d.Err() == nil && n != uint64(len(s.cores)) {
		return nil, resumeErr(fmt.Errorf("checkpoint has %d cores, this run has %d", n, len(s.cores)))
	}
	active := make([]bool, len(s.cores))
	replay := len(s.cfg.Streams) > 0
	for i, c := range s.cores {
		active[i] = d.Bool()
		c.time = d.U64()
		c.refs = int(d.Uvarint())
		c.instrs = d.U64()
		if replay {
			err = c.mut.(*workload.Mutator).DecodeState(d)
		} else {
			err = c.mut.(*workload.Generator).DecodeState(d)
		}
		if err != nil {
			return nil, resumeErr(err)
		}
		if err := c.as.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
	}

	if s.topology() {
		if n := d.Uvarint(); d.Err() == nil && n != uint64(len(s.mods)) {
			return nil, resumeErr(fmt.Errorf("checkpoint has %d modules, this run has %d", n, len(s.mods)))
		}
	}
	for _, m := range s.mods {
		if err := m.p.dev.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
		for b := range m.p.ctrls {
			if err := m.p.ctrls[b].DecodeState(d); err != nil {
				return nil, resumeErr(err)
			}
		}
		if err := m.p.hm.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
		if err := m.alloc.DecodeState(d); err != nil {
			return nil, resumeErr(err)
		}
		if !s.topology() {
			hasWL := d.Bool()
			if d.Err() == nil && hasWL != (s.wl != nil) {
				return nil, resumeErr(fmt.Errorf("checkpoint wear-leveling presence %t does not match this run's %t", hasWL, s.wl != nil))
			}
			if hasWL {
				if err := s.wl.DecodeState(d); err != nil {
					return nil, resumeErr(err)
				}
			}
		}
		for b := range m.p.regs {
			if err := m.p.regs[b].DecodeState(d); err != nil {
				return nil, resumeErr(err)
			}
		}
		hasShadow := d.Bool()
		if d.Err() == nil && hasShadow != s.cfg.CheckIntegrity {
			return nil, resumeErr(fmt.Errorf("checkpoint integrity-shadow presence %t does not match this run's %t", hasShadow, s.cfg.CheckIntegrity))
		}
		if hasShadow {
			// Direct writes into the per-bank maps are safe here: restore
			// runs before the main loop posts any op, and the first batch
			// publication orders these writes before all worker reads.
			n := d.Uvarint()
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				a := pcm.LineAddr(d.U64())
				m.p.shadow[m.p.bankOf(a)][a] = pcm.DecodeLine(d)
			}
		}
	}
	d.End()
	if err := d.Close(); err != nil {
		return nil, resumeErr(err)
	}

	// Re-sync each module's shard tag mirrors with its restored region
	// ownership — DecodeState deliberately does not replay OnOwnerChange
	// events.
	for _, m := range s.mods {
		for _, mir := range m.mirrors {
			for r := 0; r < m.pl.Pages; r += m.pl.RegionPages {
				if t := m.alloc.RegionTag(pcm.PageAddr(r)); t != alloc.Tag11 {
					mir.apply(r, t, true)
				}
			}
		}
	}

	// Caller-provided trace streams carry no serializable state; their
	// position is exactly the number of records this core consumed.
	if replay {
		for _, c := range s.cores {
			if err := fastForward(c.stream, c.refs); err != nil {
				return nil, resumeErr(fmt.Errorf("core %d: %w", c.id, err))
			}
		}
	}
	return active, nil
}

// skipper is the optional fast-path for stream fast-forwarding; the
// trace.StreamReader and trace.SliceStream implement it.
type skipper interface {
	Skip(n int) (int, error)
}

func fastForward(s trace.Stream, n int) error {
	if n == 0 {
		return nil
	}
	if sk, ok := s.(skipper); ok {
		m, err := sk.Skip(n)
		if err != nil {
			return err
		}
		if m != n {
			return fmt.Errorf("sim: stream ended after %d of %d replayed records", m, n)
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if _, ok := s.Next(); !ok {
			return fmt.Errorf("sim: stream ended after %d of %d replayed records", i, n)
		}
	}
	return nil
}
