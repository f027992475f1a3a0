package pcm

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Timing holds the PCM access latencies of Table 2, in CPU cycles (4 GHz:
// 100 ns read = 400 cycles, 200 ns SET = 800 cycles, 100 ns RESET = 400).
type Timing struct {
	ReadCycles   int
	ResetCycles  int
	SetCycles    int
	ParallelBits int // write-driver width (128 in Table 2)
}

// DefaultTiming is the Table 2 configuration.
var DefaultTiming = Timing{
	ReadCycles:   400,
	ResetCycles:  400,
	SetCycles:    800,
	ParallelBits: ParallelWriteBits,
}

// WriteCycles returns the bank-occupancy time of programming the given
// number of RESET and SET cells. The write drivers program ParallelBits
// cells per round with per-cell pulse shaping (Table 2: "128-bit parallel
// write"), so a round mixing both pulse classes lasts as long as its
// longest pulse — the 200 ns SET. RESET-only rounds finish in 100 ns. A
// write that changes nothing still occupies the bank for one RESET slot
// (row activation and drive setup).
func (t Timing) WriteCycles(nReset, nSet int) int {
	total := nReset + nSet
	if total == 0 {
		return t.ResetCycles
	}
	rounds := (total + t.ParallelBits - 1) / t.ParallelBits
	if nSet > 0 {
		return rounds * t.SetCycles
	}
	return rounds * t.ResetCycles
}

// WriteKind classifies device writes for wear accounting.
type WriteKind int

const (
	// NormalWrite is a demand write from the memory controller.
	NormalWrite WriteKind = iota
	// CorrectionWrite rewrites a neighbour line to clear WD errors (§4.2).
	CorrectionWrite
)

// Stats aggregates device activity; all counters are cumulative.
type Stats struct {
	Reads  uint64 // line reads (demand + verification + pre-reads)
	Writes uint64 // line write operations

	ResetPulses uint64 // total cells driven by RESET across all writes
	SetPulses   uint64 // total cells driven by SET across all writes

	CorrectionWrites      uint64 // writes with kind CorrectionWrite
	CorrectionResetPulses uint64 // RESET pulses spent on corrections

	DisturbedBits uint64 // cells flipped by write disturbance
}

// CellWrites returns the total number of programmed cells (wear proxy).
func (s Stats) CellWrites() uint64 { return s.ResetPulses + s.SetPulses }

// Add accumulates another Stats value; all fields are additive, so folding
// per-bank shards in bank order is equivalent to a single global counter.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ResetPulses += o.ResetPulses
	s.SetPulses += o.SetPulses
	s.CorrectionWrites += o.CorrectionWrites
	s.CorrectionResetPulses += o.CorrectionResetPulses
	s.DisturbedBits += o.DisturbedBits
}

// bankStats pads one bank's counters to a full cache line so shard
// goroutines updating different banks never contend on a shared line.
type bankStats struct {
	Stats
	_ [64 - (8*7)%64]byte
}

// chunkLines is the number of lines in one lazily materialized storage
// chunk. 16 lines (1 KB of cell data) balances dense-access locality
// against the zeroing cost of materializing a chunk for workloads that
// touch rows sparsely; profiles of sim.Run showed 64-line chunks spending
// more on memclr than the indexed access path saved.
const (
	chunkLines = 16
	chunkShift = 4
	chunkMask  = chunkLines - 1
)

// Side is the controller-side state of one line, kept beside its cells in
// the line's chunk rather than in a table keyed by address: the word-line
// codec's polarity word and the line's ECP record. Both are plain words, so
// chunks stay pointer-free and side state costs no allocation of its own.
type Side struct {
	Aux uint32 // word-line codec polarity bits (bit g set = group g inverted)
	ECP uint32 // 1 + the line's record index in its ECP table; 0 = none
}

// lineChunk is one dense block of bank-local line storage. Lines are filled
// with their background pattern on first touch, tracked per line in the
// resident bitmap — materializing a chunk is a single zeroed allocation, so
// sparse access patterns never pay for background content they don't read.
type lineChunk struct {
	// resident bit i set: lines[i] holds device content. Clear: the line is
	// still untouched and reads as its background pattern.
	resident uint64
	// side sits beside the residency bitmap every access reads, so a
	// line's side word is usually in a cache line already loaded.
	side  [chunkLines]Side
	lines [chunkLines]Line
}

// Device is one PCM DIMM's worth of data cell arrays. Storage is a per-bank
// two-level dense store: each bank owns a table of fixed-size line chunks,
// materialized (and filled with the deterministic background pattern) on
// first write or disturbance. Untouched chunks stay nil — Peek computes the
// background lazily — so disturbance vulnerability of untouched neighbours
// is modelled without materialising the full capacity, while every access to
// touched storage is plain array indexing with zero allocation. Each chunk
// also carries its lines' controller side state (Side), so per-line codec
// and ECP state needs no table of its own.
//
// Bank-local layout: line a lives in bank Locate(a).Bank at local index
// row*LinesPerPage+slot, so physically adjacent rows (the bit-line WD
// victims, rows r±1) are LinesPerPage local lines apart and land in the
// same or a neighbouring chunk.
//
// Device is purely functional/data-level; command timing and scheduling live
// in the memory controller (internal/mc).
type Device struct {
	RowsPerBank int
	Timing      Timing

	geo Geometry

	// stats is sharded per bank (cache-line padded) so controllers driving
	// disjoint banks from different goroutines can count without contention;
	// Stats() folds the shards.
	stats []bankStats

	banks        [][]*lineChunk
	slabs        [][]lineChunk // per-bank bulk-zeroed arenas chunks are handed out from
	linesPerBank int
	numLines     int // cached Lines(): the bound checkRange tests per access
	fillSeed     uint64
	zeroFill     bool
}

// Config parameterises a Device.
type Config struct {
	// Pages is the number of physical pages the device exposes. It must be
	// a positive multiple of the bank count so every bank has the same row
	// count.
	Pages int
	// Banks is the module's bank count, a power of two (0 = NumBanks, the
	// Figure 6 DIMM).
	Banks int
	// Timing defaults to DefaultTiming when zero.
	Timing Timing
	// FillSeed drives the deterministic background content of untouched
	// lines. Ignored when ZeroFill is set.
	FillSeed uint64
	// ZeroFill makes untouched lines all-zero (fully amorphous) instead of
	// pseudo-random. Useful for tests needing exact vulnerability control.
	ZeroFill bool
}

// NewDevice builds a device with cfg.Pages pages.
func NewDevice(cfg Config) (*Device, error) {
	nbanks := cfg.Banks
	if nbanks == 0 {
		nbanks = NumBanks
	}
	geo, err := NewGeometry(nbanks)
	if err != nil {
		return nil, err
	}
	if cfg.Pages <= 0 || cfg.Pages%nbanks != 0 {
		return nil, fmt.Errorf("pcm: Pages must be a positive multiple of %d, got %d", nbanks, cfg.Pages)
	}
	t := cfg.Timing
	if t == (Timing{}) {
		t = DefaultTiming
	}
	if t.ParallelBits <= 0 {
		return nil, fmt.Errorf("pcm: ParallelBits must be positive, got %d", t.ParallelBits)
	}
	d := &Device{
		RowsPerBank: cfg.Pages / nbanks,
		Timing:      t,
		geo:         geo,
		stats:       make([]bankStats, nbanks),
		banks:       make([][]*lineChunk, nbanks),
		slabs:       make([][]lineChunk, nbanks),
		fillSeed:    cfg.FillSeed,
		zeroFill:    cfg.ZeroFill,
	}
	d.linesPerBank = d.RowsPerBank * LinesPerPage
	d.numLines = d.linesPerBank * nbanks
	chunksPerBank := (d.linesPerBank + chunkLines - 1) / chunkLines
	for b := range d.banks {
		d.banks[b] = make([]*lineChunk, chunksPerBank)
	}
	return d, nil
}

// Banks returns the device's bank count.
func (d *Device) Banks() int { return d.geo.banks }

// Geometry returns the device's bank layout.
func (d *Device) Geometry() Geometry { return d.geo }

// Stats folds the per-bank counter shards into one aggregate view. It is
// only meaningful when no bank is concurrently active (e.g. after a run, or
// between conservative-window barriers).
func (d *Device) Stats() Stats {
	var s Stats
	for b := range d.stats {
		s.Add(d.stats[b].Stats)
	}
	return s
}

// BankStats returns one bank's counters (same quiescence caveat as Stats).
func (d *Device) BankStats(bank int) Stats { return d.stats[bank].Stats }

// CountRead attributes one array read to the line's bank without performing
// it — the controller's read-combining paths serve data from queue state but
// still occupy the array (verification, cascade and pre-reads).
func (d *Device) CountRead(a LineAddr) {
	bank, _ := d.geo.bankLocal(a)
	d.stats[bank].Reads++
}

// Pages returns the number of pages the device exposes.
func (d *Device) Pages() int { return d.RowsPerBank * d.geo.banks }

// Lines returns the number of lines the device exposes.
func (d *Device) Lines() int { return d.numLines }

// contains reports whether the address is within the device.
func (d *Device) contains(a LineAddr) bool { return uint64(a) < uint64(d.numLines) }

// background returns the deterministic initial content of a line.
func (d *Device) background(a LineAddr) Line {
	var l Line
	if d.zeroFill {
		return l
	}
	state := d.fillSeed ^ (uint64(a)+1)*0x9e3779b97f4a7c15
	for i := range l {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		l[i] = z ^ (z >> 31)
	}
	return l
}

// checkRange panics on out-of-range addresses: callers are inside the
// simulator and an out-of-range access is a bug, not an input error.
func (d *Device) checkRange(a LineAddr) {
	if !d.contains(a) {
		panic(fmt.Sprintf("pcm: line %d out of range (%d lines)", a, d.Lines()))
	}
}

// slabChunks is how many chunks one arena slab holds. Chunks live for the
// device's lifetime, so handing them out of a bulk-zeroed slab replaces one
// allocator round trip per chunk with one per slabChunks chunks. A slab is
// as many chunks as fit in slabBytes, five of the runtime's 8 KB pages: a
// large allocation is rounded up to whole pages, so a slab that stops short
// of its last page wastes the rest, and one that spills a few bytes into a
// page makes the whole OS page resident.
const (
	slabBytes  = 40 << 10
	slabChunks = slabBytes / int(unsafe.Sizeof(lineChunk{}))
)

// materializeChunk installs a fresh zeroed chunk for the given bank-local
// chunk index and returns it.
func (d *Device) materializeChunk(bank, ci int) *lineChunk {
	if len(d.slabs[bank]) == 0 {
		d.slabs[bank] = make([]lineChunk, slabChunks)
	}
	ch := &d.slabs[bank][0]
	d.slabs[bank] = d.slabs[bank][1:]
	d.banks[bank][ci] = ch
	return ch
}

// line returns a pointer to the stored image of a line, materializing its
// chunk and its background content on first touch.
func (d *Device) line(a LineAddr) *Line {
	bank, local := d.geo.bankLocal(a)
	ch := d.banks[bank][local>>chunkShift]
	if ch == nil {
		ch = d.materializeChunk(bank, local>>chunkShift)
	}
	idx := local & chunkMask
	l := &ch.lines[idx]
	if ch.resident&(1<<idx) == 0 {
		ch.resident |= 1 << idx
		if !d.zeroFill {
			*l = d.background(a)
		}
	}
	return l
}

// Peek returns the current content of a line without touching statistics.
// It panics on out-of-range addresses. Peeking an untouched line computes
// the background pattern without materialising storage, so read-mostly
// scans stay cheap on memory.
func (d *Device) Peek(a LineAddr) Line {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	if ch := d.banks[bank][local>>chunkShift]; ch != nil {
		if idx := local & chunkMask; ch.resident&(1<<idx) != 0 {
			return ch.lines[idx]
		}
	}
	return d.background(a)
}

// Side returns a pointer to a line's side state, materializing its chunk
// (not its cell content) on first touch. The pointer stays valid until
// DecodeState replaces the device's storage. It panics on out-of-range
// addresses.
func (d *Device) Side(a LineAddr) *Side {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	ch := d.banks[bank][local>>chunkShift]
	if ch == nil {
		ch = d.materializeChunk(bank, local>>chunkShift)
	}
	return &ch.side[local&chunkMask]
}

// PeekSide returns a line's side state without materializing storage: a
// line in an untouched chunk has the zero Side. It panics on out-of-range
// addresses.
func (d *Device) PeekSide(a LineAddr) Side {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	if ch := d.banks[bank][local>>chunkShift]; ch != nil {
		return ch.side[local&chunkMask]
	}
	return Side{}
}

// VisitAux calls fn for every line of the bank whose polarity word is
// nonzero, in bank-local order.
func (d *Device) VisitAux(bank int, fn func(a LineAddr, aux uint32)) {
	for ci, ch := range d.banks[bank] {
		if ch == nil {
			continue
		}
		for i, s := range ch.side {
			if s.Aux != 0 {
				fn(d.geo.globalAddr(bank, ci<<chunkShift|i), s.Aux)
			}
		}
	}
}

// Read returns a line's content and counts one array read. Timing is the
// caller's concern (Timing.ReadCycles).
func (d *Device) Read(a LineAddr) Line {
	d.CountRead(a)
	return d.Peek(a)
}

// WriteResult describes the device-level effect of one line write.
type WriteResult struct {
	Reset  Mask // cells driven 1→0
	Set    Mask // cells driven 0→1
	Cycles int  // bank occupancy of the programming operation
}

// Write programs a line to new content using differential write and returns
// the pulse maps and bank occupancy. kind attributes the wear.
func (d *Device) Write(a LineAddr, new Line, kind WriteKind) WriteResult {
	d.checkRange(a)
	bank, _ := d.geo.bankLocal(a)
	l := d.line(a)
	// Fused differential write: one pass computes both pulse maps, their
	// popcounts and the stored update (DiffMasks + 2×PopCount + copy would
	// walk the line four times).
	var reset, set Mask
	nr, ns := 0, 0
	for i := range l {
		r := l[i] &^ new[i]
		s := new[i] &^ l[i]
		reset[i], set[i] = r, s
		nr += bits.OnesCount64(r)
		ns += bits.OnesCount64(s)
		l[i] = new[i]
	}
	st := &d.stats[bank].Stats
	st.Writes++
	st.ResetPulses += uint64(nr)
	st.SetPulses += uint64(ns)
	if kind == CorrectionWrite {
		st.CorrectionWrites++
		st.CorrectionResetPulses += uint64(nr)
	}
	return WriteResult{Reset: reset, Set: set, Cycles: d.Timing.WriteCycles(nr, ns)}
}

// Disturb crystallises the given cells of a line in place (0→1 flips caused
// by neighbouring RESET heat). Bits of the mask that are already 1 are
// ignored; the count of actually flipped cells is returned. Disturbance is
// not a programmed pulse and adds no wear. The stored line is mutated in
// place; a disturbance that flips nothing leaves untouched chunks
// unmaterialized.
func (d *Device) Disturb(a LineAddr, flips Mask) int {
	d.checkRange(a)
	bank, local := d.geo.bankLocal(a)
	ch := d.banks[bank][local>>chunkShift]
	idx := local & chunkMask
	n := 0
	if ch != nil && ch.resident&(1<<idx) != 0 {
		l := &ch.lines[idx]
		for i := range flips {
			n += bits.OnesCount64(flips[i] &^ l[i])
		}
		if n > 0 {
			for i := range flips {
				l[i] |= flips[i]
			}
		}
	} else {
		bg := d.background(a)
		for i := range flips {
			n += bits.OnesCount64(flips[i] &^ bg[i])
		}
		if n > 0 {
			// Materialize directly from the background image already in hand
			// rather than through line(), which would recompute it.
			if ch == nil {
				ch = d.materializeChunk(bank, local>>chunkShift)
			}
			ch.resident |= 1 << idx
			l := &ch.lines[idx]
			for i := range flips {
				l[i] = bg[i] | flips[i]
			}
		}
	}
	if n > 0 {
		d.stats[bank].DisturbedBits += uint64(n)
	}
	return n
}
