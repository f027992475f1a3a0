// Package ecp implements Error-Correcting Pointers (ECP [28]) as used by
// SD-PCM's LazyCorrection (§4.2).
//
// Each protected 64 B line owns N pointer entries; an entry names one cell
// (9-bit address within the 512-cell line) and stores its correct value
// (1 bit). ECP was designed for hard (stuck-at) errors; SD-PCM additionally
// parks freshly detected write-disturbance errors in whatever entries hard
// errors have not consumed. A disturbed cell's true value is always '0'
// (only idle amorphous cells are vulnerable), so reads return corrected data
// by forcing recorded cells to zero, and a deferred correction write simply
// RESETs them.
//
// Entry policy (§4.2): hard errors have allocation priority. A normal write
// to a line rewrites its data and therefore clears the line's accumulated WD
// entries for free; hard-error entries persist for the lifetime of the cell.
//
// The ECP pointers themselves live in a *low density* (8F², WD-free along
// both axes) ECP chip, so recording an entry never triggers further
// verification; it does, however, wear the ECP chip — each recorded WD error
// writes AddressBits+1 = 10 cells there (§6.7), which this package accounts.
package ecp

import (
	"fmt"
	"math"

	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// AddressBits is the width of one pointer (log2 of cells per line).
const AddressBits = 9

// BitsPerEntry is the ECP-chip cells written when recording one entry:
// the pointer plus the correct-value bit.
const BitsPerEntry = AddressBits + 1

// DefaultEntries is the paper's default ECP-6 configuration.
const DefaultEntries = 6

// Stats aggregates ECP activity across all lines.
type Stats struct {
	WDRecorded       uint64 // WD errors newly parked in entries
	WDDuplicates     uint64 // WD detections already covered by an entry
	Overflows        uint64 // record attempts that exceeded free entries
	ClearedByWrite   uint64 // WD entries released by a normal data write
	ClearedByCorrect uint64 // WD entries released by a correction write
	ECPBitWrites     uint64 // cells programmed in the ECP chip (wear proxy)
}

// Add accumulates another Stats value; all fields are additive, so per-bank
// table shards merge commutatively.
func (s *Stats) Add(o Stats) {
	s.WDRecorded += o.WDRecorded
	s.WDDuplicates += o.WDDuplicates
	s.Overflows += o.Overflows
	s.ClearedByWrite += o.ClearedByWrite
	s.ClearedByCorrect += o.ClearedByCorrect
	s.ECPBitWrites += o.ECPBitWrites
}

// lineState is one line's entry bookkeeping: a record in the table's slab,
// found through the line's pcm.Side.ECP word. Records are pointer-free, so
// the slab costs the garbage collector nothing to scan. WD entries live in
// the table's parallel wd slab, stride entries per record, in insertion
// order; hard errors are abstract (only their count matters to entry
// pressure — their addresses never change).
type lineState struct {
	addr pcm.LineAddr
	hard int32
	nwd  int32
	// seen marks every cell index ever recorded on this line. The ECP chip
	// uses differential write too: re-recording a pointer whose bits are
	// still in the (invalidated) entry from an earlier round only rewrites
	// the valid bit, not the full 10-bit entry.
	seen pcm.Mask
}

// Slab geometry: records are handed out of fixed-size blocks, so growing
// the table never copies (or transiently doubles) the records it has.
const (
	blockShift   = 8
	blockRecords = 1 << blockShift
	blockMask    = blockRecords - 1
)

// Table is the ECP state for one DIMM: N entries per line. A line's record
// is created on first touch and found through the side word the device
// keeps beside the line's cells, so lookups are array indexing, not
// hashing.
type Table struct {
	// N is the number of entries per line (ECP-N). N == 0 disables ECP:
	// every record attempt overflows, degenerating to basic VnC.
	N int

	// HardFn, when set, supplies the number of entries pre-consumed by hard
	// errors for a line the first time its state is touched (clamped to
	// [0,N]). It models device aging for the lifetime experiments (§6.4
	// Fig. 14): as the DIMM wears out, hard errors crowd out LazyCorrection.
	HardFn func(pcm.LineAddr) int

	Stats Stats

	dev    *pcm.Device
	stride int           // wd slab entries per record: min(N, LineBits)
	recs   [][]lineState // record blocks
	wds    [][]uint16    // wd blocks, stride entries per record
	n      int           // records in use

	// scratch backs RecordWD's dedup pass; reused across calls so the
	// steady-state record path allocates nothing. RecordWD is not reentrant.
	scratch []uint16

	// Occupancy histograms (nil when uninstrumented): entries in use after
	// each successful park and at each correction-write flush — the entry
	// pressure LazyCorrection's X+Y<=N rule lives or dies by.
	parkOcc, flushOcc *metrics.Histogram
}

// New creates an ECP-N table for the lines of dev. N must be non-negative
// and fit an int32 (records store entry counts in 32 bits).
// Every line a table touches must be served by this table alone (the
// controller owning the line's bank).
func New(n int, dev *pcm.Device) (*Table, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("ecp: entry count %d out of range", n)
	}
	if dev == nil {
		return nil, fmt.Errorf("ecp: nil device")
	}
	// A line has LineBits distinct cells, so no more WD entries than that
	// can ever be occupied.
	return &Table{N: n, dev: dev, stride: min(n, pcm.LineBits)}, nil
}

// record returns the record with slot index i and its full wd stride.
func (t *Table) record(i uint32) (*lineState, []uint16) {
	b, o := i>>blockShift, int(i&blockMask)
	return &t.recs[b][o], t.wds[b][o*t.stride : (o+1)*t.stride]
}

// lookup returns a line's record without creating one.
func (t *Table) lookup(a pcm.LineAddr) (*lineState, []uint16) {
	if slot := t.dev.PeekSide(a).ECP; slot != 0 {
		return t.record(slot - 1)
	}
	return nil, nil
}

// state returns a line's record, creating it on first touch.
func (t *Table) state(a pcm.LineAddr) (*lineState, []uint16) {
	side := t.dev.Side(a)
	if side.ECP == 0 {
		hard := 0
		if t.HardFn != nil {
			hard = min(max(t.HardFn(a), 0), t.N)
		}
		side.ECP = t.add(a, hard) + 1
	}
	return t.record(side.ECP - 1)
}

// add appends a fresh record and returns its slot index.
func (t *Table) add(a pcm.LineAddr, hard int) uint32 {
	i := t.n
	if i>>blockShift == len(t.recs) {
		t.recs = append(t.recs, make([]lineState, blockRecords))
		t.wds = append(t.wds, make([]uint16, blockRecords*t.stride))
	}
	t.n++
	st, _ := t.record(uint32(i))
	*st = lineState{addr: a, hard: int32(hard)}
	return uint32(i)
}

// Instrument attaches occupancy histograms to the table. A nil registry
// leaves the table uninstrumented (the zero-cost default).
func (t *Table) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	bounds := []uint64{0, 1, 2, 3, 4, 6, 8, 12, 16}
	t.parkOcc = reg.Histogram("ecp.occupancy_at_park", bounds)
	t.flushOcc = reg.Histogram("ecp.occupancy_at_flush", bounds)
}

// HardErrors returns the number of entries consumed by hard errors on a line.
func (t *Table) HardErrors(a pcm.LineAddr) int {
	s, _ := t.state(a)
	return int(s.hard)
}

// SetHardErrors pins n entries of the line for hard errors (clamped to
// [0, N]). Existing WD entries that no longer fit are dropped as if a
// correction had cleared them; the caller is responsible for actually
// correcting the array if it cares (lifetime experiments do not, they only
// model entry pressure).
func (t *Table) SetHardErrors(a pcm.LineAddr, n int) {
	n = min(max(n, 0), t.N)
	s, _ := t.state(a)
	s.hard = int32(n)
	s.nwd = min(s.nwd, int32(t.N-n))
}

// Recorded returns the total occupied entries (hard + WD) of a line.
func (t *Table) Recorded(a pcm.LineAddr) int {
	s, _ := t.state(a)
	return int(s.hard + s.nwd)
}

// Free returns the number of unoccupied entries of a line.
func (t *Table) Free(a pcm.LineAddr) int { return t.N - t.Recorded(a) }

// WDBits returns the cell indices of the line's recorded WD errors,
// ascending insertion order. The slice is a copy.
func (t *Table) WDBits(a pcm.LineAddr) []int {
	s, wd := t.lookup(a)
	if s == nil || s.nwd == 0 {
		return nil
	}
	out := make([]int, s.nwd)
	for i, b := range wd[:s.nwd] {
		out[i] = int(b)
	}
	return out
}

// RecordWD tries to park newly detected disturbed cells (bit indices within
// the line) into free entries. Detections already covered by an entry are
// deduplicated and always succeed. If the remaining new cells do not all
// fit, nothing new is recorded and ok is false: the caller must fall back to
// an immediate correction write (LazyCorrection's X+Y>N case).
func (t *Table) RecordWD(a pcm.LineAddr, cells []int) (ok bool) {
	if len(cells) == 0 {
		return true
	}
	s, wd := t.state(a)
	fresh := t.scratch[:0]
	for _, c := range cells {
		if c < 0 || c >= pcm.LineBits {
			panic(fmt.Sprintf("ecp: cell index %d out of range", c))
		}
		if containsU16(wd[:s.nwd], uint16(c)) || containsU16(fresh, uint16(c)) {
			t.Stats.WDDuplicates++
			continue
		}
		fresh = append(fresh, uint16(c))
	}
	t.scratch = fresh[:0]
	if len(fresh) == 0 {
		return true
	}
	if int(s.hard+s.nwd)+len(fresh) > t.N {
		t.Stats.Overflows++
		return false
	}
	s.nwd += int32(copy(wd[s.nwd:], fresh))
	t.Stats.WDRecorded += uint64(len(fresh))
	t.parkOcc.Observe(uint64(s.hard + s.nwd))
	for _, c := range fresh {
		if s.seen.Bit(int(c)) != 0 {
			// Pointer bits unchanged from a previous round: only the valid
			// bit flips (differential write in the ECP chip).
			t.Stats.ECPBitWrites++
			continue
		}
		t.Stats.ECPBitWrites += BitsPerEntry
		s.seen.SetBit(int(c))
	}
	return true
}

// ClearWD releases all WD entries of a line and returns how many were held.
// byCorrection attributes the release for statistics: true when an explicit
// correction write cleared the cells, false when a normal data write
// superseded them (§4.2 "a normal write operation clears the accumulated WD
// errors in ECP").
func (t *Table) ClearWD(a pcm.LineAddr, byCorrection bool) int {
	s, _ := t.lookup(a)
	if s == nil || s.nwd == 0 {
		return 0
	}
	n := int(s.nwd)
	s.nwd = 0
	if byCorrection {
		t.Stats.ClearedByCorrect += uint64(n)
		t.flushOcc.Observe(uint64(int(s.hard) + n))
	} else {
		t.Stats.ClearedByWrite += uint64(n)
	}
	// Invalidating entries writes their valid bits in the ECP chip.
	t.Stats.ECPBitWrites += uint64(n)
	return n
}

// CorrectionMask returns a mask of the line's recorded WD cells; applying
// RESET to exactly these cells (forcing them to '0') heals the line.
func (t *Table) CorrectionMask(a pcm.LineAddr) pcm.Mask {
	var m pcm.Mask
	if s, wd := t.lookup(a); s != nil {
		for _, b := range wd[:s.nwd] {
			m.SetBit(int(b))
		}
	}
	return m
}

// CorrectRead returns the ECP-corrected view of raw line data: every
// recorded WD cell is forced to its true value '0'. Hard-error cells are
// abstract in this model and left untouched.
func (t *Table) CorrectRead(a pcm.LineAddr, raw pcm.Line) pcm.Line {
	s, wd := t.lookup(a)
	if s == nil {
		return raw
	}
	for _, b := range wd[:s.nwd] {
		raw.SetBit(int(b), 0)
	}
	return raw
}

func containsU16(xs []uint16, c uint16) bool {
	for _, x := range xs {
		if x == c {
			return true
		}
	}
	return false
}
