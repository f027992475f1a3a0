// Package pcm models the PCM DIMM of Figure 6 at device level: 2 ranks x 8
// banks, eight x8 data chips plus one ECP chip per rank, 4 KB device rows
// (4096 cells per chip-row), 64 B lines, SLC cells with differential write
// and 128-bit parallel write drivers.
//
// Bit convention: a cell value of 0 is the fully amorphous (RESET, high
// resistance) state and 1 the crystalline (SET) state. Writing a 0 over a 1
// issues a RESET pulse; writing a 1 over a 0 issues a SET pulse; unchanged
// cells are skipped entirely (differential write [35]). Only RESET pulses
// generate write disturbance, and only idle amorphous ('0') neighbours are
// vulnerable (§2.2.1).
package pcm

import (
	"fmt"
	"math/bits"
)

// Geometry constants of the Figure 6 / Table 2 organisation.
const (
	// LineBytes is the memory line (and LLC block) size.
	LineBytes = 64
	// LineBits is the number of SLC cells in one line.
	LineBits = LineBytes * 8
	// LineWords is the number of 64-bit words backing one line.
	LineWords = LineBits / 64
	// PageBytes is the OS page and device row payload size.
	PageBytes = 4096
	// LinesPerPage is the number of 64 B lines per 4 KB device row.
	LinesPerPage = PageBytes / LineBytes
	// Ranks and BanksPerRank describe the single-channel DIMM.
	Ranks        = 2
	BanksPerRank = 8
	// NumBanks is the total number of banks (and the strip width in pages):
	// physically adjacent rows in one bank hold pages NumBanks apart (§4.1).
	NumBanks = Ranks * BanksPerRank
	// DataChips is the number of data chips one row spreads across.
	DataChips = 8
	// CellsPerChipRow is the number of SLC cells each chip contributes to a
	// row (4096 in the paper: "one bank stores 4096 SLC cells in one row"
	// per chip, 8 chips = 4 KB).
	CellsPerChipRow = PageBytes * 8 / DataChips
	// BitsPerChipLine is each chip's share of one 64 B line.
	BitsPerChipLine = LineBits / DataChips
	// ParallelWriteBits is the number of cells the write drivers can program
	// simultaneously (power constraint, Table 2).
	ParallelWriteBits = 128
)

// LineAddr is the global index of a 64 B line: physical page number times
// LinesPerPage plus the line offset within the page.
type LineAddr uint64

// PageAddr is a physical page (frame) number.
type PageAddr uint64

// Loc pinpoints a line inside the DIMM: its bank, device row within the
// bank, and slot (line offset) within the row.
type Loc struct {
	Bank int
	Row  int
	Slot int
}

// Page returns the physical page a line belongs to.
func (a LineAddr) Page() PageAddr { return PageAddr(a / LinesPerPage) }

// Slot returns the line offset within its page (0..LinesPerPage-1).
func (a LineAddr) Slot() int { return int(a % LinesPerPage) }

// LineOf returns the global line address for a slot within a page.
func LineOf(p PageAddr, slot int) LineAddr {
	return LineAddr(uint64(p)*LinesPerPage + uint64(slot))
}

// Locate maps a line address to its device coordinates under the
// strip-interleaved layout of §4.1: page p lives in bank p mod NumBanks at
// row p div NumBanks, so one strip (equal row index across all banks) holds
// NumBanks consecutive pages and bit-line neighbours are NumBanks pages
// apart.
func Locate(a LineAddr) Loc {
	p := uint64(a.Page())
	return Loc{
		Bank: int(p % NumBanks),
		Row:  int(p / NumBanks),
		Slot: a.Slot(),
	}
}

// AddrOf is the inverse of Locate.
func AddrOf(l Loc) LineAddr {
	page := uint64(l.Row)*NumBanks + uint64(l.Bank)
	return LineOf(PageAddr(page), l.Slot)
}

// StripIndex returns the device strip (row index across banks) of a page.
func (p PageAddr) StripIndex() int { return int(uint64(p) / NumBanks) }

// AdjacentLines returns the bit-line neighbours of a line: the same slot in
// the rows physically above and below within the same bank (pages p±NumBanks).
// ok is false for a neighbour that falls outside [0, rows) of the bank.
func AdjacentLines(a LineAddr, rowsPerBank int) (above, below LineAddr, okAbove, okBelow bool) {
	return DefaultGeometry.AdjacentLines(a, rowsPerBank)
}

// Geometry generalizes the strip-interleaved layout of §4.1 to a
// configurable power-of-two bank count: page p lives in bank p mod Banks at
// row p div Banks. The bank count is a power of two with a precomputed
// shift, so the hot-path address arithmetic stays shifts and masks exactly
// like the fixed-constant layout. The zero Geometry is invalid; use
// DefaultGeometry or NewGeometry.
type Geometry struct {
	banks int
	shift uint
}

// DefaultGeometry is the fixed Figure 6 DIMM layout: NumBanks (16) banks.
var DefaultGeometry = Geometry{banks: NumBanks, shift: uint(bits.TrailingZeros(NumBanks))}

// NewGeometry builds a layout over the given bank count (a power of two).
func NewGeometry(banks int) (Geometry, error) {
	if banks < 1 || banks&(banks-1) != 0 {
		return Geometry{}, fmt.Errorf("pcm: bank count %d not a power of two", banks)
	}
	return Geometry{banks: banks, shift: uint(bits.TrailingZeros(uint(banks)))}, nil
}

// Banks returns the layout's bank count (and strip width in pages).
func (g Geometry) Banks() int { return g.banks }

// Locate maps a line address to its device coordinates under the layout.
func (g Geometry) Locate(a LineAddr) Loc {
	p := uint64(a.Page())
	return Loc{
		Bank: int(p & uint64(g.banks-1)),
		Row:  int(p >> g.shift),
		Slot: a.Slot(),
	}
}

// AddrOf is the inverse of Locate.
func (g Geometry) AddrOf(l Loc) LineAddr {
	page := uint64(l.Row)<<g.shift | uint64(l.Bank)
	return LineOf(PageAddr(page), l.Slot)
}

// StripIndex returns the device strip (row index across banks) of a page.
func (g Geometry) StripIndex(p PageAddr) int { return int(uint64(p) >> g.shift) }

// AdjacentLines returns the bit-line neighbours of a line under the layout
// (pages p±Banks); ok is false outside [0, rowsPerBank).
func (g Geometry) AdjacentLines(a LineAddr, rowsPerBank int) (above, below LineAddr, okAbove, okBelow bool) {
	loc := g.Locate(a)
	if loc.Row > 0 {
		above = g.AddrOf(Loc{Bank: loc.Bank, Row: loc.Row - 1, Slot: loc.Slot})
		okAbove = true
	}
	if loc.Row < rowsPerBank-1 {
		below = g.AddrOf(Loc{Bank: loc.Bank, Row: loc.Row + 1, Slot: loc.Slot})
		okBelow = true
	}
	return
}

// bankLocal maps a line address to its bank and bank-local line index
// (row*LinesPerPage+slot). Bank count and LinesPerPage are powers of two,
// so the arithmetic is shifts and masks.
func (g Geometry) bankLocal(a LineAddr) (bank, local int) {
	page := uint64(a) / LinesPerPage
	bank = int(page & uint64(g.banks-1))
	local = int(page>>g.shift)*LinesPerPage + int(uint64(a)%LinesPerPage)
	return
}

// globalAddr inverts bankLocal.
func (g Geometry) globalAddr(bank, local int) LineAddr {
	row, slot := uint64(local/LinesPerPage), uint64(local%LinesPerPage)
	return LineAddr((row<<g.shift|uint64(bank))*LinesPerPage + slot)
}
