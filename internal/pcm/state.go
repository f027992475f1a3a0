package pcm

import (
	"fmt"

	"sdpcm/internal/snap"
)

// encodeStats writes one Stats value field by field; keep in lockstep with
// decodeStats and Stats.Add.
func encodeStats(e *snap.Encoder, s Stats) {
	e.U64(s.Reads)
	e.U64(s.Writes)
	e.U64(s.ResetPulses)
	e.U64(s.SetPulses)
	e.U64(s.CorrectionWrites)
	e.U64(s.CorrectionResetPulses)
	e.U64(s.DisturbedBits)
}

func decodeStats(d *snap.Decoder, s *Stats) {
	s.Reads = d.U64()
	s.Writes = d.U64()
	s.ResetPulses = d.U64()
	s.SetPulses = d.U64()
	s.CorrectionWrites = d.U64()
	s.CorrectionResetPulses = d.U64()
	s.DisturbedBits = d.U64()
}

// EncodeLine writes one line image as eight fixed words.
func EncodeLine(e *snap.Encoder, l Line) {
	for _, w := range l {
		e.U64(w)
	}
}

// DecodeLine reads one line image.
func DecodeLine(d *snap.Decoder) Line {
	var l Line
	for i := range l {
		l[i] = d.U64()
	}
	return l
}

// LineAux is one line's word-line codec polarity word in checkpoint form.
type LineAux struct {
	Addr LineAddr
	Aux  uint32
}

// EncodeAux writes polarity words, in ascending address order, as a count
// followed by (address, word) pairs: the layout the DIN and Flip-N-Write
// codec state sections share.
func EncodeAux(e *snap.Encoder, aux []LineAux) {
	e.Uvarint(uint64(len(aux)))
	for _, x := range aux {
		e.U64(uint64(x.Addr))
		e.Uvarint(uint64(x.Aux))
	}
}

// DecodeAux reads polarity words written by EncodeAux for a device of the
// given line count. Addresses must be strictly ascending and inside the
// device and words must fit 32 bits; anything else is a *snap.RangeError.
func DecodeAux(d *snap.Decoder, lines int) []LineAux {
	n := d.Uvarint()
	if n > uint64(lines) {
		d.Reject("%d codec words for a %d-line device", n, lines)
		return nil
	}
	var out []LineAux
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		a, w := d.U64(), d.Uvarint()
		switch {
		case a >= uint64(lines):
			d.Reject("codec word for line %d outside the %d-line device", a, lines)
		case len(out) > 0 && a <= uint64(out[len(out)-1].Addr):
			d.Reject("codec word for line %d out of address order", a)
		case w > 1<<32-1:
			d.Reject("codec word %#x for line %d exceeds 32 bits", w, a)
		default:
			out = append(out, LineAux{Addr: LineAddr(a), Aux: uint32(w)})
		}
	}
	return out
}

// The checkpoint predates tiling and keeps the row-major layout: its
// chunks are rowChunks runs of chunkLines consecutive slots per row,
// numbered row*rowChunks+run, each with a chunkLines-bit residency word
// (bit i: slot run*chunkLines+i resident). One row-major chunk spans
// rowChunkTiles tiles side by side, one tileSlots-bit nibble of its word
// per tile.
const (
	rowChunkShift = slotShift - chunkShift
	rowChunks     = 1 << rowChunkShift
	rowChunkTiles = chunkLines / tileSlots
	nibble        = 1<<tileSlots - 1
	chunkShift    = tileRowShift + tileSlotShift
)

// rowChunkAt locates row-major chunk rc in the tiled store: the chunk index
// of the first of the rowChunkTiles adjacent tiles it spans, and the bit
// offset of its row inside them.
func rowChunkAt(rc int) (base int, shift uint) {
	row, run := rc>>rowChunkShift, rc&(rowChunks-1)
	return row>>tileRowShift<<tileColShift | run*rowChunkTiles, uint(row&(tileRows-1)) << tileSlotShift
}

// rowChunk gathers row-major chunk rc of a bank from the tiles holding it:
// the tiles (nil where unmaterialized), the bit offset of the chunk's row
// inside them, its residency word, and whether row-major storage would
// have materialized it — whether any of its lines was ever touched.
func (d *Device) rowChunk(bank, rc int) (tiles [rowChunkTiles]*lineChunk, shift uint, resident uint64, live bool) {
	base, shift := rowChunkAt(rc)
	for t := range tiles {
		ch := d.banks[bank][base+t]
		if ch == nil {
			continue
		}
		tiles[t] = ch
		resident |= (ch.resident >> shift & nibble) << (t * tileSlots)
		live = live || ch.resident>>(touchedShift+shift)&nibble != 0
	}
	return
}

// EncodeState serializes the device's mutable state: per-bank counters and
// every row-major chunk's resident lines, for each chunk a row-major store
// would have materialized. Geometry, timing and the background fill are
// construction parameters and are not stored — decode targets a freshly
// built Device of the same Config.
func (d *Device) EncodeState(e *snap.Encoder) {
	e.Begin("pcm.device")
	nrc := d.RowsPerBank * rowChunks
	for b := range d.banks {
		encodeStats(e, d.stats[b].Stats)
		n := 0
		for rc := 0; rc < nrc; rc++ {
			if _, _, _, live := d.rowChunk(b, rc); live {
				n++
			}
		}
		e.Uvarint(uint64(n))
		for rc := 0; rc < nrc; rc++ {
			tiles, shift, resident, live := d.rowChunk(b, rc)
			if !live {
				continue
			}
			e.Uvarint(uint64(rc))
			e.U64(resident)
			for i := 0; i < chunkLines; i++ {
				if resident&(1<<i) != 0 {
					EncodeLine(e, tiles[i/tileSlots].lines[shift+uint(i%tileSlots)])
				}
			}
		}
	}
	e.End()
}

// DecodeState restores state written by EncodeState into a device freshly
// constructed with the same Config. Each row-major chunk lands in the
// tiles holding its lines, and its lines are marked touched so a later
// EncodeState emits it again; a chunk with no resident line (materialized
// only for side state) marks its first line.
func (d *Device) DecodeState(dec *snap.Decoder) error {
	dec.Begin("pcm.device")
	nrc := uint64(d.RowsPerBank * rowChunks)
	for b := range d.banks {
		decodeStats(dec, &d.stats[b].Stats)
		for ci := range d.banks[b] {
			d.banks[b][ci] = nil
		}
		d.slabs[b] = nil
		n := dec.Uvarint()
		for k := uint64(0); k < n; k++ {
			rc := dec.Uvarint()
			resident := dec.U64()
			if dec.Err() != nil {
				return dec.Err()
			}
			if rc >= nrc {
				return fmt.Errorf("pcm: checkpoint chunk index %d out of range (bank %d has %d)", rc, b, nrc)
			}
			if resident>>chunkLines != 0 {
				return fmt.Errorf("pcm: checkpoint residency bitmap %#x has bits beyond %d lines", resident, chunkLines)
			}
			base, shift := rowChunkAt(int(rc))
			for t := 0; t < rowChunkTiles; t++ {
				res := resident >> (t * tileSlots) & nibble
				touched := res
				if resident == 0 && t == 0 {
					touched = 1
				}
				ch := d.banks[b][base+t]
				if ch == nil {
					if touched == 0 {
						continue
					}
					ch = d.materializeChunk(b, base+t)
				}
				// A repeated chunk index replaces the earlier image, as it
				// did when chunks were row-major.
				ch.resident &^= (nibble | nibble<<touchedShift) << shift
				ch.resident |= (res | touched<<touchedShift) << shift
				for s := uint(0); s < tileSlots; s++ {
					if res&(1<<s) != 0 {
						ch.lines[shift+s] = DecodeLine(dec)
					}
				}
			}
		}
	}
	dec.End()
	return dec.Err()
}
