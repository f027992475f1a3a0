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

// EncodeState serializes the device's mutable state: per-bank counters and
// every materialized chunk's resident lines. Geometry, timing and the
// background fill are construction parameters and are not stored — decode
// targets a freshly built Device of the same Config.
func (d *Device) EncodeState(e *snap.Encoder) {
	e.Begin("pcm.device")
	for b := range d.banks {
		encodeStats(e, d.stats[b].Stats)
		n := 0
		for _, ch := range d.banks[b] {
			if ch != nil {
				n++
			}
		}
		e.Uvarint(uint64(n))
		for ci, ch := range d.banks[b] {
			if ch == nil {
				continue
			}
			e.Uvarint(uint64(ci))
			e.U64(ch.resident)
			for i := 0; i < chunkLines; i++ {
				if ch.resident&(1<<i) != 0 {
					EncodeLine(e, ch.lines[i])
				}
			}
		}
	}
	e.End()
}

// DecodeState restores state written by EncodeState into a device freshly
// constructed with the same Config.
func (d *Device) DecodeState(dec *snap.Decoder) error {
	dec.Begin("pcm.device")
	for b := range d.banks {
		decodeStats(dec, &d.stats[b].Stats)
		for ci := range d.banks[b] {
			d.banks[b][ci] = nil
		}
		d.slabs[b] = nil
		n := dec.Uvarint()
		for k := uint64(0); k < n; k++ {
			ci := dec.Uvarint()
			resident := dec.U64()
			if dec.Err() != nil {
				return dec.Err()
			}
			if ci >= uint64(len(d.banks[b])) {
				return fmt.Errorf("pcm: checkpoint chunk index %d out of range (bank %d has %d)", ci, b, len(d.banks[b]))
			}
			if resident>>chunkLines != 0 {
				return fmt.Errorf("pcm: checkpoint residency bitmap %#x has bits beyond %d lines", resident, chunkLines)
			}
			ch := d.materializeChunk(b, int(ci))
			ch.resident = resident
			for i := 0; i < chunkLines; i++ {
				if resident&(1<<i) != 0 {
					ch.lines[i] = DecodeLine(dec)
				}
			}
		}
	}
	dec.End()
	return dec.Err()
}
