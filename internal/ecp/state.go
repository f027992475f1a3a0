package ecp

import (
	"cmp"
	"slices"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the table's mutable state: the counters and every
// line's entry bookkeeping, in ascending address order so the encoding is
// deterministic. Each line's seen set is written in ascending cell order.
// N, HardFn and the instruments are construction parameters.
func (t *Table) EncodeState(e *snap.Encoder) {
	e.Begin("ecp.table")
	e.U64(t.Stats.WDRecorded)
	e.U64(t.Stats.WDDuplicates)
	e.U64(t.Stats.Overflows)
	e.U64(t.Stats.ClearedByWrite)
	e.U64(t.Stats.ClearedByCorrect)
	e.U64(t.Stats.ECPBitWrites)
	slots := make([]uint32, t.n)
	for i := range slots {
		slots[i] = uint32(i)
	}
	slices.SortFunc(slots, func(x, y uint32) int {
		sx, _ := t.record(x)
		sy, _ := t.record(y)
		return cmp.Compare(sx.addr, sy.addr)
	})
	e.Uvarint(uint64(len(slots)))
	for _, i := range slots {
		s, wd := t.record(i)
		e.U64(uint64(s.addr))
		e.Int(int(s.hard))
		e.Uvarint(uint64(s.nwd))
		for _, c := range wd[:s.nwd] {
			e.Uvarint(uint64(c))
		}
		e.Uvarint(uint64(s.seen.PopCount()))
		s.seen.VisitBits(func(c int) bool {
			e.Uvarint(uint64(c))
			return true
		})
	}
	e.End()
}

// DecodeState restores state written by EncodeState into a freshly
// constructed table of the same configuration. Every decoded length and
// index is range-checked before it sizes or addresses anything — a line
// outside the device, more entries than ECP-N holds, a cell outside the
// line — and fails with a *snap.RangeError.
func (t *Table) DecodeState(d *snap.Decoder) error {
	d.Begin("ecp.table")
	t.Stats.WDRecorded = d.U64()
	t.Stats.WDDuplicates = d.U64()
	t.Stats.Overflows = d.U64()
	t.Stats.ClearedByWrite = d.U64()
	t.Stats.ClearedByCorrect = d.U64()
	t.Stats.ECPBitWrites = d.U64()
	t.recs, t.wds, t.n = nil, nil, 0
	lines := uint64(t.dev.Lines())
	n := d.Uvarint()
	if n > lines {
		d.Reject("ecp: %d line records for a %d-line device", n, lines)
	}
	var prev uint64
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		a, hard := d.U64(), d.Int()
		switch {
		case a >= lines:
			d.Reject("ecp: record for line %d outside the %d-line device", a, lines)
		case i > 0 && a <= prev:
			d.Reject("ecp: record for line %d out of address order", a)
		case hard < 0 || hard > t.N:
			d.Reject("ecp: line %d has %d hard errors under ECP-%d", a, hard, t.N)
		}
		prev = a
		nwd := d.Uvarint()
		if d.Err() == nil && nwd > uint64(t.N-hard) {
			d.Reject("ecp: line %d lists %d WD entries beside %d hard errors under ECP-%d", a, nwd, hard, t.N)
		}
		if d.Err() != nil {
			break
		}
		pa := pcm.LineAddr(a)
		side := t.dev.Side(pa)
		side.ECP = t.add(pa, hard) + 1
		s, wd := t.record(side.ECP - 1)
		var held pcm.Mask
		for j := uint64(0); j < nwd && d.Err() == nil; j++ {
			c := d.Uvarint()
			if c >= pcm.LineBits || held.Bit(int(c)) != 0 {
				d.Reject("ecp: line %d WD entry %d is out of range or repeated", a, c)
				break
			}
			held.SetBit(int(c))
			wd[j] = uint16(c)
			s.nwd++
		}
		nseen := d.Uvarint()
		if d.Err() == nil && nseen > pcm.LineBits {
			d.Reject("ecp: line %d lists %d seen cells, more than a line has", a, nseen)
		}
		for j := uint64(0); j < nseen && d.Err() == nil; j++ {
			c := d.Uvarint()
			if c >= pcm.LineBits {
				d.Reject("ecp: line %d seen cell %d outside the line", a, c)
				break
			}
			s.seen.SetBit(int(c))
		}
	}
	d.End()
	return d.Err()
}
