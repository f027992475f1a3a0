package weargap

import (
	"slices"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the intra-row layer: the shared write counter, the
// aggregate move count and every instantiated row leveler in ascending
// row-key order. psi is a construction parameter.
func (w *IntraRow) EncodeState(e *snap.Encoder) {
	e.Begin("weargap.intrarow")
	e.Int(w.wcnt)
	e.U64(w.Moves)
	keys := make([]int, 0, len(w.rows))
	for k := range w.rows {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		l := w.rows[k]
		e.Int(k)
		e.Int(l.wcnt)
		e.Int(l.start)
		e.Int(l.gap)
		e.U64(l.Moves)
		e.U64(l.Rotations)
	}
	e.End()
}

// DecodeState restores state written by EncodeState into a layer freshly
// built with the same psi; row levelers are re-instantiated on demand.
func (w *IntraRow) DecodeState(d *snap.Decoder) error {
	d.Begin("weargap.intrarow")
	w.wcnt = d.Int()
	w.Moves = d.U64()
	if w.wcnt < 0 || w.wcnt >= w.psi {
		d.Reject("weargap: shared write counter %d outside [0,%d)", w.wcnt, w.psi)
	}
	n := d.Uvarint()
	w.rows = make(map[int]*Leveler)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		k := d.Int()
		l, err := New(pcm.LinesPerPage-1, w.psi) // same shape leveler() builds
		if err != nil {
			return err
		}
		l.wcnt = d.Int()
		l.start = d.Int()
		l.gap = d.Int()
		l.Moves = d.U64()
		l.Rotations = d.U64()
		switch {
		case k < 0:
			d.Reject("weargap: negative row key %d", k)
		case l.start < 0 || l.start >= l.n:
			d.Reject("weargap: row %d start %d outside [0,%d)", k, l.start, l.n)
		case l.gap < 0 || l.gap > l.n:
			d.Reject("weargap: row %d gap %d outside [0,%d]", k, l.gap, l.n)
		case l.wcnt < 0 || l.wcnt >= w.psi:
			d.Reject("weargap: row %d write counter %d outside [0,%d)", k, l.wcnt, w.psi)
		}
		w.rows[k] = l
	}
	d.End()
	return d.Err()
}
