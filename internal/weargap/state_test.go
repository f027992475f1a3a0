package weargap

import (
	"errors"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// encodeLayer serializes w and returns the snapshot bytes.
func encodeLayer(w *IntraRow) []byte {
	e := snap.NewEncoder(1)
	w.EncodeState(e)
	return e.Finish()
}

// decodeLayer restores data into a fresh layer with the given psi.
func decodeLayer(t *testing.T, psi int, data []byte) (*IntraRow, error) {
	t.Helper()
	w, err := NewIntraRow(psi)
	if err != nil {
		t.Fatal(err)
	}
	d, err := snap.NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DecodeState(d); err != nil {
		return w, err
	}
	return w, d.Close()
}

// TestStateRoundTrip: a decoded layer maps every line exactly as the layer
// that was encoded.
func TestStateRoundTrip(t *testing.T) {
	w, _ := NewIntraRow(3)
	for i := 0; i < 500; i++ {
		w.NoteWrite(pcm.LineAddr(i * 7 % 300))
	}
	got, err := decodeLayer(t, 3, encodeLayer(w))
	if err != nil {
		t.Fatal(err)
	}
	for a := pcm.LineAddr(0); a < 300; a++ {
		if got.MapAddr(a) != w.MapAddr(a) {
			t.Fatalf("line %d maps to %d after restore, want %d", a, got.MapAddr(a), w.MapAddr(a))
		}
	}
	if got.Moves != w.Moves || got.wcnt != w.wcnt {
		t.Fatalf("restored moves/wcnt %d/%d, want %d/%d", got.Moves, got.wcnt, w.Moves, w.wcnt)
	}
}

// TestDecodeStateRejectsOutOfRange pins the decode crasher: a row start of
// -1000 used to decode cleanly and then map line 5 to a line far outside
// any device. Every register outside its leveler's range must fail with a
// *snap.RangeError.
func TestDecodeStateRejectsOutOfRange(t *testing.T) {
	const psi = 4
	cases := map[string]func(w *IntraRow, l *Leveler, key int) int{
		"negative start": func(_ *IntraRow, l *Leveler, k int) int { l.start = -1000; return k },
		"start past n":   func(_ *IntraRow, l *Leveler, k int) int { l.start = l.n; return k },
		"negative gap":   func(_ *IntraRow, l *Leveler, k int) int { l.gap = -1; return k },
		"gap past n":     func(_ *IntraRow, l *Leveler, k int) int { l.gap = l.n + 1; return k },
		"row wcnt":       func(_ *IntraRow, l *Leveler, k int) int { l.wcnt = psi; return k },
		"negative row":   func(_ *IntraRow, l *Leveler, k int) int { l.wcnt = -1; return k },
		"shared wcnt":    func(w *IntraRow, _ *Leveler, k int) int { w.wcnt = psi; return k },
		"negative key":   func(_ *IntraRow, _ *Leveler, _ int) int { return -5 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			w, _ := NewIntraRow(psi)
			w.MapAddr(5) // instantiates row 0's leveler
			l := w.rows[0]
			if k := corrupt(w, l, 0); k != 0 {
				delete(w.rows, 0)
				w.rows[k] = l
			}
			var re *snap.RangeError
			if _, err := decodeLayer(t, psi, encodeLayer(w)); !errors.As(err, &re) {
				t.Fatalf("err = %v, want *snap.RangeError", err)
			}
		})
	}
}
