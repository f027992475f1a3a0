package metrics

import (
	"errors"
	"testing"

	"sdpcm/internal/snap"
)

// stateRegistry builds a registry with every kind of instrument and a
// wrapped event ring: the shape DecodeState restores into.
func stateRegistry(fill bool) *Registry {
	r := New()
	r.EnableTrace(4)
	c, g := r.Counter("c"), r.Gauge("g")
	h := r.Histogram("h", []uint64{1, 10, 100})
	if fill {
		c.Add(3)
		g.Set(7)
		for _, v := range []uint64{0, 5, 50, 500} {
			h.Observe(v)
		}
		for i := uint64(0); i < 6; i++ {
			r.Trace().Emit(i, EvWDInjected, i, i, 0)
		}
	}
	return r
}

func encodeRegistry(r *Registry) []byte {
	e := snap.NewEncoder(1)
	r.EncodeState(e)
	return e.Finish()
}

func decodeRegistry(r *Registry, data []byte) error {
	d, err := snap.NewDecoder(data, 1)
	if err != nil {
		return err
	}
	if err := r.DecodeState(d); err != nil {
		return err
	}
	return d.Close()
}

func TestStateRoundTrip(t *testing.T) {
	want := encodeRegistry(stateRegistry(true))
	r := stateRegistry(false)
	if err := decodeRegistry(r, want); err != nil {
		t.Fatal(err)
	}
	if got := encodeRegistry(r); string(got) != string(want) {
		t.Fatal("re-encoded registry differs from the decoded bytes")
	}
}

// TestDecodeStateRejectsHugeBoundsCount: a histogram claiming 2^40 bounds
// in a few bytes used to size make([]uint64, 2^40) and exhaust memory; it
// must fail with a *snap.RangeError.
func TestDecodeStateRejectsHugeBoundsCount(t *testing.T) {
	for _, nb := range []uint64{1 << 40, 1 << 62, 2} {
		e := snap.NewEncoder(1)
		e.Begin("metrics.registry")
		e.Bool(true)
		e.Uvarint(0) // counters
		e.Uvarint(0) // gauges
		e.Uvarint(1) // histograms
		e.String("h")
		e.Uvarint(nb)
		e.U64(1) // one bound of the claimed nb
		e.End()
		var re *snap.RangeError
		if err := decodeRegistry(stateRegistry(false), e.Finish()); !errors.As(err, &re) {
			t.Fatalf("%d bounds: err = %v, want *snap.RangeError", nb, err)
		}
	}
}

// FuzzDecodeState: any bytes decode into a result or an error, never a
// panic. Seeded from the registry's own encodings.
func FuzzDecodeState(f *testing.F) {
	f.Add(encodeRegistry(stateRegistry(true)))
	f.Add(encodeRegistry(stateRegistry(false)))
	f.Add(encodeRegistry(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = decodeRegistry(stateRegistry(false), data)
	})
}
