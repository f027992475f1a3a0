package alloc

import (
	"errors"
	"testing"

	"sdpcm/internal/snap"
)

// stateAlloc returns a 1024-page allocator with live blocks of two tags,
// freed fragments and split free lists: every part of the encoded state.
func stateAlloc(t testing.TB) *Allocator {
	t.Helper()
	a, err := New(1024, 128)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []Block
	for i, tag := range []Tag{Tag11, Tag12, Tag23, Tag12, Tag11, Tag23} {
		b, err := a.Alloc(8<<(i%3), tag)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	a.Free(blocks[1])
	a.Free(blocks[4])
	return a
}

func encodeAlloc(a *Allocator) []byte {
	e := snap.NewEncoder(1)
	a.EncodeState(e)
	return e.Finish()
}

func decodeAlloc(a *Allocator, data []byte) error {
	d, err := snap.NewDecoder(data, 1)
	if err != nil {
		return err
	}
	if err := a.DecodeState(d); err != nil {
		return err
	}
	return d.Close()
}

func TestStateRoundTrip(t *testing.T) {
	want := encodeAlloc(stateAlloc(t))
	a := newTestAlloc(t)
	if err := decodeAlloc(a, want); err != nil {
		t.Fatal(err)
	}
	if got := encodeAlloc(a); string(got) != string(want) {
		t.Fatal("re-encoded allocator differs from the decoded bytes")
	}
}

// TestDecodeStateRejectsHugeCounts: each count the decoder sizes a slice or
// map from, claimed at 2^40 in a few bytes, used to allocate from the claim
// (or panic in makeslice); each must fail with a *snap.RangeError.
func TestDecodeStateRejectsHugeCounts(t *testing.T) {
	const huge = 1 << 40
	section := func(body func(e *snap.Encoder)) []byte {
		e := snap.NewEncoder(1)
		e.Begin("alloc.allocator")
		e.Int(1024)
		e.Int(128)
		body(e)
		e.End()
		return e.Finish()
	}
	tag := func(e *snap.Encoder) { e.Int(1); e.Int(2) }
	cases := map[string][]byte{
		"free lists": section(func(e *snap.Encoder) {
			e.Uvarint(1)
			tag(e)
			e.Uvarint(huge)
		}),
		"free list entries": section(func(e *snap.Encoder) {
			e.Uvarint(1)
			tag(e)
			e.Uvarint(1)
			e.Uvarint(huge)
			e.Int(0)
		}),
		"fragments": section(func(e *snap.Encoder) {
			e.Uvarint(0)
			e.Uvarint(1)
			tag(e)
			e.Uvarint(huge)
			e.Int(0)
		}),
		"allocated blocks": section(func(e *snap.Encoder) {
			e.Uvarint(0)
			e.Uvarint(0)
			e.Uvarint(huge)
			e.Int(0)
		}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var re *snap.RangeError
			if err := decodeAlloc(newTestAlloc(t), data); !errors.As(err, &re) {
				t.Fatalf("err = %v, want *snap.RangeError", err)
			}
		})
	}
}

// FuzzDecodeState: any bytes decode into a result or an error, never a
// panic. Seeded from the allocator's own encodings.
func FuzzDecodeState(f *testing.F) {
	f.Add(encodeAlloc(stateAlloc(f)))
	a, err := New(1024, 128)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeAlloc(a))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := New(1024, 128)
		if err != nil {
			t.Fatal(err)
		}
		_ = decodeAlloc(a, data)
	})
}
