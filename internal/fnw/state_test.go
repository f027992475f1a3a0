package fnw

import (
	"errors"
	"testing"

	"sdpcm/internal/snap"
)

// fnwSection hand-builds an fnw.codec section with the given raw word list.
func fnwSection(n uint64, words ...[2]uint64) []byte {
	e := snap.NewEncoder(1)
	e.Begin("fnw.codec")
	e.Bool(true)
	for i := 0; i < 3; i++ {
		e.U64(0)
	}
	e.Uvarint(n)
	for _, w := range words {
		e.U64(w[0])
		e.Uvarint(w[1])
	}
	e.End()
	return e.Finish()
}

// TestDecodeStateRejectsCorruptWords: a flip-word count beyond the device,
// and out-of-range words, fail with a *snap.RangeError before anything is
// sized or installed from them.
func TestDecodeStateRejectsCorruptWords(t *testing.T) {
	cases := map[string][]byte{
		"huge count":   fnwSection(1 << 63),
		"line off end": fnwSection(1, [2]uint64{1 << 40, 1}),
		"out of order": fnwSection(2, [2]uint64{9, 1}, [2]uint64{3, 1}),
		"wide word":    fnwSection(1, [2]uint64{9, 1 << 40}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			d, err := snap.NewDecoder(data, 1)
			if err != nil {
				t.Fatal(err)
			}
			var re *snap.RangeError
			if _, err := NewCodec().DecodeState(d, 1024); !errors.As(err, &re) {
				t.Fatalf("err = %v, want *snap.RangeError", err)
			}
		})
	}
}
