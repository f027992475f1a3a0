package din

import (
	"errors"
	"reflect"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

func TestStateRoundTrip(t *testing.T) {
	c := NewCodec()
	c.Stats = Stats{Encodes: 4, GroupsInverted: 3, VulnerableCells: 2, BitsSaved: 1}
	aux := []pcm.LineAux{{Addr: 2, Aux: 1}, {Addr: 900, Aux: 0xffffffff}}
	e := snap.NewEncoder(1)
	c.EncodeState(e, aux)
	d, err := snap.NewDecoder(e.Finish(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := NewCodec()
	gotAux, err := got.DecodeState(d, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != c.Stats || !reflect.DeepEqual(gotAux, aux) {
		t.Fatalf("decoded %+v %v, want %+v %v", got.Stats, gotAux, c.Stats, aux)
	}
}

// dinSection hand-builds a din.codec section with the given raw word list.
func dinSection(n uint64, words ...[2]uint64) []byte {
	e := snap.NewEncoder(1)
	e.Begin("din.codec")
	e.Bool(true)
	for i := 0; i < 4; i++ {
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

// TestDecodeStateRejectsCorruptWords: a word count beyond the device, and
// words the per-line store cannot hold, fail with a *snap.RangeError before
// anything is sized or installed from them.
func TestDecodeStateRejectsCorruptWords(t *testing.T) {
	cases := map[string][]byte{
		"huge count":    dinSection(1 << 63),
		"line off end":  dinSection(1, [2]uint64{1024, 1}),
		"out of order":  dinSection(2, [2]uint64{9, 1}, [2]uint64{3, 1}),
		"repeated line": dinSection(2, [2]uint64{9, 1}, [2]uint64{9, 2}),
		"wide word":     dinSection(1, [2]uint64{9, 1 << 32}),
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
