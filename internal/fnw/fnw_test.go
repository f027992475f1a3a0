package fnw

import (
	"math/bits"
	"testing"
	"testing/quick"

	"sdpcm/internal/pcm"
)

func TestRoundTrip(t *testing.T) {
	c := NewCodec()
	if err := quick.Check(func(d, s [8]uint64) bool {
		data, stored := pcm.Line(d), pcm.Line(s)
		var aux uint32
		img := c.Encode(&aux, data, stored)
		return c.Decode(aux, img) == data
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialRoundTrip(t *testing.T) {
	c := NewCodec()
	var stored pcm.Line
	var aux uint32
	for i := 0; i < 40; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = uint64(i)*0x9e3779b97f4a7c15 ^ uint64(w)<<i
		}
		stored = c.Encode(&aux, data, stored)
		if c.Decode(aux, stored) != data {
			t.Fatalf("roundtrip failed at write %d", i)
		}
	}
}

func TestHalvesWorstCaseProgramming(t *testing.T) {
	// Property: the chosen codeword never programs more than half of any
	// group — Flip-N-Write's defining guarantee.
	c := NewCodec()
	if err := quick.Check(func(d, s [8]uint64) bool {
		data, stored := pcm.Line(d), pcm.Line(s)
		var aux uint32
		img := c.Encode(&aux, data, stored)
		reset, set := pcm.DiffMasks(stored, img)
		changed := reset.Or(set)
		for g := 0; g < GroupsPerLine; g++ {
			w, sh := g*GroupBits/64, uint(g*GroupBits%64)
			n := bits.OnesCount16(uint16(changed[w] >> sh))
			if n > GroupBits/2 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReducesProgrammedCells(t *testing.T) {
	// Writing the complement of the stored image must cost ~0 programmed
	// cells (every group flips).
	c := NewCodec()
	var stored pcm.Line
	for w := range stored {
		stored[w] = 0xdeadbeefcafebabe
	}
	// Prime the codec state so aux starts at identity.
	var aux uint32
	img := c.Encode(&aux, stored, pcm.Line{})
	var comp pcm.Line
	for w := range comp {
		comp[w] = ^stored[w]
	}
	img2 := c.Encode(&aux, comp, img)
	reset, set := pcm.DiffMasks(img, img2)
	if got := reset.PopCount() + set.PopCount(); got != 0 {
		t.Fatalf("complement write programmed %d cells, want 0", got)
	}
	if c.Stats.GroupsFlipped == 0 {
		t.Fatal("some groups must have been stored inverted along the way")
	}
}

func TestNilCodecIdentity(t *testing.T) {
	var c *Codec
	var d pcm.Line
	d[0] = 42
	var aux uint32
	if c.Encode(&aux, d, pcm.Line{}) != d || c.Decode(aux, d) != d {
		t.Fatal("nil codec must be identity")
	}
	if aux != 0 {
		t.Fatal("nil codec must not write a flip word")
	}
}

func TestStats(t *testing.T) {
	c := NewCodec()
	var stored pcm.Line
	var data pcm.Line
	for w := range data {
		data[w] = ^uint64(0) // all ones over all zeros: every group flips
	}
	var aux uint32
	c.Encode(&aux, data, stored)
	if c.Stats.GroupsFlipped != GroupsPerLine {
		t.Fatalf("GroupsFlipped = %d, want %d", c.Stats.GroupsFlipped, GroupsPerLine)
	}
	if c.Stats.BitsSaved != uint64(pcm.LineBits) {
		t.Fatalf("BitsSaved = %d, want %d", c.Stats.BitsSaved, pcm.LineBits)
	}
}
