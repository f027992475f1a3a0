package din

import (
	"testing"
	"testing/quick"

	"sdpcm/internal/pcm"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
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

func TestSequentialWritesRoundTrip(t *testing.T) {
	// The stored image evolves across writes; decode must always track the
	// latest coding.
	c := NewCodec()
	var stored pcm.Line
	var aux uint32
	for i := 0; i < 50; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = uint64(i)*0x9e3779b97f4a7c15 + uint64(w)*12345
		}
		stored = c.Encode(&aux, data, stored)
		if c.Decode(aux, stored) != data {
			t.Fatalf("roundtrip failed at write %d", i)
		}
	}
}

func TestNilCodecIsIdentity(t *testing.T) {
	var c *Codec
	var data, stored pcm.Line
	data[0] = 0xabcdef
	aux := uint32(0xdead)
	img := c.Encode(&aux, data, stored)
	if img != data {
		t.Fatal("nil codec must store data verbatim")
	}
	if aux != 0xdead {
		t.Fatal("nil codec must leave the polarity word alone")
	}
	if c.Decode(aux, img) != img {
		t.Fatal("nil codec decode must be identity")
	}
}

func TestVulnerableDefinition(t *testing.T) {
	// Cell 5 fires RESET (1→0); cells 4 and 6 idle amorphous: both victims.
	var old, new pcm.Line
	old.SetBit(5, 1)
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(6) != 1 || v.Bit(4) != 1 {
		t.Fatalf("victims = %v, want {4,6}", v.Bits())
	}
	if v.PopCount() != 2 {
		t.Fatalf("victims = %v", v.Bits())
	}
}

func TestVulnerableExcludesNonIdleAndCrystalline(t *testing.T) {
	var old, new pcm.Line
	// Cell 5 RESET. Cell 6: idle crystalline (1→1): not a victim.
	old.SetBit(5, 1)
	old.SetBit(6, 1)
	new.SetBit(6, 1)
	// Cell 4: programmed this write (0→1): not idle, not a victim.
	new.SetBit(4, 1)
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Any() {
		t.Fatalf("victims = %v, want none", v.Bits())
	}
}

func TestVulnerableIsSingleStep(t *testing.T) {
	// A run of idle zeros next to one RESET: only the immediately adjacent
	// cell is vulnerable in one step (the rewrite loop iterates).
	var old, new pcm.Line
	old.SetBit(10, 1) // RESET at 10; 11,12,13... idle amorphous
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(11) != 1 || v.Bit(12) != 0 {
		t.Fatalf("victims = %v, want {9,11}", v.Bits())
	}
}

func TestVulnerableRespectsChipSegments(t *testing.T) {
	// Cell 63 (end of chip 0) RESET must not victimise cell 64 (start of
	// chip 1) — they are on different chips.
	var old, new pcm.Line
	old.SetBit(63, 1)
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(64) != 0 {
		t.Fatal("vulnerability must not cross chip segment boundaries")
	}
	if v.Bit(62) != 1 {
		t.Fatal("in-segment victim at 62 expected")
	}
}

func TestVulnerableExcludesAggressors(t *testing.T) {
	// A cell that itself fires a pulse this write is not idle even when the
	// aggressor mask includes it.
	var old, new pcm.Line
	old.SetBit(5, 1)
	old.SetBit(6, 1) // both RESET
	reset, _ := pcm.DiffMasks(old, new)
	v := Vulnerable(reset, old, new)
	if v.Bit(5) != 0 && v.Bit(6) != 0 {
		// fine
	}
	if v.Bit(5) == 1 || v.Bit(6) == 1 {
		t.Fatalf("aggressor cells cannot be victims: %v", v.Bits())
	}
}

func TestEncodingReducesVulnerability(t *testing.T) {
	// Across random writes, the coded image must create fewer victims on
	// average than identity storage.
	c := NewCodec()
	var codedVictims, plainVictims int
	seed := uint64(12345)
	next := func() uint64 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	count := func(old, new pcm.Line) int {
		reset, _ := pcm.DiffMasks(old, new)
		return Vulnerable(reset, old, new).PopCount()
	}
	var storedCoded, storedPlain pcm.Line
	var aux uint32
	for i := 0; i < 500; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = next()
		}
		img := c.Encode(&aux, data, storedCoded)
		codedVictims += count(storedCoded, img)
		storedCoded = img
		plainVictims += count(storedPlain, data)
		storedPlain = data
	}
	if codedVictims >= plainVictims {
		t.Fatalf("coding did not reduce victims: coded=%d plain=%d",
			codedVictims, plainVictims)
	}
}

func TestEdges(t *testing.T) {
	var reset pcm.Mask
	reset.SetBit(0)   // chip 0 left edge
	reset.SetBit(127) // chip 1 right edge
	reset.SetBit(300) // interior of chip 4
	e := Edges(reset)
	if !e.LeftAggressor[0] || e.RightAggressor[0] {
		t.Fatalf("segment 0 edges = %+v", e)
	}
	if !e.RightAggressor[1] || e.LeftAggressor[1] {
		t.Fatalf("segment 1 edges = %+v", e)
	}
	for s := 2; s < 8; s++ {
		if e.LeftAggressor[s] || e.RightAggressor[s] {
			t.Fatalf("segment %d must have no aggressors", s)
		}
	}
}

func TestStatsProgress(t *testing.T) {
	c := NewCodec()
	var stored pcm.Line
	var aux uint32
	for i := 0; i < 10; i++ {
		var data pcm.Line
		for w := range data {
			data[w] = uint64(i*7+w) * 0x123456789
		}
		stored = c.Encode(&aux, data, stored)
	}
	if c.Stats.Encodes != 10 {
		t.Fatalf("Encodes = %d", c.Stats.Encodes)
	}
}

func TestConstantsConsistent(t *testing.T) {
	if GroupsPerLine*GroupBits != pcm.LineBits {
		t.Fatal("group partitioning must tile the line")
	}
	if SegmentBits%GroupBits != 0 {
		t.Fatal("groups must not straddle chip segments")
	}
	if AuxBitsPerLine != 32 {
		t.Fatalf("aux overhead = %d bits, want 32", AuxBitsPerLine)
	}
}
