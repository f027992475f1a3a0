package din

import (
	"math/bits"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
)

// This file keeps the reference form of the codec — one groupCost call per
// candidate per group, a separate vulnerability pass — as the oracle the
// fused Encode is checked against.

// cost ranks a candidate group coding.
type cost struct {
	risk    int // vulnerable victims + weighted edge aggressors
	changes int // cells programmed
}

// better reports whether a is preferable to b: lower risk first, then fewer
// programmed cells, with a (identity) winning exact ties for stable aux bits.
func better(a, b cost) bool {
	if a.risk != b.risk {
		return a.risk < b.risk
	}
	return a.changes <= b.changes
}

// groupCost evaluates writing cand over old within one 16-cell group,
// counting in-group victims, the boundary pair with the already-fixed cell
// to the left, and segment-edge aggressors.
func groupCost(old, cand uint16, hasLeft bool, leftOld, leftNew uint64, atSegStart, atSegEnd bool) cost {
	resets := old &^ cand     // cells pulsed 1→0
	idle := ^(old ^ cand)     // cells not programmed
	amorphous := idle & ^cand // idle cells reading 0
	changes := bits.OnesCount16(old ^ cand)
	risk := bits.OnesCount16(amorphous & ((resets << 1) | (resets >> 1)))
	if hasLeft {
		leftIdle := leftOld == leftNew
		if leftIdle && leftNew == 0 && resets&1 != 0 {
			risk++ // our bit 0 resetting victimises the fixed left cell
		}
		if leftOld == 1 && leftNew == 0 && amorphous&1 != 0 {
			risk++ // the left cell's RESET victimises our idle bit 0
		}
	}
	if atSegStart && resets&1 != 0 {
		risk += edgePenalty // threatens previous slot's line (unverifiable)
	}
	if atSegEnd && resets&(1<<15) != 0 {
		risk += edgePenalty // threatens next slot's line
	}
	return cost{risk: risk, changes: changes}
}

// oracleEncode is the group-at-a-time greedy encoder.
func oracleEncode(st *Stats, aux *uint32, data, stored pcm.Line) pcm.Line {
	var newAux uint32
	out := data
	identityChanges, chosenChanges := 0, 0
	for g := 0; g < GroupsPerLine; g++ {
		w, s := g*GroupBits/64, uint(g*GroupBits%64)
		oldBits := uint16(stored[w] >> s)
		plain := uint16(data[w] >> s)
		inv := ^plain
		var leftOldBit, leftNewBit uint64
		posInSeg := g % groupsPerSeg
		hasLeft := posInSeg != 0
		if hasLeft {
			leftOldBit = stored.Bit(g*GroupBits - 1)
			leftNewBit = out.Bit(g*GroupBits - 1)
		}
		atSegStart := posInSeg == 0
		atSegEnd := posInSeg == groupsPerSeg-1
		cPlain := groupCost(oldBits, plain, hasLeft, leftOldBit, leftNewBit, atSegStart, atSegEnd)
		cInv := groupCost(oldBits, inv, hasLeft, leftOldBit, leftNewBit, atSegStart, atSegEnd)
		choose, chosen := plain, cPlain
		if !better(cPlain, cInv) {
			choose, chosen = inv, cInv
			newAux |= 1 << uint(g)
			st.GroupsInverted++
		}
		identityChanges += cPlain.changes
		chosenChanges += chosen.changes
		out[w] = (out[w] &^ (uint64(0xffff) << s)) | uint64(choose)<<s
	}
	if identityChanges > chosenChanges {
		st.BitsSaved += uint64(identityChanges - chosenChanges)
	}
	*aux = newAux
	st.Encodes++
	reset, _ := pcm.DiffMasks(stored, out)
	st.VulnerableCells += uint64(Vulnerable(reset, stored, out).PopCount())
	return out
}

// randomLine draws a line whose words mix dense random bits with sparse
// and constant patterns, so ties, all-zero groups and edge cells all occur.
func randomLine(r *rng.Rand) pcm.Line {
	var l pcm.Line
	for w := range l {
		switch r.Intn(4) {
		case 0:
			l[w] = r.Uint64()
		case 1:
			l[w] = r.Uint64() & r.Uint64() & r.Uint64()
		case 2:
			l[w] = r.Uint64() | r.Uint64() | r.Uint64()
		default:
			l[w] = [...]uint64{0, ^uint64(0), 0x8000000000000001, 0x0001000100010001}[r.Intn(4)]
		}
	}
	return l
}

// TestEncodeMatchesOracle drives the fused encoder and the oracle through
// the same write sequences and compares stored images, polarity words and
// all four counters after every write.
func TestEncodeMatchesOracle(t *testing.T) {
	r := rng.New(7)
	c := NewCodec()
	var want Stats
	for line := 0; line < 200; line++ {
		stored := randomLine(r)
		for write := 0; write < 50; write++ {
			data := randomLine(r)
			var gotAux, wantAux uint32
			got := c.Encode(&gotAux, data, stored)
			ref := oracleEncode(&want, &wantAux, data, stored)
			if got != ref || gotAux != wantAux {
				t.Fatalf("line %d write %d: image/aux %x/%#x, oracle %x/%#x", line, write, got, gotAux, ref, wantAux)
			}
			if c.Stats != want {
				t.Fatalf("line %d write %d: stats %+v, oracle %+v", line, write, c.Stats, want)
			}
			if c.Decode(gotAux, got) != data {
				t.Fatalf("line %d write %d: decode does not invert encode", line, write)
			}
			stored = got
		}
	}
}

// BenchmarkDINEncode is the pinned DIN layer benchmark: one line encode
// over a rolling stored image.
func BenchmarkDINEncode(b *testing.B) {
	r := rng.New(1)
	lines := make([]pcm.Line, 256)
	for i := range lines {
		lines[i] = randomLine(r)
	}
	c := NewCodec()
	var aux uint32
	stored := lines[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stored = c.Encode(&aux, lines[i&255], stored)
	}
}
