// Package din implements a disturbance-aware data encoding in the spirit of
// DIN [10] (Jiang et al., DSN'14), which SD-PCM adopts to mitigate write
// disturbance along word-lines (§4.1).
//
// Word-line WD arises when a RESET pulse fires next to an *idle* cell that
// stores '0' (amorphous). The codec splits each line into 16-cell groups
// (four per 64-cell chip segment) and, for every group, picks identity or
// inverted polarity, greedily minimising the number of vulnerable victim
// cells the write would create — with chip-segment edge aggressors weighted
// extra (they threaten the horizontally adjacent line, which the write
// cannot verify) and fewer programmed cells as the tie-breaker. One
// auxiliary coding bit per group (32 per line, 6.25 % overhead) is stored
// alongside the row.
//
// Residual in-line word-line flips are caught by the write circuit's
// program-and-verify loop and rewritten within the write operation — the
// "additional checks and rewrites" DIN performs to ensure write reliability;
// internal/wd simulates that loop stochastically. What Figure 4(a) reports
// (≈0.4 manifested errors per write) is exactly those residual flips.
//
// Physical adjacency is confined to each chip's contiguous 64-cell share of
// the line: bit 63 of chip k is not adjacent to bit 0 of chip k+1.
package din

import (
	"fmt"
	"math/bits"

	"sdpcm/internal/pcm"
)

// GroupBits is the inversion-coding granularity.
const GroupBits = 16

// GroupsPerLine is the number of coding groups (and aux bits) per line.
const GroupsPerLine = pcm.LineBits / GroupBits

// SegmentBits is the span of physical word-line adjacency: one chip's share
// of a line.
const SegmentBits = pcm.BitsPerChipLine

// AuxBitsPerLine is the per-line coding-bit storage overhead.
const AuxBitsPerLine = GroupsPerLine

// edgePenalty is the cost weight of a chip-segment edge cell firing RESET:
// edge aggressors threaten a neighbouring line the write cannot verify, so
// they are costed as heavily as two in-line victims.
const edgePenalty = 2

// Stats aggregates codec activity.
type Stats struct {
	Encodes         uint64 // lines encoded
	GroupsInverted  uint64 // groups stored in inverted polarity
	VulnerableCells uint64 // in-line vulnerable victims left after coding
	BitsSaved       uint64 // programmed-cell reduction vs identity coding
}

// Codec encodes line data into disturbance-minimising stored images. It is
// a pure transform plus counters: each line's per-group polarity word (bit
// g set = group g stored inverted) is owned by the caller, which keeps it
// beside the line's cells (pcm.Side.Aux). A nil *Codec is valid and behaves
// as the identity transform (encoding disabled).
type Codec struct {
	Stats Stats
}

// NewCodec returns an enabled codec.
func NewCodec() *Codec { return &Codec{} }

// groupsPerSeg is the number of coding groups (16-bit lanes) in one 64-bit
// chip-segment word.
const groupsPerSeg = SegmentBits / GroupBits

// laneMask expands a segment's four polarity bits into the XOR mask that
// inverts the selected 16-bit lanes.
var laneMask = func() (m [1 << groupsPerSeg]uint64) {
	for nib := range m {
		for k := 0; k < groupsPerSeg; k++ {
			if nib&(1<<k) != 0 {
				m[nib] |= 0xffff << (k * GroupBits)
			}
		}
	}
	return m
}()

// Lane-boundary bits of a segment word: shifting a pulse map by one cell
// must not carry a group's edge cell into its neighbour lane.
const (
	laneFirst = 0x0001000100010001 // bit 0 of every lane
	laneLast  = 0x8000800080008000 // bit 15 of every lane
)

// Decode maps a stored image back to data using the line's polarity word.
func (c *Codec) Decode(aux uint32, stored pcm.Line) pcm.Line {
	if c == nil || aux == 0 {
		return stored
	}
	for w := range stored {
		stored[w] ^= laneMask[aux>>(w*groupsPerSeg)&0xf]
	}
	return stored
}

// Encode produces the stored image for writing data over the current stored
// image and records the chosen polarities in *aux. On a nil codec the
// stored image is the data itself and *aux is left alone.
//
// Both candidates of every group are scored in one pass over each segment
// word: with p the data and o the old image, identity stores p and the
// inverted candidate stores ^p, so their RESET maps are o&^p and o&p and
// their idle-amorphous maps ^(o|p) and ^o&p, and the two share one change
// count c (16-c for the inverted form). The in-group victim and edge terms
// of all four groups are counted at once in 16-bit lanes; only the boundary
// pair with the already-fixed cell to the left couples the greedy choices,
// and it is one bit per group.
func (c *Codec) Encode(aux *uint32, data, stored pcm.Line) pcm.Line {
	if c == nil {
		return data
	}
	var newAux uint32
	out := data
	identityChanges, chosenChanges, vulnerable := 0, 0, 0
	for w := range data {
		o, p := stored[w], data[w]
		resetID, resetInv := o&^p, o&p
		amorID, amorInv := ^(o | p), ^o&p
		// Per-lane risk before the left-boundary pair: in-group victims,
		// plus edgePenalty when the segment's first or last cell resets
		// (it threatens the horizontally adjacent line, unverifiable).
		riskID := laneCounts(amorID&laneNeighbours(resetID)) +
			edgePenalty*(resetID&1) + edgePenalty*(resetID>>63)<<(SegmentBits-GroupBits)
		riskInv := laneCounts(amorInv&laneNeighbours(resetInv)) +
			edgePenalty*(resetInv&1) + edgePenalty*(resetInv>>63)<<(SegmentBits-GroupBits)
		changes := laneCounts(o ^ p)
		var inv uint64 // this segment's polarity bits
		// The cell left of the group, before and after the write; the
		// segment's first group has none (1,1 disables both terms).
		leftOld, leftNew := uint64(1), uint64(1)
		for k := uint(0); k < groupsPerSeg; k++ {
			s := k * GroupBits & 63
			c0 := (leftOld | leftNew) ^ 1 // idle amorphous: our bit 0 resetting victimises it
			c1 := leftOld &^ leftNew      // resetting: it victimises our idle bit 0
			idRisk := riskID>>s&0xff + resetID>>s&c0 + amorID>>s&c1
			invRisk := riskInv>>s&0xff + resetInv>>s&c0 + amorInv>>s&c1
			// Lower risk wins, then fewer programmed cells; identity wins
			// exact ties for stable aux bits. Both keys are small, so the
			// sign of their difference is the choice.
			ch := changes >> s & 0xff
			flip := (invRisk<<5 + GroupBits - ch - (idRisk<<5 + ch)) >> 63
			inv |= flip << (k & 63)
			top := (s + GroupBits - 1) & 63
			leftOld = o >> top & 1
			leftNew = (p>>top ^ flip) & 1
		}
		nw := p ^ laneMask[inv]
		out[w] = nw
		newAux |= uint32(inv) << (w * groupsPerSeg)
		identityChanges += bits.OnesCount64(o ^ p)
		chosenChanges += bits.OnesCount64(o ^ nw)
		// Victims the chosen image's own pulses leave (Vulnerable, fused).
		agg := o &^ nw
		vulnerable += bits.OnesCount64(^(o | nw) & (agg<<1 | agg>>1))
	}
	if identityChanges > chosenChanges {
		c.Stats.BitsSaved += uint64(identityChanges - chosenChanges)
	}
	c.Stats.GroupsInverted += uint64(bits.OnesCount32(newAux))
	c.Stats.Encodes++
	c.Stats.VulnerableCells += uint64(vulnerable)
	*aux = newAux
	return out
}

// laneNeighbours returns the cells horizontally adjacent to the set cells
// of m, without crossing 16-bit lane boundaries.
func laneNeighbours(m uint64) uint64 {
	return (m<<1)&^laneFirst | (m>>1)&^laneLast
}

// laneCounts returns the population count of each 16-bit lane of x in the
// low byte of that lane.
func laneCounts(x uint64) uint64 {
	x -= x >> 1 & 0x5555555555555555
	x = x&0x3333333333333333 + x>>2&0x3333333333333333
	x = (x + x>>4) & 0x0f0f0f0f0f0f0f0f
	return (x + x>>8) & 0x00ff00ff00ff00ff
}

// Vulnerable returns the idle amorphous cells horizontally adjacent (within
// a chip segment) to an aggressor RESET pulse, given the pulse map and the
// old/new stored images. This is a single-step set: rewriting a flipped
// victim fires new RESET pulses, so internal/wd iterates this with fresh
// aggressor masks until quiescent.
func Vulnerable(aggressors pcm.Mask, old, new pcm.Line) pcm.Mask {
	var out pcm.Mask
	for seg := 0; seg < pcm.LineBits/SegmentBits; seg++ {
		w := seg // SegmentBits == 64, so one word per segment
		idle := ^(old[w] ^ new[w]) &^ aggressors[w]
		amorphous := idle & ^new[w]
		out[w] = amorphous & ((aggressors[w] << 1) | (aggressors[w] >> 1))
	}
	return out
}

// EdgeExposure describes the written line's residual word-line aggressors:
// for each chip segment, whether its first/last cell fires a RESET pulse,
// which can disturb the edge cell of the horizontally adjacent line in the
// same row.
type EdgeExposure struct {
	// LeftAggressor[s] is true when segment s's first cell fires RESET
	// (threatens the previous slot's segment-s last cell).
	LeftAggressor [pcm.LineBits / SegmentBits]bool
	// RightAggressor[s] is true when segment s's last cell fires RESET
	// (threatens the next slot's segment-s first cell).
	RightAggressor [pcm.LineBits / SegmentBits]bool
}

// Edges extracts the residual cross-line word-line aggressors from a pulse
// map (which must include any rewrite pulses).
func Edges(resetMask pcm.Mask) EdgeExposure {
	var e EdgeExposure
	for seg := 0; seg < pcm.LineBits/SegmentBits; seg++ {
		w := seg // one 64-bit word per segment
		e.LeftAggressor[seg] = resetMask[w]&1 != 0
		e.RightAggressor[seg] = resetMask[w]&(1<<63) != 0
	}
	return e
}

// sanity check at init: exactly one 64-bit word per chip segment.
var _ = func() struct{} {
	if SegmentBits != 64 {
		panic(fmt.Sprintf("din: SegmentBits = %d, expected 64", SegmentBits))
	}
	return struct{}{}
}()
