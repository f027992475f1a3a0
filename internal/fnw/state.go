package fnw

import (
	"fmt"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the codec's counters and the flip words of the
// lines it coded (aux, ascending address order, supplied by the owner of
// the words). Nil-safe: the identity form encodes as absent.
func (c *Codec) EncodeState(e *snap.Encoder, aux []pcm.LineAux) {
	e.Begin("fnw.codec")
	e.Bool(c != nil)
	if c != nil {
		e.U64(c.Stats.Encodes)
		e.U64(c.Stats.GroupsFlipped)
		e.U64(c.Stats.BitsSaved)
		pcm.EncodeAux(e, aux)
	}
	e.End()
}

// DecodeState restores state written by EncodeState and returns the flip
// words for the caller to install; lines is the device's line count the
// words are checked against. The receiver's presence (nil or not, fixed by
// the scheme) must match the checkpoint's.
func (c *Codec) DecodeState(d *snap.Decoder, lines int) ([]pcm.LineAux, error) {
	d.Begin("fnw.codec")
	present := d.Bool()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if present != (c != nil) {
		return nil, fmt.Errorf("fnw: checkpoint codec presence %t does not match this run's %t", present, c != nil)
	}
	var aux []pcm.LineAux
	if present {
		c.Stats.Encodes = d.U64()
		c.Stats.GroupsFlipped = d.U64()
		c.Stats.BitsSaved = d.U64()
		aux = pcm.DecodeAux(d, lines)
	}
	d.End()
	return aux, d.Err()
}
