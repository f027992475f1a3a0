package din

import (
	"fmt"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the codec's counters and the polarity words of the
// lines it coded (aux, ascending address order, supplied by the owner of
// the words). Nil-safe: the identity form encodes as absent, so a scheme
// with encoding disabled round-trips through a checkpoint.
func (c *Codec) EncodeState(e *snap.Encoder, aux []pcm.LineAux) {
	e.Begin("din.codec")
	e.Bool(c != nil)
	if c != nil {
		e.U64(c.Stats.Encodes)
		e.U64(c.Stats.GroupsInverted)
		e.U64(c.Stats.VulnerableCells)
		e.U64(c.Stats.BitsSaved)
		pcm.EncodeAux(e, aux)
	}
	e.End()
}

// DecodeState restores state written by EncodeState and returns the
// polarity words for the caller to install; lines is the device's line
// count the words are checked against. The receiver's presence (nil or
// not, fixed by the scheme) must match the checkpoint's.
func (c *Codec) DecodeState(d *snap.Decoder, lines int) ([]pcm.LineAux, error) {
	d.Begin("din.codec")
	present := d.Bool()
	if err := checkPresence(d, "din", present, c != nil); err != nil {
		return nil, err
	}
	var aux []pcm.LineAux
	if present {
		c.Stats.Encodes = d.U64()
		c.Stats.GroupsInverted = d.U64()
		c.Stats.VulnerableCells = d.U64()
		c.Stats.BitsSaved = d.U64()
		aux = pcm.DecodeAux(d, lines)
	}
	d.End()
	return aux, d.Err()
}

// checkPresence verifies the checkpoint and the running scheme agree on
// whether the codec is enabled; presence is fixed by the scheme, so a
// mismatch means the checkpoint belongs to a different configuration.
func checkPresence(d *snap.Decoder, name string, got, want bool) error {
	if err := d.Err(); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: checkpoint codec presence %t does not match this run's %t", name, got, want)
	}
	return nil
}
