package pcm

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"sdpcm/internal/snap"
)

// refStore is the reference model of Device: plain maps keyed by line
// address, the same background function, and the row-major chunk
// bookkeeping the checkpoint format was defined with (a chunk is 16
// consecutive slots of one row, materialized by the first Write, effective
// Disturb or Side of any of its lines). It has no tiles, no residency words
// and no arenas, so its EncodeState is row-major by construction and serves
// as the oracle for Device's tiled store.
type refStore struct {
	geo    Geometry
	seed   uint64
	zero   bool
	timing Timing

	cells  map[LineAddr]Line // resident lines
	side   map[LineAddr]*Side
	chunks map[refChunk]bool // row-major chunks a row-major store would hold
	stats  []Stats
}

// refChunkLines is the checkpoint's row-major chunk width.
const refChunkLines = 16

type refChunk struct{ bank, index int }

func newRefStore(cfg Config) *refStore {
	geo, err := NewGeometry(cfg.Banks)
	if err != nil {
		panic(err)
	}
	t := cfg.Timing
	if t == (Timing{}) {
		t = DefaultTiming
	}
	r := &refStore{geo: geo, seed: cfg.FillSeed, zero: cfg.ZeroFill, timing: t}
	r.reset()
	return r
}

func (r *refStore) reset() {
	r.cells = map[LineAddr]Line{}
	r.side = map[LineAddr]*Side{}
	r.chunks = map[refChunk]bool{}
	r.stats = make([]Stats, r.geo.Banks())
}

func (r *refStore) chunkOf(a LineAddr) refChunk {
	loc := r.geo.Locate(a)
	return refChunk{loc.Bank, loc.Row*(LinesPerPage/refChunkLines) + loc.Slot/refChunkLines}
}

func (r *refStore) bankStats(a LineAddr) *Stats { return &r.stats[r.geo.Locate(a).Bank] }

func (r *refStore) Peek(a LineAddr) Line {
	if l, ok := r.cells[a]; ok {
		return l
	}
	if r.zero {
		return Line{}
	}
	return fillLine(r.seed, a)
}

func (r *refStore) Read(a LineAddr) Line {
	r.bankStats(a).Reads++
	return r.Peek(a)
}

func (r *refStore) Write(a LineAddr, new Line, kind WriteKind) WriteResult {
	reset, set := DiffMasks(r.Peek(a), new)
	nr, ns := reset.PopCount(), set.PopCount()
	r.cells[a] = new
	r.chunks[r.chunkOf(a)] = true
	st := r.bankStats(a)
	st.Writes++
	st.ResetPulses += uint64(nr)
	st.SetPulses += uint64(ns)
	if kind == CorrectionWrite {
		st.CorrectionWrites++
		st.CorrectionResetPulses += uint64(nr)
	}
	return WriteResult{Reset: reset, Set: set, Cycles: r.timing.WriteCycles(nr, ns)}
}

func (r *refStore) Disturb(a LineAddr, flips Mask) int {
	old := r.Peek(a)
	n := flips.AndNot(Mask(old)).PopCount()
	if n > 0 {
		r.cells[a] = Line(Mask(old).Or(flips))
		r.chunks[r.chunkOf(a)] = true
		r.bankStats(a).DisturbedBits += uint64(n)
	}
	return n
}

func (r *refStore) Side(a LineAddr) *Side {
	r.chunks[r.chunkOf(a)] = true
	s, ok := r.side[a]
	if !ok {
		s = &Side{}
		r.side[a] = s
	}
	return s
}

func (r *refStore) PeekSide(a LineAddr) Side {
	if s, ok := r.side[a]; ok {
		return *s
	}
	return Side{}
}

// aux returns the bank's nonzero polarity words in address order.
func (r *refStore) aux(bank int) []LineAux {
	var out []LineAux
	for a, s := range r.side {
		if s.Aux != 0 && r.geo.Locate(a).Bank == bank {
			out = append(out, LineAux{Addr: a, Aux: s.Aux})
		}
	}
	slices.SortFunc(out, func(x, y LineAux) int { return cmp.Compare(x.Addr, y.Addr) })
	return out
}

// chunkAddr is the address of line i of a bank's row-major chunk.
func (r *refStore) chunkAddr(c refChunk, i int) LineAddr {
	perRow := LinesPerPage / refChunkLines
	return r.geo.AddrOf(Loc{Bank: c.bank, Row: c.index / perRow, Slot: c.index%perRow*refChunkLines + i})
}

func (r *refStore) EncodeState(e *snap.Encoder) {
	e.Begin("pcm.device")
	for b := range r.stats {
		encodeStats(e, r.stats[b])
		var idx []int
		for c := range r.chunks {
			if c.bank == b {
				idx = append(idx, c.index)
			}
		}
		slices.Sort(idx)
		e.Uvarint(uint64(len(idx)))
		for _, ci := range idx {
			c := refChunk{b, ci}
			var resident uint64
			for i := 0; i < refChunkLines; i++ {
				if _, ok := r.cells[r.chunkAddr(c, i)]; ok {
					resident |= 1 << i
				}
			}
			e.Uvarint(uint64(ci))
			e.U64(resident)
			for i := 0; i < refChunkLines; i++ {
				if resident&(1<<i) != 0 {
					EncodeLine(e, r.cells[r.chunkAddr(c, i)])
				}
			}
		}
	}
	e.End()
}

func (r *refStore) DecodeState(d *snap.Decoder) error {
	r.reset()
	d.Begin("pcm.device")
	for b := range r.stats {
		decodeStats(d, &r.stats[b])
		n := d.Uvarint()
		for k := uint64(0); k < n && d.Err() == nil; k++ {
			c := refChunk{b, int(d.Uvarint())}
			resident := d.U64()
			r.chunks[c] = true
			for i := 0; i < refChunkLines; i++ {
				if resident&(1<<i) != 0 {
					r.cells[r.chunkAddr(c, i)] = DecodeLine(d)
				}
			}
		}
	}
	d.End()
	return d.Err()
}

// deviceAux collects Device.VisitAux in address order.
func deviceAux(d *Device, bank int) []LineAux {
	var out []LineAux
	d.VisitAux(bank, func(a LineAddr, w uint32) { out = append(out, LineAux{Addr: a, Aux: w}) })
	slices.SortFunc(out, func(x, y LineAux) int { return cmp.Compare(x.Addr, y.Addr) })
	return out
}

func encodeDevice(st interface{ EncodeState(*snap.Encoder) }) []byte {
	e := snap.NewEncoder(1)
	st.EncodeState(e)
	return e.Finish()
}

// randomLine returns a line whose words have about the given set-bit
// density in eighths (1 = sparse flip masks, 4 = data images).
func randomLine(rng *rand.Rand, eighths int) Line {
	var l Line
	for i := range l {
		w := rng.Uint64()
		switch eighths {
		case 1:
			w &= rng.Uint64() & rng.Uint64()
		case 2:
			w &= rng.Uint64()
		}
		l[i] = w
	}
	return l
}

// TestDeviceMatchesReference drives Device and refStore with the same
// random op streams — Write, Disturb, Peek, Read, Side, PeekSide, VisitAux,
// EncodeState and DecodeState — and requires identical results after every
// op: equal line images, pulse maps, flip counts, side words, polarity-word
// sets and checkpoint bytes. Bank counts 1, 4 and 16 with row counts that
// are and are not a multiple of the tile height cover the tile border and
// the partial last tile row; addresses cluster around a few hot rows so
// neighbourhoods overlap the way a write's verify set does.
func TestDeviceMatchesReference(t *testing.T) {
	for _, c := range []struct{ banks, rows int }{
		{1, 7}, {1, 8}, {4, 6}, {4, 13}, {16, 5}, {16, 4},
	} {
		for _, zero := range []bool{false, true} {
			t.Run(fmt.Sprintf("banks=%d/rows=%d/zero=%v", c.banks, c.rows, zero), func(t *testing.T) {
				cfg := Config{Pages: c.banks * c.rows, Banks: c.banks, FillSeed: 11, ZeroFill: zero}
				checkAgainstReference(t, cfg, uint64(c.banks*100+c.rows), 4000)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, cfg Config, seed uint64, ops int) {
	t.Helper()
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefStore(cfg)
	rng := rand.New(rand.NewPCG(seed, 1))
	geo := d.Geometry()
	// Hot spots: a handful of (bank, row, slot) anchors; each op lands on an
	// anchor or one of its row/slot neighbours, so tiles fill, straddle
	// borders and get revisited.
	anchors := make([]Loc, 6)
	for i := range anchors {
		anchors[i] = Loc{Bank: rng.IntN(geo.Banks()), Row: rng.IntN(d.RowsPerBank), Slot: rng.IntN(LinesPerPage)}
	}
	pick := func() LineAddr {
		if rng.IntN(8) == 0 {
			return LineAddr(rng.IntN(d.Lines()))
		}
		l := anchors[rng.IntN(len(anchors))]
		l.Row = min(max(l.Row+rng.IntN(5)-2, 0), d.RowsPerBank-1)
		l.Slot = min(max(l.Slot+rng.IntN(5)-2, 0), LinesPerPage-1)
		return geo.AddrOf(l)
	}
	for op := 0; op < ops; op++ {
		a := pick()
		switch k := rng.IntN(10); k {
		case 0, 1:
			data, kind := randomLine(rng, 4), WriteKind(rng.IntN(2))
			if got, want := d.Write(a, data, kind), ref.Write(a, data, kind); got != want {
				t.Fatalf("op %d: Write(%d) = %+v, reference %+v", op, a, got, want)
			}
		case 2, 3:
			flips := Mask(randomLine(rng, 1))
			if got, want := d.Disturb(a, flips), ref.Disturb(a, flips); got != want {
				t.Fatalf("op %d: Disturb(%d) flipped %d, reference %d", op, a, got, want)
			}
		case 4:
			if got, want := d.Peek(a), ref.Peek(a); got != want {
				t.Fatalf("op %d: Peek(%d) differs from the reference", op, a)
			}
		case 5:
			if got, want := d.Read(a), ref.Read(a); got != want {
				t.Fatalf("op %d: Read(%d) differs from the reference", op, a)
			}
		case 6:
			s, rs := d.Side(a), ref.Side(a)
			if *s != *rs {
				t.Fatalf("op %d: Side(%d) = %+v, reference %+v", op, a, *s, *rs)
			}
			v := Side{Aux: uint32(rng.IntN(4)), ECP: uint32(rng.IntN(3))}
			*s, *rs = v, v
		case 7:
			if got, want := d.PeekSide(a), ref.PeekSide(a); got != want {
				t.Fatalf("op %d: PeekSide(%d) = %+v, reference %+v", op, a, got, want)
			}
		case 8:
			bank := rng.IntN(geo.Banks())
			if got, want := deviceAux(d, bank), ref.aux(bank); !slices.Equal(got, want) {
				t.Fatalf("op %d: VisitAux(%d) = %v, reference %v", op, bank, got, want)
			}
		case 9:
			got, want := encodeDevice(d), encodeDevice(ref)
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: EncodeState differs from the row-major reference (%d vs %d bytes)", op, len(got), len(want))
			}
			if rng.IntN(2) == 0 {
				continue
			}
			// Restore both from the checkpoint and carry on with the copies:
			// side state is not part of the device section, so both start
			// over with zero side words.
			d2, err := NewDevice(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref2 := newRefStore(cfg)
			for _, st := range []interface{ DecodeState(*snap.Decoder) error }{d2, ref2} {
				dec, err := snap.NewDecoder(got, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.DecodeState(dec); err != nil {
					t.Fatalf("op %d: DecodeState: %v", op, err)
				}
			}
			if again := encodeDevice(d2); !bytes.Equal(again, got) {
				t.Fatalf("op %d: EncodeState after DecodeState is not the same checkpoint", op)
			}
			d, ref = d2, ref2
		}
	}
	for a := LineAddr(0); a < LineAddr(d.Lines()); a++ {
		if d.Peek(a) != ref.Peek(a) || d.PeekSide(a) != ref.PeekSide(a) {
			t.Fatalf("final state of line %d differs from the reference", a)
		}
	}
	for b := 0; b < geo.Banks(); b++ {
		if d.BankStats(b) != ref.stats[b] {
			t.Fatalf("bank %d stats %+v, reference %+v", b, d.BankStats(b), ref.stats[b])
		}
	}
	if got, want := encodeDevice(d), encodeDevice(ref); !bytes.Equal(got, want) {
		t.Fatal("final EncodeState differs from the row-major reference")
	}
}

// TestDecodeStateSideOnlyChunk: a row-major chunk materialized only through
// Side carries no resident line, yet survives a checkpoint round trip — the
// restored device emits it again before any of its lines is touched.
func TestDecodeStateSideOnlyChunk(t *testing.T) {
	cfg := Config{Pages: 64, Banks: 16, FillSeed: 3}
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefStore(cfg)
	a := AddrOf(Loc{Bank: 3, Row: 2, Slot: 37})
	d.Side(a).ECP = 5
	ref.Side(a).ECP = 5
	data := encodeDevice(d)
	if !bytes.Equal(data, encodeDevice(ref)) {
		t.Fatal("side-only chunk encodes differently from the reference")
	}
	d2, _ := NewDevice(cfg)
	dec, err := snap.NewDecoder(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.DecodeState(dec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeDevice(d2), data) {
		t.Fatal("side-only chunk lost in a checkpoint round trip")
	}
	if len(ref.chunks) != 1 {
		t.Fatalf("reference holds %d chunks, want 1", len(ref.chunks))
	}
}
