package vm

import (
	"errors"
	"testing"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/rng"
	"sdpcm/internal/snap"
)

// sparseVPages draws trace-style virtual pages: a few dense clusters at
// scattered bases (heap, stack, mappings) plus isolated pages anywhere in
// the 57-bit vpage space a trace record can name.
func sparseVPages(r *rng.Rand, n int) []uint64 {
	bases := []uint64{0, 1 << 20, 0x7ff_ffff_f000, 1<<57 - 64}
	out := make([]uint64, 0, n)
	for len(out) < n {
		if r.Intn(4) == 0 {
			out = append(out, r.Uint64()>>7)
		} else {
			out = append(out, bases[r.Intn(len(bases))]+r.Uint64n(48))
		}
	}
	return out
}

// TestPageTableMatchesMap cross-checks the radix table against a plain map
// under sparse, trace-style vpages: every lookup, the mapped count and the
// ascending visit order.
func TestPageTableMatchesMap(t *testing.T) {
	r := rng.New(3)
	pt := NewPageTable()
	ref := map[uint64]Translation{}
	for i, v := range sparseVPages(r, 3000) {
		tr := Translation{Frame: pcm.PageAddr(i), Tag: alloc.Tag{N: 1 + i%2, M: 2}}
		pt.Map(v, tr)
		ref[v] = tr
	}
	if pt.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", pt.Len(), len(ref))
	}
	for v := range ref {
		for _, probe := range []uint64{v, v + 1, v - 1} {
			got, ok := pt.Lookup(probe)
			w, wok := ref[probe]
			if ok != wok || got != w {
				t.Fatalf("Lookup(%#x) = %+v,%t, want %+v,%t", probe, got, ok, w, wok)
			}
		}
	}
	var prev uint64
	n := 0
	pt.visit(func(v uint64, tr Translation) {
		if n > 0 && v <= prev {
			t.Fatalf("visit out of order: %#x after %#x", v, prev)
		}
		if ref[v] != tr {
			t.Fatalf("visit(%#x) = %+v, want %+v", v, tr, ref[v])
		}
		prev = v
		n++
	})
	if n != len(ref) {
		t.Fatalf("visited %d pages, want %d", n, len(ref))
	}
}

func encodeAS(as *AddressSpace) []byte {
	e := snap.NewEncoder(1)
	as.EncodeState(e)
	return e.Finish()
}

func decodeAS(as *AddressSpace, data []byte) error {
	d, err := snap.NewDecoder(data, 1)
	if err != nil {
		return err
	}
	if err := as.DecodeState(d); err != nil {
		return err
	}
	return d.Close()
}

// TestSparseCheckpointRoundTrip: an address space demand-paged from sparse
// vpages survives a checkpoint, and both copies go on translating the same.
func TestSparseCheckpointRoundTrip(t *testing.T) {
	a := newAlloc(t)
	as, err := NewAddressSpace(a, alloc.Tag11, 0)
	if err != nil {
		t.Fatal(err)
	}
	vpages := sparseVPages(rng.New(5), 400)
	for _, v := range vpages {
		if _, _, err := as.Translate(v); err != nil {
			t.Fatal(err)
		}
	}
	data := encodeAS(as)
	b, err := alloc.New(2048, 128)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewAddressSpace(b, alloc.Tag11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeAS(got, data); err != nil {
		t.Fatal(err)
	}
	if string(encodeAS(got)) != string(data) {
		t.Fatal("re-encoding the decoded address space changed the checkpoint")
	}
	for _, v := range vpages {
		w, _ := as.PT.Lookup(v)
		g, ok := got.PT.Lookup(v)
		if !ok || g != w {
			t.Fatalf("vpage %#x: %+v,%t after resume, want %+v", v, g, ok, w)
		}
	}
}

// vmSection hand-builds the page-table part of a vm.addrspace section; the
// decoder must reject it before reading further.
func vmSection(n uint64, entries ...[2]uint64) []byte {
	e := snap.NewEncoder(1)
	e.Begin("vm.addrspace")
	e.Uvarint(n)
	for _, x := range entries {
		e.U64(x[0])
		e.U64(x[1])
		e.Int(1)
		e.Int(1)
	}
	e.End()
	return e.Finish()
}

// poolSection hand-builds a vm.addrspace section for a fresh 64-entry,
// 4-way TLB with the given demand-paging pool count.
func poolSection(pool uint64) []byte {
	e := snap.NewEncoder(1)
	e.Begin("vm.addrspace")
	e.Uvarint(0)
	e.Int(16)
	e.Int(4)
	for i := 0; i < 64; i++ {
		e.U64(0)
		e.U64(0)
		e.Int(0)
		e.Int(0)
		e.Bool(false)
		e.U64(0)
	}
	e.U64(0)
	e.U64(0)
	e.U64(0)
	e.Uvarint(pool)
	e.End()
	return e.Finish()
}

// TestDecodeStateRejectsCorruptPageTable pins the page-table decode
// crashers: each fails with a *snap.RangeError instead of sizing the
// table from the file or installing a frame outside physical memory.
func TestDecodeStateRejectsCorruptPageTable(t *testing.T) {
	cases := map[string][]byte{
		"huge count":     vmSection(1 << 62),
		"frame off end":  vmSection(1, [2]uint64{7, 2048}),
		"out of order":   vmSection(2, [2]uint64{9, 1}, [2]uint64{3, 2}),
		"duplicate page": vmSection(2, [2]uint64{9, 1}, [2]uint64{9, 2}),
		// Used to panic in makeslice sizing the pool.
		"huge pool": poolSection(1 << 62),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			as, err := NewAddressSpace(newAlloc(t), alloc.Tag11, 0)
			if err != nil {
				t.Fatal(err)
			}
			var re *snap.RangeError
			if err := decodeAS(as, data); !errors.As(err, &re) {
				t.Fatalf("err = %v, want *snap.RangeError", err)
			}
		})
	}
}

// BenchmarkTranslate is the pinned VM layer benchmark: translations of a
// dense, generator-style working set larger than the TLB, so most walk
// the page table.
func BenchmarkTranslate(b *testing.B) {
	a, err := alloc.New(1<<14, 1024)
	if err != nil {
		b.Fatal(err)
	}
	as, err := NewAddressSpace(a, alloc.Tag11, 0)
	if err != nil {
		b.Fatal(err)
	}
	const pages = 8192
	r := rng.New(9)
	vpages := make([]uint64, 4096)
	for i := range vpages {
		vpages[i] = r.Uint64n(pages)
	}
	for v := uint64(0); v < pages; v++ {
		if _, _, err := as.Translate(v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := as.Translate(vpages[i&4095]); err != nil {
			b.Fatal(err)
		}
	}
}
