package vm

import (
	"fmt"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// EncodeState serializes the address space's mutable state: the page table
// (in ascending virtual-page order), the TLB arrays and clock, the
// demand-paging pool and block list, and the fault counter. The allocator
// reference, tag and chunk size are construction parameters.
func (as *AddressSpace) EncodeState(e *snap.Encoder) {
	e.Begin("vm.addrspace")

	e.Uvarint(uint64(as.PT.Len()))
	as.PT.visit(func(v uint64, tr Translation) {
		e.U64(v)
		e.U64(uint64(tr.Frame))
		e.Int(tr.Tag.N)
		e.Int(tr.Tag.M)
	})

	t := as.TLB
	e.Int(t.sets)
	e.Int(t.assoc)
	for i := range t.vpage {
		e.U64(t.vpage[i])
		e.U64(uint64(t.data[i].Frame))
		e.Int(t.data[i].Tag.N)
		e.Int(t.data[i].Tag.M)
		e.Bool(t.valid[i])
		e.U64(t.stamp[i])
	}
	e.U64(t.clock)
	e.U64(t.Hits)
	e.U64(t.Misses)

	e.Uvarint(uint64(len(as.pool)))
	for _, p := range as.pool {
		e.U64(uint64(p))
	}
	e.Uvarint(uint64(len(as.blocks)))
	for _, b := range as.blocks {
		e.U64(uint64(b.Start))
		e.Int(b.Order)
		e.Int(b.Tag.N)
		e.Int(b.Tag.M)
	}
	e.U64(as.Faults)
	e.End()
}

// DecodeState restores state written by EncodeState into an address space
// freshly constructed with the same tag and chunk size. Mapped pages must
// come in strictly ascending vpage order, number no more than the
// allocator's physical pages (each maps its own frame) and map frames
// inside them; pool pages and blocks must lie inside physical memory too.
// Anything else is a *snap.RangeError.
func (as *AddressSpace) DecodeState(d *snap.Decoder) error {
	d.Begin("vm.addrspace")

	pages := uint64(as.allocator.TotalPages())
	n := d.Uvarint()
	if n > pages {
		d.Reject("vm: %d mapped pages for %d physical pages", n, pages)
	}
	as.PT = NewPageTable()
	var prev uint64
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		v := d.U64()
		tr := Translation{Frame: pcm.PageAddr(d.U64()), Tag: alloc.Tag{N: d.Int(), M: d.Int()}}
		switch {
		case i > 0 && v <= prev:
			d.Reject("vm: vpage %d out of order after %d", v, prev)
		case uint64(tr.Frame) >= pages:
			d.Reject("vm: vpage %d maps frame %d outside %d physical pages", v, tr.Frame, pages)
		default:
			as.PT.Map(v, tr)
		}
		prev = v
	}

	t := as.TLB
	if sets, assoc := d.Int(), d.Int(); d.Err() == nil && (sets != t.sets || assoc != t.assoc) {
		return fmt.Errorf("vm: checkpoint TLB geometry %d/%d does not match this run's %d/%d",
			sets, assoc, t.sets, t.assoc)
	}
	for i := range t.vpage {
		t.vpage[i] = d.U64()
		t.data[i] = Translation{Frame: pcm.PageAddr(d.U64()), Tag: alloc.Tag{N: d.Int(), M: d.Int()}}
		t.valid[i] = d.Bool()
		t.stamp[i] = d.U64()
		if t.valid[i] && uint64(t.data[i].Frame) >= pages {
			d.Reject("vm: TLB entry %d maps frame %d outside %d physical pages", i, t.data[i].Frame, pages)
		}
	}
	t.clock = d.U64()
	t.Hits = d.U64()
	t.Misses = d.U64()

	np := d.Uvarint()
	if np > pages {
		d.Reject("vm: %d pooled pages for %d physical pages", np, pages)
	}
	as.pool = nil
	for i := uint64(0); i < np && d.Err() == nil; i++ {
		p := pcm.PageAddr(d.U64())
		if uint64(p) >= pages {
			d.Reject("vm: pooled page %d outside %d physical pages", p, pages)
		}
		as.pool = append(as.pool, p)
	}
	nb := d.Uvarint()
	if nb > pages {
		d.Reject("vm: %d blocks for %d physical pages", nb, pages)
	}
	as.blocks = nil
	for i := uint64(0); i < nb && d.Err() == nil; i++ {
		b := alloc.Block{
			Start: pcm.PageAddr(d.U64()),
			Order: d.Int(),
			Tag:   alloc.Tag{N: d.Int(), M: d.Int()},
		}
		if uint64(b.Start) >= pages {
			d.Reject("vm: block at page %d outside %d physical pages", b.Start, pages)
		}
		as.blocks = append(as.blocks, b)
	}
	as.Faults = d.U64()
	d.End()
	return d.Err()
}
