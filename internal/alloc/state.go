package alloc

import (
	"fmt"
	"slices"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// sortedTags returns the keys of a tag-keyed map ordered by (M, N), giving
// the encoder a deterministic traversal independent of map iteration order.
func sortedTags[V any](m map[Tag]V) []Tag {
	tags := make([]Tag, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	slices.SortFunc(tags, func(a, b Tag) int {
		if a.M != b.M {
			return a.M - b.M
		}
		return a.N - b.N
	})
	return tags
}

func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// EncodeState serializes the allocator's mutable state: free lists,
// external fragments, live blocks and region ownership. Geometry
// (totalPages, regionPages) is a construction parameter and is validated on
// decode rather than restored.
func (a *Allocator) EncodeState(e *snap.Encoder) {
	e.Begin("alloc.allocator")
	e.Int(a.totalPages)
	e.Int(a.regionPages)

	freeTags := sortedTags(a.free)
	e.Uvarint(uint64(len(freeTags)))
	for _, t := range freeTags {
		e.Int(t.N)
		e.Int(t.M)
		lists := a.free[t]
		e.Uvarint(uint64(len(lists)))
		for _, l := range lists {
			e.Uvarint(uint64(len(l)))
			for _, s := range l {
				e.Int(s) // kept sorted by pushToList
			}
		}
	}

	fragTags := sortedTags(a.fragments)
	e.Uvarint(uint64(len(fragTags)))
	for _, t := range fragTags {
		e.Int(t.N)
		e.Int(t.M)
		starts := sortedInts(a.fragments[t])
		e.Uvarint(uint64(len(starts)))
		for _, s := range starts {
			e.Int(s)
		}
	}

	allocStarts := sortedInts(a.allocated)
	e.Uvarint(uint64(len(allocStarts)))
	for _, s := range allocStarts {
		b := a.allocated[s]
		e.Int(int(b.Start))
		e.Int(b.Order)
		e.Int(b.Tag.N)
		e.Int(b.Tag.M)
	}

	owned := 0
	for _, t := range a.owner {
		if t != (Tag{}) {
			owned++
		}
	}
	e.Uvarint(uint64(owned))
	for r, t := range a.owner {
		if t != (Tag{}) {
			e.Int(r * a.regionPages)
			e.Int(t.N)
			e.Int(t.M)
		}
	}
	e.End()
}

// DecodeState restores state written by EncodeState into an allocator
// freshly built with the same geometry. OnOwnerChange is deliberately not
// fired: the caller restores any owner mirrors itself from the same
// checkpoint, so replaying ownership events would double-apply them.
func (a *Allocator) DecodeState(d *snap.Decoder) error {
	d.Begin("alloc.allocator")
	if tp, rp := d.Int(), d.Int(); d.Err() == nil && (tp != a.totalPages || rp != a.regionPages) {
		return fmt.Errorf("alloc: checkpoint geometry %d/%d pages does not match this run's %d/%d",
			tp, rp, a.totalPages, a.regionPages)
	}

	a.free = make(map[Tag][][]int)
	nt := d.Uvarint()
	for i := uint64(0); i < nt && d.Err() == nil; i++ {
		t := Tag{N: d.Int(), M: d.Int()}
		no := d.Uvarint()
		lists := make([][]int, no)
		for o := uint64(0); o < no && d.Err() == nil; o++ {
			ns := d.Uvarint()
			if ns == 0 {
				continue
			}
			l := make([]int, 0, ns)
			for j := uint64(0); j < ns && d.Err() == nil; j++ {
				l = append(l, d.Int())
			}
			lists[o] = l
		}
		a.free[t] = lists
	}

	a.fragments = make(map[Tag]map[int]bool)
	nt = d.Uvarint()
	for i := uint64(0); i < nt && d.Err() == nil; i++ {
		t := Tag{N: d.Int(), M: d.Int()}
		ns := d.Uvarint()
		f := make(map[int]bool, ns)
		for j := uint64(0); j < ns && d.Err() == nil; j++ {
			f[d.Int()] = true
		}
		a.fragments[t] = f
	}

	na := d.Uvarint()
	a.allocated = make(map[int]Block, na)
	for i := uint64(0); i < na && d.Err() == nil; i++ {
		b := Block{Start: pcm.PageAddr(d.Int()), Order: d.Int(), Tag: Tag{N: d.Int(), M: d.Int()}}
		a.allocated[int(b.Start)] = b
	}

	no := d.Uvarint()
	if no > uint64(len(a.owner)) {
		d.Reject("alloc: %d owned regions of %d", no, len(a.owner))
	}
	clear(a.owner)
	for i := uint64(0); i < no && d.Err() == nil; i++ {
		s, t := d.Int(), Tag{N: d.Int(), M: d.Int()}
		switch {
		case s < 0 || s >= a.totalPages || s%a.regionPages != 0:
			d.Reject("alloc: owned region start %d is not a region of %d pages", s, a.totalPages)
		case !t.Valid() || t.N == t.M:
			d.Reject("alloc: region %d owned by invalid tag %v", s, t)
		default:
			a.owner[s/a.regionPages] = t
		}
	}
	d.End()
	return d.Err()
}
