// Package vm implements the OS-side plumbing of (n:m)-Alloc (§4.4, Fig. 9):
// per-process page tables whose entries carry the allocator tag, a TLB that
// caches translations (tag included), and demand paging backed by the
// WD-aware buddy allocator. The tag travels virtual address → page table →
// TLB → memory controller, which uses it to decide which bit-line
// neighbours of a write need verification.
package vm

import (
	"cmp"
	"fmt"
	"slices"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
)

// Translation is one page-table / TLB entry payload.
type Translation struct {
	Frame pcm.PageAddr
	Tag   alloc.Tag
}

// PageTable maps a process's virtual pages to physical frames. It is a
// two-level radix table: a directory of leaves, sorted by vpage prefix
// (vpage >> leafShift), over pointer-free leaves of leafPages translations
// each. Generator vpages are dense from zero, so once warm directory entry
// i covers prefix i and a walk is one probe; trace vpages may be sparse
// anywhere in the 64-bit space and cost a binary search over the
// directory and one leaf per occupied prefix.
type PageTable struct {
	dir []ptEntry // ascending prefix
	n   int       // mapped pages
}

// Leaf geometry: 16 slots (512 B) per leaf keeps a sparse table — one page
// per leaf — within a few hundred bytes per mapped page.
const (
	leafShift = 4
	leafPages = 1 << leafShift
	leafMask  = leafPages - 1
)

type ptEntry struct {
	prefix uint64
	leaf   *ptLeaf
}

// ptSlot keeps the mapped flag beside its translation, so a walk reads one
// 32-byte slot.
type ptSlot struct {
	tr     Translation
	mapped bool
}

type ptLeaf [leafPages]ptSlot

// NewPageTable returns an empty table.
func NewPageTable() *PageTable { return &PageTable{} }

// find returns the directory position of prefix and whether it is present.
func (pt *PageTable) find(prefix uint64) (int, bool) {
	if prefix < uint64(len(pt.dir)) && pt.dir[prefix].prefix == prefix {
		return int(prefix), true // dense: entry i covers prefix i
	}
	return slices.BinarySearchFunc(pt.dir, prefix, func(e ptEntry, p uint64) int { return cmp.Compare(e.prefix, p) })
}

// Lookup returns the translation of a virtual page.
func (pt *PageTable) Lookup(vpage uint64) (Translation, bool) {
	i, ok := pt.find(vpage >> leafShift)
	if !ok {
		return Translation{}, false
	}
	sl := &pt.dir[i].leaf[vpage&leafMask]
	return sl.tr, sl.mapped
}

// Map installs a translation.
func (pt *PageTable) Map(vpage uint64, tr Translation) {
	prefix := vpage >> leafShift
	i, ok := pt.find(prefix)
	if !ok {
		pt.dir = slices.Insert(pt.dir, i, ptEntry{prefix: prefix, leaf: &ptLeaf{}})
	}
	sl := &pt.dir[i].leaf[vpage&leafMask]
	if !sl.mapped {
		sl.mapped = true
		pt.n++
	}
	sl.tr = tr
}

// Len returns the number of mapped pages.
func (pt *PageTable) Len() int { return pt.n }

// visit calls fn for every mapped page in ascending vpage order.
func (pt *PageTable) visit(fn func(vpage uint64, tr Translation)) {
	for _, e := range pt.dir {
		for slot, sl := range e.leaf {
			if sl.mapped {
				fn(e.prefix<<leafShift|uint64(slot), sl.tr)
			}
		}
	}
}

// TLB is a small set-associative translation cache. Each entry carries the
// (n:m) allocator tag so the memory controller receives it with every
// request (Fig. 9).
type TLB struct {
	sets  int
	assoc int

	vpage []uint64
	data  []Translation
	valid []bool
	stamp []uint64
	clock uint64

	Hits, Misses uint64
}

// NewTLB builds a TLB with the given entry count and associativity; entries
// must be a power-of-two multiple of assoc.
func NewTLB(entries, assoc int) (*TLB, error) {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("vm: bad TLB geometry %d/%d", entries, assoc)
	}
	sets := entries / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("vm: TLB set count %d not a power of two", sets)
	}
	return &TLB{
		sets:  sets,
		assoc: assoc,
		vpage: make([]uint64, entries),
		data:  make([]Translation, entries),
		valid: make([]bool, entries),
		stamp: make([]uint64, entries),
	}, nil
}

// Lookup probes the TLB.
func (t *TLB) Lookup(vpage uint64) (Translation, bool) {
	t.clock++
	base := int(vpage%uint64(t.sets)) * t.assoc
	for w := 0; w < t.assoc; w++ {
		i := base + w
		if t.valid[i] && t.vpage[i] == vpage {
			t.Hits++
			t.stamp[i] = t.clock
			return t.data[i], true
		}
	}
	t.Misses++
	return Translation{}, false
}

// Insert fills the TLB after a page-table walk, evicting LRU.
func (t *TLB) Insert(vpage uint64, tr Translation) {
	t.clock++
	base := int(vpage%uint64(t.sets)) * t.assoc
	victim := base
	for w := 0; w < t.assoc; w++ {
		i := base + w
		if !t.valid[i] {
			victim = i
			break
		}
		if t.stamp[i] < t.stamp[victim] {
			victim = i
		}
	}
	t.vpage[victim] = vpage
	t.data[victim] = tr
	t.valid[victim] = true
	t.stamp[victim] = t.clock
}

// AddressSpace is one process: a page table, a TLB, and demand paging from
// the shared buddy allocator under the process's allocator tag. Per §5.3 we
// assume one application uses one (n:m) allocator for all of its memory.
type AddressSpace struct {
	PT  *PageTable
	TLB *TLB

	allocator *alloc.Allocator
	tag       alloc.Tag
	chunk     int // pages requested per demand-paging refill

	pool   []pcm.PageAddr
	blocks []alloc.Block

	// Faults counts demand-paging events (first touches).
	Faults uint64
}

// NewAddressSpace builds a process address space. chunkPages is the growth
// granularity of demand paging (a strip's worth by default when 0).
func NewAddressSpace(a *alloc.Allocator, tag alloc.Tag, chunkPages int) (*AddressSpace, error) {
	if !tag.Valid() {
		return nil, fmt.Errorf("vm: invalid tag %v", tag)
	}
	if chunkPages <= 0 {
		chunkPages = a.StripPages()
	}
	tlb, err := NewTLB(64, 4)
	if err != nil {
		return nil, err
	}
	return &AddressSpace{
		PT:        NewPageTable(),
		TLB:       tlb,
		allocator: a,
		tag:       tag,
		chunk:     chunkPages,
	}, nil
}

// Tag returns the process's allocator tag.
func (as *AddressSpace) Tag() alloc.Tag { return as.tag }

// Translate resolves a virtual page, faulting in a fresh frame on first
// touch. tlbHit reports whether the TLB already held the translation.
func (as *AddressSpace) Translate(vpage uint64) (Translation, bool, error) {
	if tr, ok := as.TLB.Lookup(vpage); ok {
		return tr, true, nil
	}
	tr, ok := as.PT.Lookup(vpage)
	if !ok {
		frame, err := as.fault()
		if err != nil {
			return Translation{}, false, err
		}
		tr = Translation{Frame: frame, Tag: as.tag}
		as.PT.Map(vpage, tr)
	}
	as.TLB.Insert(vpage, tr)
	return tr, false, nil
}

// fault services a demand-paging miss from the pool, refilling it from the
// buddy allocator as needed.
func (as *AddressSpace) fault() (pcm.PageAddr, error) {
	as.Faults++
	if len(as.pool) == 0 {
		b, err := as.allocator.Alloc(as.chunk, as.tag)
		if err != nil {
			return 0, fmt.Errorf("vm: demand paging: %w", err)
		}
		as.blocks = append(as.blocks, b)
		as.pool = as.allocator.Usable(b)
	}
	frame := as.pool[0]
	as.pool = as.pool[1:]
	return frame, nil
}

// MappedPages returns the number of resident pages.
func (as *AddressSpace) MappedPages() int { return as.PT.Len() }

// Release frees every block the address space holds (process exit).
func (as *AddressSpace) Release() error {
	for _, b := range as.blocks {
		if err := as.allocator.Free(b); err != nil {
			return err
		}
	}
	as.blocks = nil
	as.pool = nil
	as.PT = NewPageTable()
	return nil
}
