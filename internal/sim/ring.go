package sim

import (
	"sync/atomic"

	"sdpcm/internal/alloc"
	"sdpcm/internal/pcm"
	"sdpcm/internal/workload"
)

// Sharded-executor transport tuning. The ring capacity bounds how far a
// shard may lag the orchestrator (the conservative window of DESIGN.md §8):
// the orchestrator stalls rather than let a shard fall further behind,
// keeping memory bounded without affecting results (order per bank, not
// timing, determines state). windowMax < ringCap guarantees that whenever
// the ring is full at least one full batch is already published, so a
// stalled producer always has a consumer making progress toward freeing
// slots.
const (
	ringCap  = 1024 // slots per shard ring; must be a power of two
	ringMask = ringCap - 1
	// minBatch seeds the adaptive window after every demand read; the
	// window doubles on each full publication up to windowMax.
	minBatch  = 16
	windowMax = 256
	// headChunk bounds how many ops the consumer applies between head
	// publications, so a producer stalled on a full ring resumes promptly.
	headChunk = 64
)

// packTag encodes an ownerChange payload into the ring's aux word:
// region<<11 | N<<6 | M<<1 | present. alloc.MaxM is 16, so N and M fit in
// five bits each; region (a page index) takes the rest.
func packTag(region int, t alloc.Tag, present bool) uint64 {
	v := uint64(region)<<11 | uint64(t.N)<<6 | uint64(t.M)<<1
	if present {
		v |= 1
	}
	return v
}

func unpackTag(v uint64) (region int, t alloc.Tag, present bool) {
	return int(v >> 11), alloc.Tag{N: int(v >> 6 & 31), M: int(v >> 1 & 31)}, v&1 != 0
}

// opRing is a single-producer/single-consumer bounded ring carrying one
// shard's op stream as flat struct-of-arrays slots — no per-batch
// allocation, no slice headers crossing goroutines, and hot control words
// padded onto their own cache lines.
//
// Index protocol: head and tail are free-running uint64 slot counters
// (wrapping masked with ringMask on access). The producer owns tail and
// writes slots in [tail, tail+n) before publishing them with a single
// tail.Store; the consumer owns head and applies slots in [head, tail)
// before releasing them with head.Store. Go's sequentially consistent
// atomics make the slot writes happen-before the consumer's reads (publish
// via tail) and the consumer's reads happen-before slot reuse (release via
// head).
//
// Park protocol: blocking is the slow path. A side about to block sets its
// flag (parked/prodWait), re-checks the index it is waiting on, and only
// then sleeps on its channel; the opposite side signals the channel
// (non-blocking, capacity 1) after its store when it observes the flag.
// The store-flag-then-recheck ordering closes the sleep/wake race; stale
// channel tokens only cause a spurious loop iteration.
type opRing struct {
	_    [64]byte
	head atomic.Uint64 // consumer: first slot not yet applied
	_    [56]byte
	tail atomic.Uint64 // producer: first slot not yet published
	_    [56]byte

	parked   atomic.Bool // consumer is (about to be) blocked on doorbell
	prodWait atomic.Bool // producer is (about to be) blocked on space
	closed   atomic.Bool
	_        [61]byte

	doorbell chan struct{} // producer → consumer wakeup
	space    chan struct{} // consumer → producer wakeup

	kind    [ringCap]opKind
	now     [ringCap]uint64
	addr    [ringCap]pcm.LineAddr // target line (read/write), copy destination
	aux     [ringCap]uint64       // copy source (opCopy) or packed tag (opTag)
	logical [ringCap]pcm.LineAddr // pre-wear-leveling address keying the shadow
	mut     [ringCap]workload.Mutation
}

func newOpRing() *opRing {
	return &opRing{
		doorbell: make(chan struct{}, 1),
		space:    make(chan struct{}, 1),
	}
}

// wakeConsumer delivers a doorbell token if the consumer is parked (or about
// to park — it re-checks tail after setting the flag, so a token sent here
// is never required, only sufficient).
func (r *opRing) wakeConsumer() {
	if r.parked.Load() {
		select {
		case r.doorbell <- struct{}{}:
		default:
		}
	}
}

// wakeProducer delivers a space token if the producer is stalled on a full
// ring.
func (r *opRing) wakeProducer() {
	if r.prodWait.Load() {
		select {
		case r.space <- struct{}{}:
		default:
		}
	}
}
