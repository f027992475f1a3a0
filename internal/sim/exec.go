package sim

import (
	"fmt"
	"runtime"
	"sync"

	"sdpcm/internal/alloc"
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
	"sdpcm/internal/workload"
)

// bankExec executes memory-system operations against the bank plane. The
// orchestrator (core model, address translation, wear leveling, mutation
// drawing) issues ops in global program order; an executor must apply the
// ops touching any one bank in exactly that order. Two implementations: the
// *bankPlane itself applies every op at issue time on the calling goroutine
// (Config.Shards <= 1); shardExec streams ops to per-shard-group goroutines
// through SPSC rings under a conservative bounded-lag window (cores couple
// shards only through blocking reads, which rendezvous, and posted writes,
// which may lag). Either way the per-op work is the plane's read, write and
// copyLine.
type bankExec interface {
	// read performs a blocking demand read and returns its completion
	// time. logical keys the integrity shadow; err reports a shadow
	// mismatch, surfaced in program order.
	read(now uint64, addr, logical pcm.LineAddr) (uint64, error)
	// write posts a write of the pre-drawn mutation applied to the line's
	// latest queued-or-stored content.
	write(now uint64, addr, logical pcm.LineAddr, m workload.Mutation)
	// copyLine posts a Start-Gap line copy (same bank: Start-Gap rotates
	// slots within a row).
	copyLine(now uint64, from, to pcm.LineAddr)
	// hintRead tells the executor the next op will be a blocking read whose
	// bank is not yet known (address translation still pending), so it can
	// publish in-flight batches early and overlap their application with the
	// translation. Purely a latency hint: it never changes op order.
	hintRead()
	// barrier blocks until every posted op has been applied, so the plane
	// can be snapshotted consistently.
	barrier()
	// close flushes and joins; the plane may be accessed directly after.
	close()
}

// MaxShards bounds an explicit shard request: anything beyond the bank count
// is already clamped by the simulator, but values this far out are always a
// typo and deserve a usage error rather than a silent clamp.
const MaxShards = 1024

// ShardCrossoverCores is the fewest cores at which the auto shard count
// turns the sharded executor on. On 2 cores it loses to inline on every
// measured workload (mcf under all three schemes 20–35% slower, lbm under
// basic VnC 1.35× slower at 2 shards); on 4 cores CI gates it at ≥2× faster.
const ShardCrossoverCores = 4

// ResolveShards maps a -shards request to a concrete shard count for one
// simulation that may use cores cores. 0 is the host-aware default: inline
// (1) below ShardCrossoverCores, else min(banks, cores). Any other value in
// 1..MaxShards is returned as is. Results are byte-identical at every
// value; only wall-clock speed differs.
func ResolveShards(n, cores int) (int, error) {
	if n < 0 || n > MaxShards {
		return 0, fmt.Errorf("-shards %d out of range (usage: -shards 0..%d, 0 = inline below %d cores, else min(banks, cores))",
			n, MaxShards, ShardCrossoverCores)
	}
	if n > 0 {
		return n, nil
	}
	if cores < ShardCrossoverCores {
		return 1, nil
	}
	return min(pcm.NumBanks, cores), nil
}

type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opCopy
	opTag
	opBarrier
)

// readReply is the rendezvous payload for opRead and opBarrier.
type readReply struct {
	done uint64
	err  error
}

// shardWorker owns one shard group's banks: bank b belongs to shard
// b % numShards. Exactly one goroutine applies its op stream, so each bank's
// controller sees its ops in posted order — global program order restricted
// to that bank — and per-bank state evolves identically to inline execution.
//
// The producer-side fields (ptail/ppub/cachedHead/window) are touched only
// by the orchestrator; the consumer-side fields only by the worker
// goroutine. They are split across a pad so the two goroutines never share
// a cache line through this struct.
type shardWorker struct {
	ring    *opRing
	replies chan readReply // cap 1: at most one outstanding read/barrier
	mirror  *tagMirror

	// Producer side (orchestrator goroutine only). Slots in [ppub, ptail)
	// are filled but not yet published; the consumer may not look at them,
	// which is what makes steal-on-read safe.
	ptail      uint64
	ppub       uint64
	cachedHead uint64 // last observed ring.head; refreshed only when full
	window     uint64 // current adaptive batch window

	_ [64]byte

	// Consumer side (worker goroutine only).
	chead      uint64
	cachedTail uint64 // last observed ring.tail; refreshed when drained
	parks      uint64 // times the worker slept on the doorbell
	spans      uint64 // contiguous published spans consumed
	spanOps    uint64 // total ops across those spans
	spanMax    uint64 // largest single span
}

// shardExec partitions the plane's banks over numShards worker goroutines.
// The orchestrator accumulates ops per shard directly into that shard's
// ring, publishing a batch when the adaptive window fills, when a demand
// read needs the shard's backlog applied, or when hintRead announces an
// imminent read. Reads and barriers keep the channel rendezvous as the
// slow-path fallback; a read whose shard has fully caught up skips the
// round-trip entirely and executes inline on the orchestrator
// (steal-on-read).
type shardExec struct {
	p      *bankPlane
	shards []*shardWorker
	wg     sync.WaitGroup
	closed bool
	// eager gates hintRead: with more than one scheduling core, publishing
	// early overlaps worker progress with address translation; on a single
	// core the worker cannot run concurrently anyway and the read-time
	// steal path is strictly cheaper.
	eager  bool
	maxWin uint64

	barrierPending []*shardWorker // scratch, reused across barriers

	// Executor-behaviour instruments. These measure scheduling (batch sizes,
	// stalls, parks, steals) — timing-dependent by nature — so they live in
	// their own registry, exported as Result.ExecMetrics, never in the
	// deterministic Result.Metrics snapshot. All handles are nil-safe when
	// collection is off.
	reg        *metrics.Registry
	mBatches   *metrics.Counter   // ring publications
	mOps       *metrics.Counter   // ops published through rings
	mWinFull   *metrics.Counter   // publications forced by a full window
	mReadCut   *metrics.Counter   // publications forced by a demand read
	mHints     *metrics.Counter   // publications forced by read lookahead
	mInline    *metrics.Counter   // reads served inline (shard caught up)
	mRendez    *metrics.Counter   // reads served via channel rendezvous
	mSteals    *metrics.Counter   // steal-on-read backlog takeovers
	mStolenOps *metrics.Counter   // unpublished ops applied by the producer
	mStalls    *metrics.Counter   // producer stalls on a full ring
	mBarSkips  *metrics.Counter   // barrier legs satisfied without rendezvous
	mOccupancy *metrics.Histogram // batch size at publication
}

var batchBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// newShardExec starts the workers. mirrors[s] must be the RegionResolver the
// plane's shard-s controllers were built with. maxWin caps the adaptive
// batch window: runs pass windowMax; tests shrink it to stress batch
// boundaries. collect attaches the executor-behaviour registry.
func newShardExec(p *bankPlane, mirrors []*tagMirror, collect bool, maxWin uint64) *shardExec {
	e := &shardExec{
		p:              p,
		shards:         make([]*shardWorker, len(mirrors)),
		eager:          runtime.GOMAXPROCS(0) > 1,
		maxWin:         maxWin,
		barrierPending: make([]*shardWorker, 0, len(mirrors)),
	}
	if collect {
		e.reg = metrics.New()
		e.mBatches = e.reg.Counter("exec.batches_published")
		e.mOps = e.reg.Counter("exec.ops_published")
		e.mWinFull = e.reg.Counter("exec.publish_window_full")
		e.mReadCut = e.reg.Counter("exec.publish_read_cut")
		e.mHints = e.reg.Counter("exec.publish_read_hint")
		e.mInline = e.reg.Counter("exec.reads_inline")
		e.mRendez = e.reg.Counter("exec.reads_rendezvous")
		e.mSteals = e.reg.Counter("exec.read_steals")
		e.mStolenOps = e.reg.Counter("exec.read_stolen_ops")
		e.mStalls = e.reg.Counter("exec.ring_stalls")
		e.mBarSkips = e.reg.Counter("exec.barrier_skips")
		e.mOccupancy = e.reg.Histogram("exec.batch_occupancy", batchBounds)
		e.reg.Gauge("exec.shards").Set(uint64(len(mirrors)))
		e.reg.Gauge("exec.batch_window_max").Set(maxWin)
		e.reg.Gauge("exec.ring_cap").Set(ringCap)
	}
	for s := range e.shards {
		e.shards[s] = &shardWorker{
			ring:    newOpRing(),
			replies: make(chan readReply, 1),
			mirror:  mirrors[s],
			window:  min(minBatch, maxWin),
		}
		e.wg.Add(1)
		go e.shards[s].loop(p, &e.wg)
	}
	return e
}

// apply executes the op in ring slot i against the plane. Called by the
// worker for published slots and by the orchestrator for stolen
// (never-published) slots — never both for the same slot.
func (w *shardWorker) apply(p *bankPlane, i uint64) {
	r := w.ring
	switch r.kind[i] {
	case opWrite:
		p.write(r.now[i], r.addr[i], r.logical[i], r.mut[i])
	case opRead:
		done, err := p.read(r.now[i], r.addr[i], r.logical[i])
		w.replies <- readReply{done: done, err: err}
	case opCopy:
		p.copyLine(r.now[i], pcm.LineAddr(r.aux[i]), r.addr[i])
	case opTag:
		region, tag, present := unpackTag(r.aux[i])
		w.mirror.apply(region, tag, present)
	case opBarrier:
		w.replies <- readReply{}
	}
}

func (w *shardWorker) loop(p *bankPlane, wg *sync.WaitGroup) {
	defer wg.Done()
	r := w.ring
	for {
		t := w.cachedTail
		if t == w.chead {
			t = r.tail.Load()
			w.cachedTail = t
		}
		if t == w.chead {
			// Drained. Park: set the flag, re-check (the producer may have
			// published between our load and the flag store), then sleep.
			if r.closed.Load() && r.tail.Load() == w.chead {
				return
			}
			w.parks++
			r.parked.Store(true)
			if r.tail.Load() != w.chead || r.closed.Load() {
				r.parked.Store(false)
				continue
			}
			<-r.doorbell
			r.parked.Store(false)
			continue
		}
		n := t - w.chead
		w.spans++
		w.spanOps += n
		if n > w.spanMax {
			w.spanMax = n
		}
		for w.chead != t {
			limit := t
			if limit-w.chead > headChunk {
				limit = w.chead + headChunk
			}
			for w.chead != limit {
				w.apply(p, w.chead&ringMask)
				w.chead++
			}
			r.head.Store(w.chead)
			r.wakeProducer()
		}
	}
}

func (e *shardExec) shardFor(a pcm.LineAddr) *shardWorker {
	return e.shards[e.p.bankOf(a)%len(e.shards)]
}

// grab returns the masked index of the next free slot in w's ring, stalling
// until one exists. The caller fills the slot and then advances ptail.
func (e *shardExec) grab(w *shardWorker) uint64 {
	if w.ptail-w.cachedHead >= ringCap {
		w.cachedHead = w.ring.head.Load()
		if w.ptail-w.cachedHead >= ringCap {
			e.stall(w)
		}
	}
	return w.ptail & ringMask
}

// stall blocks the orchestrator until the consumer frees a slot — the
// bounded-lag window in action. Publishing first guarantees the consumer
// has work (windowMax < ringCap, so a full ring always holds published
// backlog once flushed).
func (e *shardExec) stall(w *shardWorker) {
	e.publish(w)
	r := w.ring
	for {
		e.mStalls.Inc()
		r.prodWait.Store(true)
		w.cachedHead = r.head.Load()
		if w.ptail-w.cachedHead < ringCap {
			r.prodWait.Store(false)
			return
		}
		<-r.space
		r.prodWait.Store(false)
		w.cachedHead = r.head.Load()
		if w.ptail-w.cachedHead < ringCap {
			return
		}
	}
}

// publish releases w's filled-but-unpublished slots to the consumer.
func (e *shardExec) publish(w *shardWorker) {
	n := w.ptail - w.ppub
	if n == 0 {
		return
	}
	e.mBatches.Inc()
	e.mOps.Add(n)
	e.mOccupancy.Observe(n)
	w.ppub = w.ptail
	w.ring.tail.Store(w.ptail)
	w.ring.wakeConsumer()
}

// advance commits the just-filled slot and publishes when the adaptive
// window fills. While no read is pending the window doubles on every full
// publication (up to maxWin), amortizing synchronization over long posted-
// write runs; every demand read resets it to minBatch so post-read ops
// reach the worker quickly while the core is still catching up.
func (e *shardExec) advance(w *shardWorker) {
	w.ptail++
	if w.ptail-w.ppub >= w.window {
		e.mWinFull.Inc()
		e.publish(w)
		if w.window < e.maxWin {
			w.window <<= 1
		}
	}
}

// caughtUp reports whether w's consumer has applied every published op.
// While it holds, the orchestrator may touch w's bank state directly: the
// consumer only runs ops it has observed via a tail publication, and the
// producer publishes nothing while operating inline.
func (w *shardWorker) caughtUp() bool {
	return w.ring.head.Load() == w.ppub
}

// stealPending applies w's unpublished backlog on the orchestrator
// goroutine and withdraws it from the ring — pure producer-local
// bookkeeping, since the consumer never saw the slots. Caller must have
// verified caughtUp. The backlog contains only writes, copies and tag
// updates: reads and barriers always publish immediately, so apply cannot
// block on the replies channel here.
func (e *shardExec) stealPending(w *shardWorker) {
	n := w.ptail - w.ppub
	if n == 0 {
		return
	}
	e.mSteals.Inc()
	e.mStolenOps.Add(n)
	for i := w.ppub; i != w.ptail; i++ {
		w.apply(e.p, i&ringMask)
	}
	w.ptail = w.ppub
}

func (e *shardExec) read(now uint64, addr, logical pcm.LineAddr) (uint64, error) {
	w := e.shardFor(addr)
	if w.caughtUp() {
		// Fast path: the shard is idle and owes us nothing. Apply our own
		// unpublished ops in order, then run the read right here — no
		// publication, no wakeup, no rendezvous. Dominant on a single
		// scheduling core, frequent on read-heavy phases everywhere.
		e.stealPending(w)
		w.window = minBatch
		e.mInline.Inc()
		return e.p.read(now, addr, logical)
	}
	return e.rendezvous(w, now, addr, logical)
}

// rendezvous posts a demand read into w's op stream behind its backlog and
// blocks until the worker replies.
func (e *shardExec) rendezvous(w *shardWorker, now uint64, addr, logical pcm.LineAddr) (uint64, error) {
	i := e.grab(w)
	r := w.ring
	r.kind[i] = opRead
	r.now[i] = now
	r.addr[i] = addr
	r.logical[i] = logical
	w.ptail++
	e.mReadCut.Inc()
	e.publish(w)
	w.window = minBatch
	e.mRendez.Inc()
	rep := <-w.replies
	return rep.done, rep.err
}

func (e *shardExec) write(now uint64, addr, logical pcm.LineAddr, m workload.Mutation) {
	w := e.shardFor(addr)
	i := e.grab(w)
	r := w.ring
	r.kind[i] = opWrite
	r.now[i] = now
	r.addr[i] = addr
	r.logical[i] = logical
	r.mut[i] = m
	e.advance(w)
}

func (e *shardExec) copyLine(now uint64, from, to pcm.LineAddr) {
	// from and to share a bank, so the copy is a single-shard op.
	w := e.shardFor(to)
	i := e.grab(w)
	r := w.ring
	r.kind[i] = opCopy
	r.now[i] = now
	r.addr[i] = to
	r.aux[i] = uint64(from)
	e.advance(w)
}

// ownerChange broadcasts an allocator region-ownership mutation (it is the
// allocator's OnOwnerChange hook), ordered before every op issued after it.
// A marking region spans whole pages across every bank, so each shard's
// mirror applies the update in-band.
func (e *shardExec) ownerChange(regionStart int, t alloc.Tag, present bool) {
	aux := packTag(regionStart, t, present)
	for _, w := range e.shards {
		i := e.grab(w)
		r := w.ring
		r.kind[i] = opTag
		r.aux[i] = aux
		e.advance(w)
	}
}

func (e *shardExec) hintRead() {
	if !e.eager {
		return
	}
	// The next op is a blocking read but its bank is still being resolved:
	// hand every shard its backlog now so application overlaps translation.
	// Publication order is irrelevant — shards are independent streams.
	for _, w := range e.shards {
		if w.ptail != w.ppub {
			e.mHints.Inc()
			e.publish(w)
		}
	}
}

func (e *shardExec) barrier() {
	pending := e.barrierPending[:0]
	for _, w := range e.shards {
		if w.caughtUp() {
			// The consumer is drained; take over any unpublished tail ops
			// and this shard is quiesced without a round-trip.
			e.stealPending(w)
			e.mBarSkips.Inc()
			continue
		}
		i := e.grab(w)
		w.ring.kind[i] = opBarrier
		w.ptail++
		e.publish(w)
		pending = append(pending, w)
	}
	// Collect after posting all legs so shards quiesce concurrently.
	for _, w := range pending {
		<-w.replies
	}
	e.barrierPending = pending[:0]
}

func (e *shardExec) close() {
	if e.closed {
		return
	}
	e.closed = true
	for _, w := range e.shards {
		e.publish(w)
		w.ring.closed.Store(true)
		// Unconditional doorbell: the worker may be between its tail
		// re-check and the channel receive.
		select {
		case w.ring.doorbell <- struct{}{}:
		default:
		}
	}
	e.wg.Wait()
}

// execMetrics exports the executor-behaviour snapshot, folding in the
// consumer-side tallies. Call once, after close (the workers have joined,
// so their plain-field tallies are safely visible).
func (e *shardExec) execMetrics() *metrics.Snapshot {
	if e.reg == nil {
		return nil
	}
	var parks, spans, spanOps, spanMax uint64
	for _, w := range e.shards {
		parks += w.parks
		spans += w.spans
		spanOps += w.spanOps
		if w.spanMax > spanMax {
			spanMax = w.spanMax
		}
	}
	e.reg.Counter("exec.worker_parks").Add(parks)
	e.reg.Counter("exec.spans_consumed").Add(spans)
	e.reg.Counter("exec.span_ops").Add(spanOps)
	e.reg.Gauge("exec.span_ops_max").Set(spanMax)
	return e.reg.Snapshot()
}
