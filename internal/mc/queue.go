package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// This file is the controller core's queue machinery: per-bank write queues,
// background (watermark) draining, lazy catch-up execution and the flush
// path. It dispatches to the pluggable policies only through their
// interfaces — adding a scheme must not require edits here.

// DrainPolicy decides what happens when a write-back finds its bank's queue
// full: how much room to make and whether demand reads may preempt the
// resulting drain. BurstyDrain and WriteCancelDrain are the built-in
// implementations. The interface is sealed (unexported methods): drain
// decisions manipulate bank scheduling state directly.
type DrainPolicy interface {
	// onFull makes room in a full queue at now (the §5.1 drain decision).
	// It runs after the controller has counted the drain and floored the
	// bank's freeAt at now.
	onFull(c *Controller, b *bank, now uint64)
	// onRead observes a demand read arriving at now, after lazy catch-up
	// and before the read is timed — the write-cancellation accounting
	// point.
	onRead(c *Controller, b *bank, now uint64, addr pcm.LineAddr)
}

// BurstyDrain returns the §5.1 default full-queue policy: flush the queue
// down to the low watermark in one burst, blocking that bank's reads for
// the whole drain.
func BurstyDrain() DrainPolicy { return burstyDrain{} }

type burstyDrain struct{}

func (burstyDrain) onFull(c *Controller, b *bank, now uint64) {
	for len(b.wq) > c.cfg.LowWatermark {
		c.Stats.BurstOps++
		c.executeNext(b, true)
	}
}

func (burstyDrain) onRead(*Controller, *bank, uint64, pcm.LineAddr) {}

// writeEntry is one write-queue slot (Fig. 8: address, data, two PreRead
// flag bits and two 64 B buffers).
type writeEntry struct {
	id         uint64
	addr       pcm.LineAddr
	data       pcm.Line // decoded new content
	enqueuedAt uint64

	verifyTop, verifyBelow bool
	top, below             pcm.LineAddr
	topOK, belowOK         bool

	prTop, prBelow   bool
	bufTop, bufBelow pcm.Line
}

// bank is one PCM bank's scheduling state.
type bank struct {
	freeAt uint64
	wq     []*writeEntry
	// addrs is the queue's address index: addrs[i] == wq[i].addr, kept in
	// one contiguous array so lookups (forwarding, coalescing, PreRead's
	// neighbour probes) scan plain words instead of chasing entry pointers.
	// Only push, popFront and DecodeState change the queue.
	addrs    []pcm.LineAddr
	draining bool
	prereads []prOp
	// PreRead pass bookkeeping (preread.go): prStale is set when a write
	// joins the queue or a preread is canceled, prBlocked when the last
	// pass left a preread waiting for bank idle time. With neither, a pass
	// cannot make progress and is skipped.
	prStale, prBlocked bool
	// coded is set once this controller has encoded a line of the bank:
	// the bank's polarity words in the device are this controller's to
	// checkpoint.
	coded bool
}

// find returns the queue position of the write to addr, or -1.
func (b *bank) find(addr pcm.LineAddr) int {
	for i, a := range b.addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// push appends an entry to the queue.
func (b *bank) push(e *writeEntry) {
	b.wq = append(b.wq, e)
	b.addrs = append(b.addrs, e.addr)
	b.prStale = true
}

// popFront removes and returns the oldest entry. The queue shifts down
// instead of advancing the slices, so the backing arrays keep their
// capacity and never reallocate after warm-up; n <= WriteQueueCap word
// moves per op are noise next to the write op itself.
func (b *bank) popFront() *writeEntry {
	e := b.wq[0]
	n := copy(b.wq, b.wq[1:])
	b.wq[n] = nil
	b.wq = b.wq[:n]
	copy(b.addrs, b.addrs[1:])
	b.addrs = b.addrs[:n]
	return e
}

func (b *bank) findEntryByID(id uint64) *writeEntry {
	for _, e := range b.wq {
		if e.id == id {
			return e
		}
	}
	return nil
}

// catchUp advances a bank's lazy work to time t: completed prereads are
// retired, and (under a drain) queued write ops whose start time has passed
// are executed. At most one op ends past t (the in-flight op). Any idle
// time left afterwards goes to the preread scheduler (§4.3: "a PreRead
// operation often has the opportunity to be issued when its associated
// memory bank is idle").
func (c *Controller) catchUp(b *bank, t uint64) {
	c.cfg.Preread.retire(c, b, t)
	for len(b.wq) > 0 && b.freeAt <= t && (b.draining || len(b.wq) > c.cfg.LowWatermark) {
		c.Stats.BackgroundOps++
		c.executeNext(b, false)
		if b.draining && len(b.wq) <= c.cfg.LowWatermark {
			b.draining = false
		}
	}
	if b.draining && len(b.wq) <= c.cfg.LowWatermark {
		b.draining = false
	}
	c.cfg.Preread.issue(c, b, t)
}

// executeNext pops the oldest write entry and runs its full VnC write op,
// advancing freeAt. Work cannot start before the write arrived. burst marks
// ops retired inside a full-queue drain (trace attribution only). The
// retired entry returns to the controller's pool: with queues bounded by
// WriteQueueCap the steady-state write path allocates nothing.
func (c *Controller) executeNext(b *bank, burst bool) {
	e := b.popFront()
	b.freeAt = max(b.freeAt, e.enqueuedAt)
	if c.tr != nil {
		var bf uint64
		if burst {
			bf = 1
		}
		c.tr.Emit(b.freeAt, metrics.EvQueueDrain, uint64(e.addr), b.freeAt-e.enqueuedAt, bf)
	}
	c.queueRes.Observe(b.freeAt - e.enqueuedAt)
	d := c.executeWrite(b, e)
	b.freeAt += uint64(d)
	// No pointer to e survives execution (prereads reference entries by id),
	// so the entry is free for reuse.
	c.entryPool = append(c.entryPool, e)
}

// Write buffers a write-back arriving at `now` (posted: the core does not
// stall). A full queue triggers the configured drain policy: the §5.1
// bursty drain by default, the lazy preemptible drain under write
// cancellation.
func (c *Controller) Write(now uint64, addr pcm.LineAddr, data pcm.Line) {
	c.Stats.WriteRequests++
	loc := c.geo.Locate(addr)
	b := &c.banks[loc.Bank]
	c.catchUp(b, now)
	if i := b.find(addr); i >= 0 {
		// Coalesce: update in place; pre-read state is unaffected.
		b.wq[i].data = data
		c.Stats.Coalesced++
		return
	}
	if len(b.wq) >= c.cfg.WriteQueueCap {
		c.Stats.Drains++
		if c.tr != nil {
			c.tr.Emit(now, metrics.EvQueueStall, uint64(addr), uint64(len(b.wq)), 0)
		}
		b.freeAt = max(b.freeAt, now)
		c.cfg.Drain.onFull(c, b, now)
	}
	e := c.newEntry(addr, data)
	e.enqueuedAt = now
	b.push(e)
	c.queueDepth.Observe(uint64(len(b.wq)))
	if c.tr != nil {
		c.tr.Emit(now, metrics.EvQueueEnqueue, uint64(addr), uint64(len(b.wq)), 0)
	}
	c.cfg.Preread.issue(c, b, now)
}

// newEntry builds a write-queue entry (recycling a retired one when the
// pool has one), resolving the (n:m) verification decisions for its two
// bit-line neighbours.
func (c *Controller) newEntry(addr pcm.LineAddr, data pcm.Line) *writeEntry {
	c.nextID++
	var e *writeEntry
	if n := len(c.entryPool); n > 0 {
		e = c.entryPool[n-1]
		c.entryPool[n-1] = nil
		c.entryPool = c.entryPool[:n-1]
		*e = writeEntry{id: c.nextID, addr: addr, data: data}
	} else {
		e = &writeEntry{id: c.nextID, addr: addr, data: data}
	}
	e.top, e.below, e.topOK, e.belowOK = c.geo.AdjacentLines(addr, c.dev.RowsPerBank)
	vt, vb := c.verifySides(addr.Page())
	e.verifyTop = vt && e.topOK
	e.verifyBelow = vb && e.belowOK
	return e
}

// verifySides applies §4.4: which bit-line neighbours of a write to this
// page hold data and need VnC. With VerifyNeighbors off (WD-free bit-lines)
// nothing is verified.
func (c *Controller) verifySides(p pcm.PageAddr) (top, below bool) {
	if !c.cfg.VerifyNeighbors {
		return false, false
	}
	tag := c.region.RegionTag(p)
	s := c.region.StripIndexInRegion(p)
	return tag.VerifyNeighbors(s, c.region.StripsPerRegion())
}

// Flush drains every bank completely (end of simulation or checkpoint) and
// returns the cycle all work finishes. A correction policy holding buffered
// repairs (Drainer) writes them back here — its buffer is volatile module
// SRAM and must be empty at power-down.
func (c *Controller) Flush(now uint64) uint64 {
	end, drain := c.FlushParts(now)
	return end + drain
}

// FlushParts is Flush split into its two components: the cycle this
// controller's bank queues run dry, and the policy drain-buffer cost that is
// conservatively serialised after all queue work. Separating them lets the
// sharded simulator combine per-bank controllers exactly as one controller
// would: global end = max over banks of the queue end, plus the sum of every
// drain cost (the single-controller DrainFlush already sums its banks).
func (c *Controller) FlushParts(now uint64) (end, drain uint64) {
	end = now
	for i := range c.banks {
		b := &c.banks[i]
		c.catchUp(b, now)
		b.freeAt = max(b.freeAt, now)
		for len(b.wq) > 0 {
			c.executeNext(b, false)
		}
		b.draining = false
		end = max(end, b.freeAt)
	}
	if c.drainer != nil {
		drain = uint64(c.drainer.DrainFlush(PolicyContext{c}))
	}
	return end, drain
}

// QueueOccupancy returns the total buffered writes (for tests/monitoring).
func (c *Controller) QueueOccupancy() int {
	n := 0
	for i := range c.banks {
		n += len(c.banks[i].wq)
	}
	return n
}
