package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// PrereadScheduler manages the §4.3 pre-write reads: when queued write
// entries get their two neighbour buffers filled, and what happens to
// in-flight prereads when a demand read claims the bank. NoPreread and
// IdleSlotPreread are the built-in implementations. The interface is sealed
// (unexported methods): scheduling manipulates bank and queue-entry state
// directly.
type PrereadScheduler interface {
	// retire drops prereads completed by time t (called before queued work
	// catches up).
	retire(c *Controller, b *bank, t uint64)
	// issue uses bank idle time at now to perform pending pre-write reads
	// for queued entries.
	issue(c *Controller, b *bank, now uint64)
	// cancel aborts in-flight prereads at time t: demand reads have
	// priority (§4.3).
	cancel(c *Controller, b *bank, t uint64)
}

// NoPreread returns the disabled scheduler: pre-write reads happen inside
// the write op itself.
func NoPreread() PrereadScheduler { return noPreread{} }

type noPreread struct{}

func (noPreread) retire(*Controller, *bank, uint64) {}
func (noPreread) issue(*Controller, *bank, uint64)  {}
func (noPreread) cancel(*Controller, *bank, uint64) {}

// IdleSlotPreread returns the §4.3 scheduler: pending pre-write reads issue
// during bank idle slots, neighbours present in the write queue are
// forwarded from their entry buffers at no bank cost, and demand reads
// cancel in-flight prereads.
func IdleSlotPreread() PrereadScheduler { return idleSlotPreread{} }

type idleSlotPreread struct{}

// prOp is an in-flight PreRead occupying bank time; cancellable by a demand
// read until its end time passes.
type prOp struct {
	start, end uint64
	entryID    uint64
	top        bool
}

// retire drops completed prereads.
func (idleSlotPreread) retire(c *Controller, b *bank, t uint64) {
	keep := b.prereads[:0]
	for _, p := range b.prereads {
		if p.end > t {
			keep = append(keep, p)
		}
	}
	b.prereads = keep
}

// issue uses bank idle time at `now` to perform pending pre-write reads for
// queued entries (§4.3).
//
// A pass only makes progress by forwarding from a queued neighbour, which
// needs a write to have joined the queue since the last pass, or by a
// device read, which needs bank idle time: an idle pass serves every
// pending preread, a busy one leaves the unforwardable ones blocked. So
// unless a write joined or a preread was canceled (prStale), the pass is
// skipped when the bank is busy or nothing is blocked — it would change
// nothing — and the queue is not rescanned on every catch-up.
func (s idleSlotPreread) issue(c *Controller, b *bank, now uint64) {
	idle := b.freeAt <= now && !b.draining
	if !b.prStale && !(idle && b.prBlocked) {
		return
	}
	b.prStale, b.prBlocked = false, false
	for _, e := range b.wq {
		if e.verifyTop && !e.prTop {
			idle = s.issueOne(c, b, e, true, now, idle)
		}
		if e.verifyBelow && !e.prBelow {
			idle = s.issueOne(c, b, e, false, now, idle)
		}
	}
}

// issueOne services one pending pre-write read. Forwarding from a queued
// write to the neighbour costs no bank time and happens regardless of bank
// state; a device read requires the idle grant. Returns whether further
// device reads may still be issued in this batch.
func (idleSlotPreread) issueOne(c *Controller, b *bank, e *writeEntry, top bool, now uint64, idle bool) bool {
	neighbour := e.top
	if !top {
		neighbour = e.below
	}
	// Forward from the queue when the neighbour line has a pending write:
	// by the time this entry executes, the queue (FIFO) will have written
	// it, so the buffered data is the authoritative old content (§4.3).
	if i := b.find(neighbour); i >= 0 {
		if top {
			e.prTop, e.bufTop = true, b.wq[i].data
		} else {
			e.prBelow, e.bufBelow = true, b.wq[i].data
		}
		c.Stats.PreReadsForwarded++
		if c.tr != nil {
			c.tr.Emit(now, metrics.EvPreReadForwarded, uint64(neighbour), e.id, 0)
		}
		return idle
	}
	if !idle {
		b.prBlocked = true
		return false
	}
	start := max(b.freeAt, now)
	end := start + uint64(c.cfg.Timing.ReadCycles)
	buf := c.dev.Read(neighbour)
	if top {
		e.prTop, e.bufTop = true, buf
	} else {
		e.prBelow, e.bufBelow = true, buf
	}
	b.freeAt = end
	b.prereads = append(b.prereads, prOp{start: start, end: end, entryID: e.id, top: top})
	c.Stats.PreReadsIssued++
	if c.tr != nil {
		c.tr.Emit(start, metrics.EvPreReadIssued, uint64(neighbour), e.id, 0)
	}
	return true
}

// cancel aborts in-flight prereads (end > t): demand reads have priority
// (§4.3). Bank time is rolled back to the first canceled start — prereads
// are always the newest work on the bank.
func (idleSlotPreread) cancel(c *Controller, b *bank, t uint64) {
	if len(b.prereads) == 0 {
		return
	}
	rollback := b.freeAt
	keep := b.prereads[:0]
	for _, p := range b.prereads {
		if p.end <= t {
			keep = append(keep, p)
			continue
		}
		c.Stats.PreReadsCanceled++
		b.prStale = true
		if p.start < rollback {
			rollback = p.start
		}
		if e := b.findEntryByID(p.entryID); e != nil {
			var victim pcm.LineAddr
			if p.top {
				e.prTop = false
				victim = e.top
			} else {
				e.prBelow = false
				victim = e.below
			}
			if c.tr != nil {
				c.tr.Emit(t, metrics.EvPreReadCanceled, uint64(victim), p.entryID, 0)
			}
		}
	}
	b.prereads = keep
	if rollback < b.freeAt {
		b.freeAt = rollback
	}
}
