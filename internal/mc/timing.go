package mc

import (
	"sdpcm/internal/metrics"
	"sdpcm/internal/pcm"
)

// This file is the controller core's externally-timed operations: demand
// read servicing and the complete VnC write op. Like queue.go, it reaches
// the pluggable policies only through their interfaces.

// Read services a demand read arriving at `now`. It returns the cycle the
// data is available and the (ECP-corrected, decoded) line content.
func (c *Controller) Read(now uint64, addr pcm.LineAddr) (uint64, pcm.Line) {
	c.Stats.DemandReads++
	loc := c.geo.Locate(addr)
	b := &c.banks[loc.Bank]
	// Write-queue forwarding: the freshest value lives in the queue.
	if i := b.find(addr); i >= 0 {
		e := b.wq[i]
		c.Stats.ForwardedReads++
		done := now + uint64(c.cfg.ForwardCycles)
		c.Stats.ReadLatencySum += uint64(c.cfg.ForwardCycles)
		c.readLat.Observe(uint64(c.cfg.ForwardCycles))
		return done, e.data
	}
	c.catchUp(b, now)
	c.cfg.Drain.onRead(c, b, now, addr)
	c.cfg.Preread.cancel(c, b, now)
	start := max(now, b.freeAt)
	data := c.PeekData(addr)
	c.dev.CountRead(addr) // demand array read
	done := start + uint64(c.cfg.Timing.ReadCycles)
	b.freeAt = done
	c.Stats.ReadCycles += uint64(c.cfg.Timing.ReadCycles)
	c.Stats.ReadLatencySum += done - now
	c.Stats.ReadWaitSum += start - now
	c.readLat.Observe(done - now)
	return done, data
}

// executeWrite runs one complete write operation for a queue entry and
// returns the bank cycles it consumes. The flow (§3.2, §4.2):
//
//  1. pre-write reads of the adjacent lines that need verification, unless
//     PreRead already buffered them;
//  2. DIN encoding, differential programming, in-line word-line
//     verify-and-rewrite (folded into the program phase);
//  3. post-write reads of the same adjacent lines; comparison yields the
//     manifested bit-line WD errors;
//  4. per neighbour: the correction policy absorbs the errors (LazyC parks
//     X+Y<=N of them in ECP entries) or a correction write RESETs the
//     disturbed cells, which cascades — the correction is itself a write
//     whose neighbours must be verified — until a verification finds no new
//     errors.
func (c *Controller) executeWrite(b *bank, e *writeEntry) int {
	c.Stats.WriteOps++
	// The engine stamps trace events with the op's start time (writes run
	// asynchronously to core time, so "now" is when the bank begins the op).
	c.engine.Now = b.freeAt
	cycles := 0

	// --- 1. Pre-write reads (charged as verification). ---
	if e.verifyTop || e.verifyBelow {
		missing := 0
		if e.verifyTop && !e.prTop {
			e.bufTop = c.dev.Read(e.top)
			e.prTop = true
			missing++
		}
		if e.verifyBelow && !e.prBelow {
			e.bufBelow = c.dev.Read(e.below)
			e.prBelow = true
			missing++
		}
		if missing == 0 {
			c.Stats.PreReadHits++
			if c.tr != nil {
				c.tr.Emit(b.freeAt, metrics.EvPreReadHit, uint64(e.addr), 0, 0)
			}
		}
		c.Stats.VerifyReads += uint64(missing)
		if c.cfg.ChargeVerify {
			d := missing * c.cfg.Timing.ReadCycles
			cycles += d
			c.Stats.VerifyCycles += uint64(d)
		}
	}

	// --- 2. Program the line. ---
	// A fresh write supersedes any WD errors parked for this line (§4.2):
	// the ECP entries are released for free, and a buffering policy drops
	// its pending repairs the same way.
	c.ecp.ClearWD(e.addr, false)
	if c.writeObserver != nil {
		c.writeObserver.ObserveWrite(e.addr)
	}
	old := c.dev.Peek(e.addr)
	img := c.codec.Encode(&c.dev.Side(e.addr).Aux, e.data, old)
	b.coded = true
	res := c.dev.Write(e.addr, img, pcm.NormalWrite)
	out := c.engine.OnWrite(c.dev, e.addr, old, img, res.Reset, res.Set)
	prog := res.Cycles
	if out.RewritePulses > 0 {
		// In-line rewrite rounds extend the program phase.
		prog += c.cfg.Timing.WriteCycles(out.RewritePulses, 0)
	}
	cycles += prog
	c.Stats.ProgramCycles += uint64(prog)

	// --- 3/4. Verify adjacent lines and handle their errors. ---
	if e.verifyTop {
		cycles += c.verifyNeighbour(e.top, out.Above, 0)
	}
	if e.verifyBelow {
		cycles += c.verifyNeighbour(e.below, out.Below, 0)
	}
	return cycles
}
