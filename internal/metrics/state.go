package metrics

import (
	"fmt"
	"sort"

	"sdpcm/internal/snap"
)

// EncodeState serializes the registry's instrument values and the event-ring
// contents in name-sorted (deterministic) order. Nil-safe: a disabled
// registry encodes as absent.
func (r *Registry) EncodeState(e *snap.Encoder) {
	e.Begin("metrics.registry")
	e.Bool(r != nil)
	if r == nil {
		e.End()
		return
	}

	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, n := range names {
		e.String(n)
		e.U64(r.counters[n].v)
	}

	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, n := range names {
		e.String(n)
		e.U64(r.gauges[n].v)
	}

	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	e.Uvarint(uint64(len(names)))
	for _, n := range names {
		h := r.hists[n]
		e.String(n)
		e.Uvarint(uint64(len(h.bounds)))
		for _, b := range h.bounds {
			e.U64(b)
		}
		for _, c := range h.counts {
			e.U64(c)
		}
		e.U64(h.sum)
		e.U64(h.n)
	}

	e.Bool(r.trace != nil)
	if r.trace != nil {
		t := r.trace
		e.Int(cap(t.buf))
		e.U64(t.next)
		// Raw storage order, not emission order: ring positions are
		// addressed by next % cap, so the layout must survive verbatim.
		e.Uvarint(uint64(len(t.buf)))
		for _, ev := range t.buf {
			e.U64(ev.Seq)
			e.U64(ev.Time)
			e.Uvarint(uint64(ev.Kind))
			e.U64(ev.Addr)
			e.U64(ev.A)
			e.U64(ev.B)
		}
	}
	e.End()
}

// DecodeState restores instrument values written by EncodeState. The restore
// is in place — existing Counter/Gauge/Histogram handles held by
// already-instrumented components stay valid; instruments absent from the
// fresh registry are created. Histogram bounds must match the running
// configuration.
func (r *Registry) DecodeState(d *snap.Decoder) error {
	d.Begin("metrics.registry")
	present := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if present != (r != nil) {
		return fmt.Errorf("metrics: checkpoint registry presence %t does not match this run's %t", present, r != nil)
	}
	if !present {
		d.End()
		return d.Err()
	}

	nc := d.Uvarint()
	for i := uint64(0); i < nc && d.Err() == nil; i++ {
		name := d.String()
		r.Counter(name).v = d.U64()
	}
	ng := d.Uvarint()
	for i := uint64(0); i < ng && d.Err() == nil; i++ {
		name := d.String()
		r.Gauge(name).v = d.U64()
	}
	nh := d.Uvarint()
	for i := uint64(0); i < nh && d.Err() == nil; i++ {
		name := d.String()
		bounds := make([]uint64, d.Len(8))
		for j := range bounds {
			bounds[j] = d.U64()
		}
		if d.Err() != nil {
			break
		}
		h := r.Histogram(name, bounds)
		if len(h.bounds) != len(bounds) {
			return fmt.Errorf("metrics: checkpoint histogram %q has %d bounds, this run has %d", name, len(bounds), len(h.bounds))
		}
		for j, b := range bounds {
			if h.bounds[j] != b {
				return fmt.Errorf("metrics: checkpoint histogram %q bounds differ from this run's", name)
			}
		}
		for j := range h.counts {
			h.counts[j] = d.U64()
		}
		h.sum = d.U64()
		h.n = d.U64()
	}

	hasTrace := d.Bool()
	if d.Err() == nil && hasTrace != (r.trace != nil) {
		return fmt.Errorf("metrics: checkpoint trace presence %t does not match this run's %t", hasTrace, r.trace != nil)
	}
	if hasTrace && d.Err() == nil {
		t := r.trace
		if c := d.Int(); d.Err() == nil && c != cap(t.buf) {
			return fmt.Errorf("metrics: checkpoint trace capacity %d does not match this run's %d", c, cap(t.buf))
		}
		t.next = d.U64()
		n := d.Uvarint()
		if d.Err() == nil && n > uint64(cap(t.buf)) {
			return fmt.Errorf("metrics: checkpoint trace holds %d events, capacity is %d", n, cap(t.buf))
		}
		t.buf = t.buf[:0]
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			t.buf = append(t.buf, Event{
				Seq:  d.U64(),
				Time: d.U64(),
				Kind: EventKind(d.Uvarint()),
				Addr: d.U64(),
				A:    d.U64(),
				B:    d.U64(),
			})
		}
	}
	d.End()
	return d.Err()
}
