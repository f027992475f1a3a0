package pcm

import (
	"testing"
)

// Device microbenchmarks: the data-plane primitives every simulated memory
// reference funnels through. These are pinned in the benchstat CI gate
// (scripts/benchgate) — a >10% ns/op regression fails the build.

// benchAddrs returns a deterministic scatter of in-range line addresses.
func benchAddrs(d *Device, n int) []LineAddr {
	addrs := make([]LineAddr, n)
	state := uint64(12345)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = LineAddr(state % uint64(d.Lines()))
	}
	return addrs
}

func benchDevice(b *testing.B) *Device {
	b.Helper()
	d, err := NewDevice(Config{Pages: 512, FillSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkDevicePeek(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	// Touch every chunk so Peek measures the dense indexed path.
	for _, a := range addrs {
		d.Write(a, Line{1}, NormalWrite)
	}
	var sink Line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = d.Peek(addrs[i%len(addrs)])
	}
	_ = sink
}

// BenchmarkDevicePeekUntouched measures the lazy background path: untouched
// chunks compute their pattern on the fly instead of being materialized.
func BenchmarkDevicePeekUntouched(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	var sink Line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = d.Peek(addrs[i%len(addrs)])
	}
	_ = sink
}

func BenchmarkDeviceWrite(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	// Two random images per address, alternated so every timed write
	// programs a realistic (~50% of cells) differential pulse set.
	datas := make([]Line, 2*len(addrs))
	state := uint64(99)
	for i := range datas {
		for w := range datas[i] {
			state = state*6364136223846793005 + 1442695040888963407
			datas[i][w] = state
		}
	}
	// Warm up: materialize every touched chunk so the loop measures the
	// steady-state write path, not one-time storage setup.
	for j := range addrs {
		d.Write(addrs[j], datas[j], NormalWrite)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (2 * len(addrs))
		d.Write(addrs[j%len(addrs)], datas[j], NormalWrite)
	}
}

func BenchmarkDeviceDisturb(b *testing.B) {
	d := benchDevice(b)
	addrs := benchAddrs(d, 4096)
	var flips Mask
	flips.SetBit(3)
	flips.SetBit(200)
	flips.SetBit(509)
	for _, a := range addrs {
		d.Disturb(a, flips)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Disturb(addrs[i%len(addrs)], flips)
	}
}

// BenchmarkDeviceNeighbourhood measures one write's device access set on an
// sdpcm-sim sized device (2^17 pages): Write the target, Peek and Disturb
// its bit-line neighbours (rows r±1), Peek its word-line neighbours (slots
// s±1). The 32k scattered targets span more storage than a last-level
// cache holds, so how many chunks a neighbourhood spreads over shows up as
// cache misses — which the 512-page micros above, fitting in cache, cannot
// see.
func BenchmarkDeviceNeighbourhood(b *testing.B) {
	d, err := NewDevice(Config{Pages: 1 << 17, FillSeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	type hood struct{ a, up, down, left, right LineAddr }
	targets := benchAddrs(d, 1<<15)
	hoods := make([]hood, len(targets))
	for i, a := range targets {
		h := hood{a, a, a, a, a}
		above, below, okA, okB := d.Geometry().AdjacentLines(a, d.RowsPerBank)
		if okA {
			h.up = above
		}
		if okB {
			h.down = below
		}
		if a.Slot() > 0 {
			h.left = a - 1
		}
		if a.Slot() < LinesPerPage-1 {
			h.right = a + 1
		}
		hoods[i] = h
	}
	datas := [2]Line{{0x0123456789abcdef, 1, 2, 3}, {0xfedcba9876543210, 4, 5, 6}}
	var flips Mask
	flips.SetBit(17)
	flips.SetBit(300)
	var sink Line
	op := func(i int) {
		h := &hoods[i%len(hoods)]
		d.Write(h.a, datas[i/len(hoods)&1], NormalWrite)
		sink = d.Peek(h.up)
		d.Disturb(h.up, flips)
		sink = d.Peek(h.down)
		d.Disturb(h.down, flips)
		sink = d.Peek(h.left)
		sink = d.Peek(h.right)
	}
	// Warm up: materialize every neighbourhood so the loop measures the
	// steady-state access path, not one-time storage setup.
	for i := range hoods {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	_ = sink
}
