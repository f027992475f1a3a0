package ecp

import (
	"errors"
	"reflect"
	"testing"

	"sdpcm/internal/pcm"
	"sdpcm/internal/snap"
)

// testDevice is a small device whose lines the tests' tables key on.
func testDevice(tb testing.TB) *pcm.Device {
	tb.Helper()
	d, err := pcm.NewDevice(pcm.Config{Pages: 64})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func encodeTable(t *Table) []byte {
	e := snap.NewEncoder(1)
	t.EncodeState(e)
	return e.Finish()
}

func decodeTable(t *Table, data []byte) error {
	d, err := snap.NewDecoder(data, 1)
	if err != nil {
		return err
	}
	if err := t.DecodeState(d); err != nil {
		return err
	}
	return d.Close()
}

func TestStateRoundTrip(t *testing.T) {
	tab := mustNew(t, 6)
	tab.RecordWD(900, []int{5, 7})
	tab.RecordWD(3, []int{511})
	tab.ClearWD(3, true)
	tab.RecordWD(3, []int{511, 0}) // 511 re-recorded: seen
	tab.SetHardErrors(40, 2)
	want := encodeTable(tab)

	got := mustNew(t, 6)
	if err := decodeTable(got, want); err != nil {
		t.Fatal(err)
	}
	if got.Stats != tab.Stats {
		t.Fatalf("stats %+v, want %+v", got.Stats, tab.Stats)
	}
	for _, a := range []pcm.LineAddr{3, 40, 900, 1} {
		if !reflect.DeepEqual(got.WDBits(a), tab.WDBits(a)) || got.HardErrors(a) != tab.HardErrors(a) {
			t.Fatalf("line %d: wd %v hard %d, want %v %d", a, got.WDBits(a), got.HardErrors(a), tab.WDBits(a), tab.HardErrors(a))
		}
	}
	// Seen cells survive: re-recording 5 costs only the valid bit.
	before := got.Stats.ECPBitWrites
	got.ClearWD(900, false)
	got.RecordWD(900, []int{5})
	if d := got.Stats.ECPBitWrites - before; d != 3 {
		t.Fatalf("re-record after resume wrote %d ECP bits, want 3 (2 invalidations + 1 valid bit)", d)
	}
}

// ecpSection hand-builds an ecp.table section holding one line record.
func ecpSection(addr uint64, hard int, wd, seen []uint64) []byte {
	e := snap.NewEncoder(1)
	e.Begin("ecp.table")
	for i := 0; i < 6; i++ {
		e.U64(0)
	}
	e.Uvarint(1)
	e.U64(addr)
	e.Int(hard)
	for _, list := range [][]uint64{wd, seen} {
		e.Uvarint(list[0])
		for _, c := range list[1:] {
			e.Uvarint(c)
		}
	}
	e.End()
	return e.Finish()
}

// TestDecodeStateRejectsCorruptRecords pins decode crashers: each of these
// sections used to panic (a 2^62-entry WD list in makeslice) or plant state
// outside the device; all must fail with a *snap.RangeError.
func TestDecodeStateRejectsCorruptRecords(t *testing.T) {
	cases := map[string][]byte{
		"huge wd list":    ecpSection(1, 0, []uint64{1 << 62}, []uint64{0}),
		"wd beyond N":     ecpSection(1, 0, []uint64{7, 1, 2, 3, 4, 5, 6, 8}, []uint64{0}),
		"wd beside hard":  ecpSection(1, 5, []uint64{2, 1, 2}, []uint64{0}),
		"wd cell range":   ecpSection(1, 0, []uint64{1, pcm.LineBits}, []uint64{0}),
		"wd repeated":     ecpSection(1, 0, []uint64{2, 9, 9}, []uint64{0}),
		"huge seen list":  ecpSection(1, 0, []uint64{0}, []uint64{1 << 62}),
		"seen cell range": ecpSection(1, 0, []uint64{0}, []uint64{1, 1 << 20}),
		"line off device": ecpSection(1<<40, 0, []uint64{0}, []uint64{0}),
		"negative hard":   ecpSection(1, -1, []uint64{0}, []uint64{0}),
		"hard beyond N":   ecpSection(1, 7, []uint64{0}, []uint64{0}),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var re *snap.RangeError
			if err := decodeTable(mustNew(t, 6), data); !errors.As(err, &re) {
				t.Fatalf("err = %v, want *snap.RangeError", err)
			}
		})
	}
	// A record count larger than the device is rejected before the loop.
	e := snap.NewEncoder(1)
	e.Begin("ecp.table")
	for i := 0; i < 6; i++ {
		e.U64(0)
	}
	e.Uvarint(1 << 62)
	e.End()
	var re *snap.RangeError
	if err := decodeTable(mustNew(t, 6), e.Finish()); !errors.As(err, &re) {
		t.Fatalf("huge record count: err = %v, want *snap.RangeError", err)
	}
}

// BenchmarkECPRecordWD is the pinned ECP layer benchmark: LazyCorrection's
// park-then-release cycle on a scatter of lines.
func BenchmarkECPRecordWD(b *testing.B) {
	dev := testDevice(b)
	tab, err := New(DefaultEntries, dev)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]pcm.LineAddr, 1024)
	state := uint64(12345)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = pcm.LineAddr(state % uint64(dev.Lines()))
	}
	cells := []int{3, 100, 257}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&1023]
		if !tab.RecordWD(a, cells) {
			b.Fatal("record overflowed")
		}
		tab.ClearWD(a, i&1 == 0)
	}
}
