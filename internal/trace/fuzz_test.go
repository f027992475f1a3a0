package trace_test

import (
	"bytes"
	"slices"
	"testing"

	"sdpcm/internal/trace"
	"sdpcm/internal/workload"
)

// drain replays a trace through a StreamReader with the given decode-buffer
// size (0 = default) and returns the records it yields and its latched error.
func drain(data []byte, size int) ([]trace.Record, error) {
	s := trace.NewStreamReader(bytes.NewReader(data))
	if size > 0 {
		s = trace.NewStreamReaderSize(bytes.NewReader(data), size)
	}
	var out []trace.Record
	for {
		rec, ok := s.Next()
		if !ok {
			return out, s.Err()
		}
		out = append(out, rec)
	}
}

// decoded returns the records a Reader decodes before its first error — the
// records ReadAll collects and then discards when it fails.
func decoded(data []byte) []trace.Record {
	r := trace.NewReader(bytes.NewReader(data))
	var out []trace.Record
	for {
		rec, err := r.Next()
		if err != nil {
			return out
		}
		out = append(out, rec)
	}
}

// FuzzStreamReader holds the streaming decoder to the batch one: on any
// input, StreamReader fails exactly when ReadAll does, with the same error,
// and yields the same records up to the failure (all of ReadAll's records
// when it succeeds). A tiny decode buffer must not change what the stream
// yields. Seeds are a captured mcf trace and truncations of it, cut
// mid-header, mid-record and on a record boundary.
//
//	go test ./internal/trace -run '^$' -fuzz FuzzStreamReader -fuzztime 20s
func FuzzStreamReader(f *testing.F) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		f.Fatal(err)
	}
	g, err := workload.NewGenerator(spec, 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, workload.Capture(g, 64)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 2, 4, 5, len(full) / 2, len(full) - 1, len(full)} {
		f.Add(full[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := trace.ReadAll(bytes.NewReader(data))
		got, gotErr := drain(data, 0)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("ReadAll err = %v, StreamReader err = %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("ReadAll err = %v, StreamReader err = %v", wantErr, gotErr)
			}
			want = decoded(data)
		}
		if !slices.Equal(want, got) {
			t.Fatalf("StreamReader yielded %d records, ReadAll %d (or contents differ)", len(got), len(want))
		}
		small, smallErr := drain(data, 16)
		if !slices.Equal(got, small) || (gotErr == nil) != (smallErr == nil) {
			t.Fatalf("16-byte buffer changed the stream: %d records (err %v) vs %d (err %v)",
				len(small), smallErr, len(got), gotErr)
		}
	})
}
