// Package snap is the versioned, self-describing binary container behind
// simulator checkpoints. A snapshot file is
//
//	"SDPC" | version u32 LE | sections...
//
// where each section is a length-framed, named byte range:
//
//	name string | payload length u64 LE | payload
//
// Sections nest, so a reader that only understands the outer structure can
// still walk (and report) the file, and a decoder for one subsystem fails
// loudly — with the section name — instead of silently misreading a
// neighbour's bytes. Primitives are uvarint/zig-zag varint for counts and
// fixed 64-bit little-endian words for raw state.
//
// Decoding never panics: every read is bounds-checked against both the file
// and the enclosing section, the first failure is recorded and all later
// reads become no-ops (the sticky-error style of bufio.Scanner), and Close
// rejects trailing garbage. A version mismatch is a typed *VersionError so
// callers can distinguish "old format" from "corrupt file".
//
// The package is a leaf: it imports only the standard library, so any layer
// of the simulator may depend on it without bending the import DAG.
package snap

import (
	"encoding/binary"
	"fmt"
)

// magic identifies a snapshot file; it never changes across versions.
const magic = "SDPC"

// headerLen is magic plus the fixed 32-bit version word.
const headerLen = len(magic) + 4

// VersionError reports a snapshot whose format version the running binary
// does not support.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("unsupported checkpoint version %d (want %d)", e.Got, e.Want)
}

// RangeError reports a well-framed value that the state being restored
// cannot hold: a list longer than its structure allows, an address outside
// the device, a cell index outside the line. Decoders check such values
// before sizing anything from them, so a corrupt file fails with this error
// instead of a panic or an enormous allocation.
type RangeError struct {
	Msg string
}

func (e *RangeError) Error() string { return "snap: " + e.Msg }

// Encoder builds a snapshot byte stream. Methods never fail; malformed use
// (unbalanced Begin/End) is a programming error caught by Finish.
type Encoder struct {
	buf  []byte
	open []int // offsets of section length words awaiting End
}

// NewEncoder starts a snapshot of the given format version.
func NewEncoder(version uint32) *Encoder {
	e := &Encoder{buf: make([]byte, 0, 1<<16)}
	e.buf = append(e.buf, magic...)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, version)
	return e
}

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Varint appends a zig-zag signed varint.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends a signed machine int as a varint.
func (e *Encoder) Int(v int) { e.Varint(int64(v)) }

// U64 appends a fixed 8-byte little-endian word.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Begin opens a named section; its length is patched in by End.
func (e *Encoder) Begin(name string) {
	e.String(name)
	e.open = append(e.open, len(e.buf))
	e.buf = append(e.buf, make([]byte, 8)...)
}

// End closes the innermost open section.
func (e *Encoder) End() {
	if len(e.open) == 0 {
		panic("snap: End without Begin")
	}
	at := e.open[len(e.open)-1]
	e.open = e.open[:len(e.open)-1]
	binary.LittleEndian.PutUint64(e.buf[at:at+8], uint64(len(e.buf)-at-8))
}

// Finish returns the completed snapshot bytes.
func (e *Encoder) Finish() []byte {
	if len(e.open) != 0 {
		panic(fmt.Sprintf("snap: Finish with %d unclosed sections", len(e.open)))
	}
	return e.buf
}

// Decoder reads a snapshot byte stream with a sticky first error: after a
// failure every read returns the zero value, so call sites decode straight
// through and check Err (or Close) once.
type Decoder struct {
	data []byte
	pos  int
	ends []int // enclosing section end offsets, innermost last
	err  error
}

// NewDecoder validates the header and positions a decoder at the first
// section. A mismatched version yields a *VersionError.
func NewDecoder(data []byte, wantVersion uint32) (*Decoder, error) {
	if len(data) < headerLen || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("snap: bad magic: not a checkpoint file")
	}
	v := binary.LittleEndian.Uint32(data[len(magic):headerLen])
	if v != wantVersion {
		return nil, &VersionError{Got: v, Want: wantVersion}
	}
	return &Decoder{data: data, pos: headerLen}, nil
}

// Err returns the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snap: "+format, args...)
	}
}

// Reject records a *RangeError as the decoder's sticky error (unless an
// earlier failure is already recorded); later reads become no-ops.
func (d *Decoder) Reject(format string, args ...any) {
	if d.err == nil {
		d.err = &RangeError{Msg: fmt.Sprintf(format, args...)}
	}
}

// limit is the end of the readable range: the innermost section, or the file.
func (d *Decoder) limit() int {
	if n := len(d.ends); n > 0 {
		return d.ends[n-1]
	}
	return len(d.data)
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:d.limit()])
	if n <= 0 {
		d.fail("truncated or malformed uvarint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Len reads the count of a list whose items each take at least minBytes
// encoded bytes (minBytes >= 1). A count that many items could not fit in
// what remains of the enclosing section is recorded as a *RangeError and
// reads as 0, so a caller may size a slice or map from the result: the
// allocation is bounded by the input, not by a crafted count.
func (d *Decoder) Len(minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if left := d.limit() - d.pos; n > uint64(left/minBytes) {
		d.Reject("count %d of %d-byte items overruns the %d bytes left at offset %d", n, minBytes, left, d.pos)
		return 0
	}
	return int(n)
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:d.limit()])
	if n <= 0 {
		d.fail("truncated or malformed varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

// Int reads a signed machine int.
func (d *Decoder) Int() int { return int(d.Varint()) }

// U64 reads a fixed 8-byte little-endian word.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.limit()-d.pos < 8 {
		d.fail("truncated u64 at offset %d", d.pos)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.limit()-d.pos < 1 {
		d.fail("truncated bool at offset %d", d.pos)
		return false
	}
	b := d.data[d.pos]
	d.pos++
	if b > 1 {
		d.fail("corrupt bool byte 0x%02x at offset %d", b, d.pos-1)
		return false
	}
	return b == 1
}

// Bytes reads a length-prefixed byte slice (aliasing the snapshot buffer).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.limit()-d.pos) {
		d.fail("byte slice of %d overruns section at offset %d", n, d.pos)
		return nil
	}
	p := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return p
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Begin enters the next section, which must carry the given name.
func (d *Decoder) Begin(name string) {
	got := d.String()
	if d.err != nil {
		return
	}
	if got != name {
		d.fail("section %q where %q was expected", got, name)
		return
	}
	n := d.U64()
	if d.err != nil {
		return
	}
	if n > uint64(d.limit()-d.pos) {
		d.fail("section %q length %d overruns its container", name, n)
		return
	}
	d.ends = append(d.ends, d.pos+int(n))
}

// End leaves the innermost section, rejecting unconsumed payload — a
// length/content mismatch means the writer and reader disagree on the
// format, which must surface as an error, not as silently skipped state.
func (d *Decoder) End() {
	if d.err != nil {
		return
	}
	if len(d.ends) == 0 {
		d.fail("End without Begin")
		return
	}
	end := d.ends[len(d.ends)-1]
	if d.pos != end {
		d.fail("section has %d unconsumed bytes", end-d.pos)
		return
	}
	d.ends = d.ends[:len(d.ends)-1]
}

// Close finishes decoding: every section must be closed and every byte of
// the file consumed.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if len(d.ends) != 0 {
		d.fail("%d sections left open", len(d.ends))
		return d.err
	}
	if d.pos != len(d.data) {
		d.fail("%d trailing bytes after the last section", len(d.data)-d.pos)
	}
	return d.err
}
