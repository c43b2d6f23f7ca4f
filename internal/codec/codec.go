// Package codec is the record encoding the catalog journal's payloads
// and the ndmp Hello and ack frames share: fixed-width little-endian
// integers, strict 0/1 booleans and u32-length-prefixed strings.
// Encoding is canonical — a decodable input re-encodes to the bytes
// that produced it — which is what lets journals and frames be
// compared byte for byte.
//
// Dec is an untrusted-input boundary: arbitrary bytes produce values
// or an error, never a panic or an allocation larger than the input.
package codec

import (
	"encoding/binary"
	"fmt"
)

// Enc appends encoded fields to B.
type Enc struct{ B []byte }

func (e *Enc) U8(v uint8)   { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) I64(v int64)  { e.U64(uint64(v)) }

// Raw appends a fixed-width field whose length the format implies.
func (e *Enc) Raw(p []byte) { e.B = append(e.B, p...) }

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.B = append(e.B, s...)
}

// Dec consumes encoded fields from B. The first failure sticks: every
// later read returns a zero value, and Err and Done report it.
type Dec struct {
	B []byte
	// Max caps the length of one length-prefixed field.
	Max int
	// Bad is the sentinel every decoding error wraps.
	Bad error

	off int
	err error
}

// Err returns the first decoding failure, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(what string, at int) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at %d", d.Bad, what, at)
	}
}

// take returns the next n bytes, or nil after recording a truncation.
func (d *Dec) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.B) {
		d.fail("truncated", d.off)
		return nil
	}
	p := d.B[d.off : d.off+n : d.off+n]
	d.off += n
	return p
}

func (d *Dec) U8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *Dec) U32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *Dec) I64() int64 { return int64(d.U64()) }

// Raw fills p with the next len(p) bytes.
func (d *Dec) Raw(p []byte) { copy(p, d.take(len(p))) }

// Bool accepts only 0 and 1, keeping the encoding canonical.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail("bad boolean", d.off-1)
	return false
}

// Count reads the u32 number of items that follow. Every item takes at
// least a byte, so a count beyond the input's length is corrupt — the
// bound that keeps a decoder's allocations within its input's size.
func (d *Dec) Count() int {
	n := int(d.U32())
	if n < 0 || n > len(d.B) {
		d.fail("bad count", d.off-4)
		return 0
	}
	return n
}

// Str returns a length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// Bytes returns a length-prefixed field as a slice of B: no copy, valid
// as long as B is.
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	if n < 0 || n > d.Max {
		d.fail("over-long field", d.off-4)
		return nil
	}
	return d.take(n)
}

// Done reports the first failure, or bytes left over after the last
// field.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.B) {
		return fmt.Errorf("%w: %d trailing bytes", d.Bad, len(d.B)-d.off)
	}
	return d.err
}
