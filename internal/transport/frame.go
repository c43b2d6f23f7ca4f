// Package transport is the wire layer of the remote backup path: a
// framed, CRC-checked, sequence-numbered message format plus the two
// connections it travels over — a deterministic simulated link with
// seeded fault injection (drop, duplicate, corrupt, reorder, stall,
// one-way partition, scheduled cuts), and a thin adapter over a real
// net.Conn for backupctl's serve/push commands.
//
// The framing is deliberately self-describing and self-checking: a
// receiver that picks up a frame mangled in flight detects it from the
// CRC alone and can ask the peer for a status resend, which is what
// lets the session layer in internal/ndmp treat a corrupted frame the
// same way it treats a lost one — at most one retransmit, never a
// corrupted record on tape.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Frame layout, little-endian:
//
//	[0:4)   magic "NDMF"
//	[4]     type
//	[5]     flags
//	[6:14)  seq
//	[14:18) payload length
//	[18:22) CRC32 (IEEE) over bytes [4:18) and the payload
//	[22:)   payload
const (
	// HeaderSize is the fixed frame preamble length.
	HeaderSize = 22
	// MaxPayload bounds a frame's payload; anything larger is a
	// malformed frame, not a transfer to attempt.
	MaxPayload = 1 << 20
)

var frameMagic = [4]byte{'N', 'D', 'M', 'F'}

// ErrBadFrame classifies undecodable frames: bad magic, impossible
// length, or CRC mismatch. Receivers treat such frames as lost.
var ErrBadFrame = errors.New("transport: bad frame")

// Frame is one protocol message. Type and Flags are defined by the
// session layer; Seq numbers data frames for cumulative acknowledgment
// and idempotent replay.
type Frame struct {
	Type    byte
	Flags   byte
	Seq     uint64
	Payload []byte
}

// AppendFrame appends f's wire encoding to dst and returns the extended
// buffer: the allocation-free encoder for a caller that keeps one frame
// buffer and re-encodes into dst[:0]. f.Payload must not share memory
// with dst's spare capacity.
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = slices.Grow(dst, HeaderSize+len(f.Payload))
	start := len(dst)
	dst = append(dst, frameMagic[:]...)
	dst = append(dst, f.Type, f.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // the CRC, once the payload is in
	dst = append(dst, f.Payload...)
	frame := dst[start:]
	binary.LittleEndian.PutUint32(frame[18:], frameCRC(frame))
	return dst
}

// Encode marshals f into a fresh wire buffer.
func Encode(f *Frame) []byte { return AppendFrame(nil, f) }

// frameCRC is the CRC a whole frame carries: over the header after the
// magic, up to the CRC field, and the payload.
func frameCRC(frame []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, frame[4:18])
	return crc32.Update(crc, crc32.IEEETable, frame[HeaderSize:])
}

// Decode parses and verifies a wire buffer. The returned frame's
// payload aliases raw, so it is valid as long as raw is.
func Decode(raw []byte) (Frame, error) {
	if len(raw) < HeaderSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(raw))
	}
	if [4]byte(raw[:4]) != frameMagic {
		return Frame{}, fmt.Errorf("%w: bad magic", ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(raw[14:])
	if n > MaxPayload || int(n) != len(raw)-HeaderSize {
		return Frame{}, fmt.Errorf("%w: length %d in a %d-byte frame", ErrBadFrame, n, len(raw))
	}
	if frameCRC(raw) != binary.LittleEndian.Uint32(raw[18:]) {
		return Frame{}, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	return Frame{
		Type:    raw[4],
		Flags:   raw[5],
		Seq:     binary.LittleEndian.Uint64(raw[6:]),
		Payload: raw[HeaderSize:],
	}, nil
}
