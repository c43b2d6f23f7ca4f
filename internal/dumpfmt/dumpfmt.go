// Package dumpfmt implements the archival on-tape stream format used
// by logical dump — a faithful structural reproduction of the BSD dump
// format the paper describes (§3):
//
//   - the stream is a sequence of 1 KB header records interleaved with
//     1 KB data segments;
//   - record types TS_TAPE (volume label), TS_CLRI (map of free
//     inodes), TS_BITS (map of inodes in use / to be dumped), TS_INODE
//     (a file or directory, with its metadata), TS_ADDR (continuation
//     of a large file) and TS_END;
//   - every header carries the dump date, the incremental base date,
//     the inode number, a magic number and a checksum chosen so the
//     32-bit words of the header sum to a known constant;
//   - file data headers carry a hole map: one byte per following 1 KB
//     segment, zero meaning the segment is a hole and is not stored.
//
// The format is deliberately self-contained and filesystem-independent
// ("a canonical representation which can be understood without knowing
// very much if anything about the file system structure"), which is
// what gives logical backup its portability and single-file restore,
// and what costs it the metadata interpretation the paper measures.
package dumpfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Record geometry.
const (
	// TPBSize is the dump record unit (TP_BSIZE in BSD dump).
	TPBSize = 1024
	// NTRec is how many 1 KB units are blocked into one tape record.
	NTRec = 10
	// Magic identifies a dump header (NFS_MAGIC in BSD dump).
	Magic = 60012
	// ChecksumConst is the value header words must sum to (CHECKSUM).
	ChecksumConst = 84446
	// MaxSegsPerHeader is the most data segments one header's hole map
	// can describe (TP_NINDIR in spirit).
	MaxSegsPerHeader = 512
)

// Record types.
const (
	TSTape       = 1 // volume label
	TSInode      = 2 // file or directory header
	TSBits       = 3 // bitmap of inodes dumped
	TSAddr       = 4 // continuation of a file
	TSEnd        = 5 // end of dump
	TSClri       = 6 // bitmap of inodes free at dump time
	TSCheckpoint = 7 // restart marker: everything up to Inumber is on tape
)

// Errors.
var (
	ErrBadMagic    = errors.New("dumpfmt: bad magic")
	ErrBadChecksum = errors.New("dumpfmt: bad checksum")
	ErrShortRecord = errors.New("dumpfmt: short record")
)

// DumpInode is the subset of file metadata carried in a TS_INODE
// header — enough to recreate the file on any filesystem.
type DumpInode struct {
	Mode  uint32
	Nlink uint32
	UID   uint32
	GID   uint32
	Size  uint64
	Atime int64
	Mtime int64
	XMode uint32 // vendor extension: DOS bits / NT ACL id (paper §3)
}

// Header is one 1 KB dump record header.
type Header struct {
	Type    int32
	Date    int64 // time of this dump
	DDate   int64 // time of the base dump (0 for level 0)
	Volume  int32 // tape volume number, starting at 1
	Tapea   int64 // logical record number within the dump
	Inumber uint32
	Level   int32
	Label   string // dump label (max 64 bytes)
	Dinode  DumpInode
	Count   int32  // segments described by Addrs
	Addrs   []byte // hole map: Count bytes, 1 = data segment follows
}

// Fixed byte offsets within the 1 KB header.
const (
	offType     = 0
	offDate     = 4
	offDDate    = 12
	offVolume   = 20
	offTapea    = 24
	offInumber  = 32
	offLevel    = 36
	offMagic    = 40
	offChecksum = 44
	offMode     = 48
	offNlink    = 52
	offUID      = 56
	offGID      = 60
	offSize     = 64
	offAtime    = 72
	offMtime    = 80
	offXMode    = 88
	offCount    = 92
	offLabel    = 96 // 64 bytes
	offAddrs    = 160
	maxAddrs    = TPBSize - offAddrs // 864; we cap at MaxSegsPerHeader
)

// Marshal encodes h into a fresh 1 KB record with a valid checksum.
func (h *Header) Marshal() ([]byte, error) {
	buf := make([]byte, TPBSize)
	if err := h.MarshalInto(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// MarshalInto encodes h into buf (which must be TPBSize long),
// overwriting every byte — the allocation-free path the stream Writer
// uses to marshal headers directly into its blocked record buffer.
func (h *Header) MarshalInto(buf []byte) error {
	if len(buf) != TPBSize {
		return fmt.Errorf("%w: %d byte buffer", ErrShortRecord, len(buf))
	}
	if len(h.Addrs) > MaxSegsPerHeader {
		return fmt.Errorf("dumpfmt: %d addrs exceeds max %d", len(h.Addrs), MaxSegsPerHeader)
	}
	if int(h.Count) != len(h.Addrs) {
		return fmt.Errorf("dumpfmt: count %d != len(addrs) %d", h.Count, len(h.Addrs))
	}
	if len(h.Label) > 64 {
		return fmt.Errorf("dumpfmt: label %q too long", h.Label)
	}
	clear(buf)
	le := binary.LittleEndian
	le.PutUint32(buf[offType:], uint32(h.Type))
	le.PutUint64(buf[offDate:], uint64(h.Date))
	le.PutUint64(buf[offDDate:], uint64(h.DDate))
	le.PutUint32(buf[offVolume:], uint32(h.Volume))
	le.PutUint64(buf[offTapea:], uint64(h.Tapea))
	le.PutUint32(buf[offInumber:], h.Inumber)
	le.PutUint32(buf[offLevel:], uint32(h.Level))
	le.PutUint32(buf[offMagic:], Magic)
	le.PutUint32(buf[offMode:], h.Dinode.Mode)
	le.PutUint32(buf[offNlink:], h.Dinode.Nlink)
	le.PutUint32(buf[offUID:], h.Dinode.UID)
	le.PutUint32(buf[offGID:], h.Dinode.GID)
	le.PutUint64(buf[offSize:], h.Dinode.Size)
	le.PutUint64(buf[offAtime:], uint64(h.Dinode.Atime))
	le.PutUint64(buf[offMtime:], uint64(h.Dinode.Mtime))
	le.PutUint32(buf[offXMode:], h.Dinode.XMode)
	le.PutUint32(buf[offCount:], uint32(h.Count))
	copy(buf[offLabel:offLabel+64], h.Label)
	copy(buf[offAddrs:], h.Addrs)

	// Set the checksum so that the sum of all 32-bit words equals
	// ChecksumConst, exactly like BSD dump.
	le.PutUint32(buf[offChecksum:], 0)
	var sum int32
	for i := 0; i < TPBSize; i += 4 {
		sum += int32(le.Uint32(buf[i:]))
	}
	le.PutUint32(buf[offChecksum:], uint32(ChecksumConst-sum))
	return nil
}

// UnmarshalHeader decodes and validates a 1 KB record header into a
// fresh Header. A Reader decodes into headers it owns instead, through
// the same decode.
func UnmarshalHeader(buf []byte) (*Header, error) {
	h := new(Header)
	if err := h.decode(buf); err != nil {
		return nil, err
	}
	return h, nil
}

// checkHeader makes every check of buf that decode makes, in the same
// order, and returns the record type of a valid header.
func checkHeader(buf []byte) (int32, error) {
	if len(buf) != TPBSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrShortRecord, len(buf))
	}
	le := binary.LittleEndian
	if le.Uint32(buf[offMagic:]) != Magic {
		return 0, ErrBadMagic
	}
	var sum int32
	for i := 0; i < TPBSize; i += 4 {
		sum += int32(le.Uint32(buf[i:]))
	}
	if sum != ChecksumConst {
		return 0, ErrBadChecksum
	}
	if count := int32(le.Uint32(buf[offCount:])); count < 0 || count > MaxSegsPerHeader {
		return 0, fmt.Errorf("dumpfmt: bad addr count %d", count)
	}
	typ := int32(le.Uint32(buf[offType:]))
	if typ < TSTape || typ > TSCheckpoint {
		return 0, fmt.Errorf("dumpfmt: unknown record type %d", typ)
	}
	return typ, nil
}

// decode is the one header decoder: it validates buf and fills h from
// it, leaving h as it was when buf is not a valid header. The hole map
// goes into h's own Addrs buffer and Label keeps its string when the
// bytes spell it already, so decoding into the same Header over and over
// allocates nothing.
func (h *Header) decode(buf []byte) error {
	typ, err := checkHeader(buf)
	if err != nil {
		return err
	}
	le := binary.LittleEndian
	h.Type = typ
	h.Date = int64(le.Uint64(buf[offDate:]))
	h.DDate = int64(le.Uint64(buf[offDDate:]))
	h.Volume = int32(le.Uint32(buf[offVolume:]))
	h.Tapea = int64(le.Uint64(buf[offTapea:]))
	h.Inumber = le.Uint32(buf[offInumber:])
	h.Level = int32(le.Uint32(buf[offLevel:]))
	h.Count = int32(le.Uint32(buf[offCount:]))
	h.Dinode = DumpInode{
		Mode:  le.Uint32(buf[offMode:]),
		Nlink: le.Uint32(buf[offNlink:]),
		UID:   le.Uint32(buf[offUID:]),
		GID:   le.Uint32(buf[offGID:]),
		Size:  le.Uint64(buf[offSize:]),
		Atime: int64(le.Uint64(buf[offAtime:])),
		Mtime: int64(le.Uint64(buf[offMtime:])),
		XMode: le.Uint32(buf[offXMode:]),
	}
	label := buf[offLabel : offLabel+64]
	n := 0
	for n < len(label) && label[n] != 0 {
		n++
	}
	if string(label[:n]) != h.Label {
		h.Label = string(label[:n])
	}
	h.Addrs = append(h.Addrs[:0], buf[offAddrs:offAddrs+int(h.Count)]...)
	return nil
}

// poison scribbles over a header a Reader lent and has taken back: a
// caller still reading it finds a record type no stream has, inode and
// Dinode fields of 0xA5 bytes and a full hole map of 0xA5 bytes, in
// which no segment is present — never the next header's fields. Label
// is left alone: every header of a stream carries the same one, and a
// string cannot be scribbled over.
func (h *Header) poison() {
	const (
		u32 = 0xA5A5A5A5
		u64 = 0xA5A5A5A5A5A5A5A5
		i32 = int32(-0x5A5A5A5B)         // u32's bits
		i64 = int64(-0x5A5A5A5A5A5A5A5B) // u64's bits
	)
	addrs := h.Addrs[:cap(h.Addrs)]
	for i := range addrs {
		addrs[i] = 0xA5
	}
	*h = Header{
		Type: i32, Date: i64, DDate: i64, Volume: i32, Tapea: i64, Inumber: u32, Level: i32,
		Label: h.Label,
		Dinode: DumpInode{Mode: u32, Nlink: u32, UID: u32, GID: u32,
			Size: u64, Atime: i64, Mtime: i64, XMode: u32},
		Count: int32(len(addrs)), Addrs: addrs,
	}
}

// InoMap is the bitmap of inode numbers carried by TS_BITS and TS_CLRI
// records.
type InoMap struct {
	bits []byte
}

// NewInoMap creates a map able to hold inodes [0, n).
func NewInoMap(n uint32) *InoMap {
	return &InoMap{bits: make([]byte, (n+7)/8)}
}

// Set marks ino present.
func (m *InoMap) Set(ino uint32) {
	for int(ino/8) >= len(m.bits) {
		m.bits = append(m.bits, 0)
	}
	m.bits[ino/8] |= 1 << (ino % 8)
}

// Has reports whether ino is present.
func (m *InoMap) Has(ino uint32) bool {
	if int(ino/8) >= len(m.bits) {
		return false
	}
	return m.bits[ino/8]&(1<<(ino%8)) != 0
}

// Max returns one past the largest representable inode.
func (m *InoMap) Max() uint32 { return uint32(len(m.bits) * 8) }

// Bytes returns the raw bitmap for embedding in the stream.
func (m *InoMap) Bytes() []byte { return m.bits }

// InoMapFromBytes wraps raw bitmap bytes read from a stream.
func InoMapFromBytes(b []byte) *InoMap {
	cp := make([]byte, len(b))
	copy(cp, b)
	return &InoMap{bits: cp}
}

// Count returns the number of set inodes.
func (m *InoMap) Count() int {
	n := 0
	for _, b := range m.bits {
		for b != 0 {
			n += int(b & 1)
			b >>= 1
		}
	}
	return n
}
