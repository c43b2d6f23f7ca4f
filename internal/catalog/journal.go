// Package catalog is the durable memory of the backup system: a
// crash-safe, append-only journal recording every completed dump set —
// engine, snapshot, incremental level or base generation, the media
// volumes the stream landed on, byte counts, and a per-file seek index
// for logical dumps — plus media-lifecycle and expiry events. On top
// of the journal it answers the operational questions a tape library
// poses: what dump sets exist, which media hold them, what the
// dump-date history is, and (the restore planner) which minimal
// full+incremental chain recovers a volume or a single file at a
// target time.
//
// The journal is a sequence of CRC-framed records. Appends are
// acknowledged only after a durable sync, and recovery replays the
// journal tolerating a torn final record: a crash mid-append loses at
// most the record that was never acknowledged, never anything before
// it — the same contract the dump engines' checkpoint records make for
// tape streams.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Frame geometry: [magic u32][length u32][crc32 u32][payload].
const (
	frameMagic = 0x43415431 // "CAT1"
	frameHdr   = 12
	// MaxRecord bounds a single journal record; larger frames are
	// treated as corruption (a wild length field must not make
	// recovery allocate gigabytes).
	MaxRecord = 16 << 20
)

// ErrCorrupt reports a malformed frame before the journal's tail —
// recovery stops there and the catalog refuses records past it.
var ErrCorrupt = errors.New("catalog: corrupt journal record")

// CorruptError is the structured form of ErrCorrupt: it names the byte
// offset of the failing frame and the record kind byte of its payload.
// errors.Is matches ErrCorrupt.
type CorruptError struct {
	// Offset is the byte offset in the journal where the bad frame (or
	// bad region) begins.
	Offset int64
	// Kind is the record kind byte of the failing payload, 0 when the
	// payload was empty or the region is not a decodable frame at all.
	Kind uint8
	// Err is the underlying decode failure, nil for framing-level
	// corruption (bad CRC / magic with intact history beyond it).
	Err error
}

func (e *CorruptError) Error() string {
	kind := "unframed bytes"
	if e.Kind != 0 {
		kind = fmt.Sprintf("record kind %d", e.Kind)
	}
	if e.Err != nil {
		return fmt.Sprintf("%v: %s at offset %d: %v", ErrCorrupt, kind, e.Offset, e.Err)
	}
	return fmt.Sprintf("%v: %s at offset %d", ErrCorrupt, kind, e.Offset)
}

// Is reports ErrCorrupt so existing errors.Is checks keep working.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// Unwrap exposes the underlying decode failure.
func (e *CorruptError) Unwrap() error { return e.Err }

// Store is the byte-level durability the journal needs. Appends must
// be durable when they return; Truncate discards a torn tail so new
// appends never interleave with garbage.
type Store interface {
	// ReadAll returns the journal's current contents.
	ReadAll() ([]byte, error)
	// Append durably appends p.
	Append(p []byte) error
	// Truncate durably shortens the journal to n bytes.
	Truncate(n int64) error
}

// MemStore is an in-memory Store for tests, simulation and
// crash-injection (its buffer can be truncated or corrupted at any
// byte to model a torn append).
type MemStore struct {
	Buf []byte
}

// ReadAll implements Store.
func (m *MemStore) ReadAll() ([]byte, error) { return m.Buf, nil }

// Append implements Store.
func (m *MemStore) Append(p []byte) error {
	m.Buf = append(m.Buf, p...)
	return nil
}

// Truncate implements Store.
func (m *MemStore) Truncate(n int64) error {
	if n < 0 || n > int64(len(m.Buf)) {
		return fmt.Errorf("catalog: truncate %d of %d", n, len(m.Buf))
	}
	m.Buf = m.Buf[:n]
	return nil
}

// FileStore is a file-backed Store; every Append is fsynced before it
// returns, which is what lets Open promise that acknowledged records
// survive a crash.
type FileStore struct {
	path string
	f    *os.File
}

// OpenFileStore opens (creating if absent) the journal file at path.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0644)
	if err != nil {
		return nil, err
	}
	return &FileStore{path: path, f: f}, nil
}

// ReadAll implements Store.
func (s *FileStore) ReadAll() ([]byte, error) { return os.ReadFile(s.path) }

// Append implements Store.
func (s *FileStore) Append(p []byte) error {
	if _, err := s.f.Seek(0, os.SEEK_END); err != nil {
		return err
	}
	if _, err := s.f.Write(p); err != nil {
		return err
	}
	return s.f.Sync()
}

// Truncate implements Store.
func (s *FileStore) Truncate(n int64) error {
	if err := s.f.Truncate(n); err != nil {
		return err
	}
	return s.f.Sync()
}

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// frame wraps payload in the journal framing.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHdr+len(payload))
	le := binary.LittleEndian
	le.PutUint32(buf[0:], frameMagic)
	le.PutUint32(buf[4:], uint32(len(payload)))
	le.PutUint32(buf[8:], crc32.ChecksumIEEE(payload))
	copy(buf[frameHdr:], payload)
	return buf
}

// ScanFrames walks buf frame by frame, calling visit (when non-nil)
// with each intact frame's byte offset and payload. It returns the
// byte length of the valid prefix: everything past it is a torn or
// corrupt tail (at most one acknowledged-record boundary is ever lost,
// because appends are atomic-at-sync). A frame that fails its magic,
// length bound, or CRC ends the scan — the journal is append-only, so
// nothing meaningful can follow a bad frame. This is the framing-level
// check only (no payload decoding); Mirror uses it to choose between
// two copies of a journal.
func ScanFrames(buf []byte, visit func(off int64, payload []byte) error) (int64, error) {
	le := binary.LittleEndian
	off := 0
	for off+frameHdr <= len(buf) {
		if le.Uint32(buf[off:]) != frameMagic {
			break
		}
		n := int(le.Uint32(buf[off+4:]))
		if n > MaxRecord || off+frameHdr+n > len(buf) {
			break
		}
		payload := buf[off+frameHdr : off+frameHdr+n]
		if crc32.ChecksumIEEE(payload) != le.Uint32(buf[off+8:]) {
			break
		}
		if visit != nil {
			if err := visit(int64(off), payload); err != nil {
				return int64(off), err
			}
		}
		off += frameHdr + n
	}
	return int64(off), nil
}

// intactFrameAfter reports whether an intact frame starts anywhere in
// buf at or past from. A torn append leaves only the torn frame after
// the valid prefix, so a later intact frame means the bad region is
// mid-journal corruption of acknowledged history, not a crash tail.
func intactFrameAfter(buf []byte, from int64) bool {
	le := binary.LittleEndian
	for off := int(from); off+frameHdr <= len(buf); off++ {
		if le.Uint32(buf[off:]) != frameMagic {
			continue
		}
		n := int(le.Uint32(buf[off+4:]))
		if n > MaxRecord || off+frameHdr+n > len(buf) {
			continue
		}
		if crc32.ChecksumIEEE(buf[off+frameHdr:off+frameHdr+n]) == le.Uint32(buf[off+8:]) {
			return true
		}
	}
	return false
}
