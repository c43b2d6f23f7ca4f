package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/sim"
	"repro/internal/tape"
)

// --- MemMedia -----------------------------------------------------------

// MemMedia is in-memory chunk storage for tests and the chaos rigs.
// Loc.Index is the append sequence number.
type MemMedia struct {
	mu      sync.Mutex
	vol     string
	records [][]byte
	stored  int64
	erased  map[Loc]bool

	appends int
	failAt  int // the append that fails, with every one after it; 0: none
}

// NewMemMedia creates an empty in-memory volume labelled vol.
func NewMemMedia(vol string) *MemMedia { return &MemMedia{vol: vol, erased: make(map[Loc]bool)} }

// FailAfter makes the n-th Append from now fail, and every one after
// it — the chaos hook simulating media loss mid-dump. n <= 0 clears it.
func (m *MemMedia) FailAfter(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failAt = 0
	if n > 0 {
		m.failAt = m.appends + n
	}
}

// Appends returns how many Appends the media has been asked for,
// failed ones included.
func (m *MemMedia) Appends() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appends
}

// Append implements Media.
func (m *MemMedia) Append(data []byte) (Loc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.appends++
	if m.failAt > 0 && m.appends >= m.failAt {
		return Loc{}, errors.New("chunk: injected media failure")
	}
	m.records = append(m.records, bytes.Clone(data))
	m.stored += int64(len(data))
	return Loc{Volume: m.vol, Index: int64(len(m.records) - 1)}, nil
}

// record returns the record at loc; the caller holds mu.
func (m *MemMedia) record(loc Loc) ([]byte, error) {
	if loc.Volume != m.vol {
		return nil, fmt.Errorf("chunk: volume %q not mounted (have %q)", loc.Volume, m.vol)
	}
	if loc.Index < 0 || loc.Index >= int64(len(m.records)) {
		return nil, fmt.Errorf("chunk: index %d out of range", loc.Index)
	}
	return m.records[loc.Index], nil
}

// ReadAt implements Media.
func (m *MemMedia) ReadAt(loc Loc) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, err := m.record(loc)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(rec), nil
}

// Erase erases one chunk in place (the catalog sweep's erase for a
// zero-ref chunk): its bytes are zeroed for good, and the other chunks
// of its record stay readable.
func (m *MemMedia) Erase(e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, err := m.record(e.Loc)
	if err != nil {
		return fmt.Errorf("chunk: erase %s: %w", e.Hash, err)
	}
	end := int64(e.Loc.Off) + int64(e.StoredLen)
	if end > int64(len(rec)) {
		return fmt.Errorf("chunk: erase %s: bytes [%d,%d) past the end of a %d-byte record", e.Hash, e.Loc.Off, end, len(rec))
	}
	clear(rec[e.Loc.Off:end])
	if !m.erased[e.Loc] {
		m.erased[e.Loc] = true
		m.stored -= int64(e.StoredLen)
	}
	return nil
}

// StoredBytes returns the live (unerased) bytes on the volume.
func (m *MemMedia) StoredBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stored
}

// --- FileMedia ----------------------------------------------------------

// maxFileRecord bounds a frame length read back from a chunk-store
// file, so a corrupt length prefix cannot drive an oversized
// allocation. Far above ContainerBytes, and above any single chunk a
// store written before chunks were packed holds.
const maxFileRecord = 16 << 20

// FileMedia stores chunk containers in one host file — backupctl's
// `<volume>.chunkstore`. Frames are [u32 LE length][payload];
// Loc.Index is the frame's byte offset. Erase zeroes one chunk's bytes
// in its frame's payload (the space itself is reclaimed only by
// deleting the store once every set on it has expired, like retiring
// a tape).
type FileMedia struct {
	mu  sync.Mutex
	vol string
	f   *os.File
	off int64 // append offset
}

// OpenFileMedia opens or creates the chunk store at path, labelled vol.
func OpenFileMedia(path, vol string) (*FileMedia, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileMedia{vol: vol, f: f, off: st.Size()}, nil
}

// Volume returns the media's volume label.
func (m *FileMedia) Volume() string { return m.vol }

// Append implements Media.
func (m *FileMedia) Append(data []byte) (Loc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
	at := m.off
	if _, err := m.f.WriteAt(hdr[:], at); err != nil {
		return Loc{}, err
	}
	if _, err := m.f.WriteAt(data, at+4); err != nil {
		return Loc{}, err
	}
	m.off = at + 4 + int64(len(data))
	return Loc{Volume: m.vol, Index: at}, nil
}

// frameLen reads the length of the frame at loc; the caller holds mu.
func (m *FileMedia) frameLen(loc Loc) (int, error) {
	var hdr [4]byte
	if _, err := m.f.ReadAt(hdr[:], loc.Index); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFileRecord {
		return 0, fmt.Errorf("chunk: bad frame length %d at %d", n, loc.Index)
	}
	return int(n), nil
}

// ReadAt implements Media.
func (m *FileMedia) ReadAt(loc Loc) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.frameLen(loc)
	if err != nil {
		return nil, err
	}
	data := make([]byte, n)
	if _, err := m.f.ReadAt(data, loc.Index+4); err != nil {
		return nil, err
	}
	return data, nil
}

// Erase erases one chunk in place by zeroing its bytes in the frame's
// payload. The frame header and the record's other chunks survive, so
// later offsets and live neighbours stay valid.
func (m *FileMedia) Erase(e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, err := m.frameLen(e.Loc)
	if err != nil {
		return err
	}
	end := int64(e.Loc.Off) + int64(e.StoredLen)
	if end > int64(n) {
		return fmt.Errorf("chunk: erase %s: bytes [%d,%d) past the end of a %d-byte record", e.Hash, e.Loc.Off, end, n)
	}
	_, err = m.f.WriteAt(make([]byte, e.StoredLen), e.Loc.Index+4+int64(e.Loc.Off))
	return err
}

// Sync implements stream.Syncer.
func (m *FileMedia) Sync() error { return m.f.Sync() }

// Close closes the store.
func (m *FileMedia) Close() error { return m.f.Close() }

// --- DriveMedia ---------------------------------------------------------

// DriveMedia adapts a simulated tape drive (with stacker) to chunk
// Media, charging virtual time for every record and repositioning
// pass — the media model the EXPERIMENTS.md dedup-week numbers run
// on. Loc.Volume is the cartridge label, Loc.Index the raw record
// index.
//
// A dump only appends (dedup hits never touch the drive — that is the
// point); a restore only reads, repositioning with Rewind +
// SpaceRecords exactly like the catalog-driven restore planner does.
// Reverse-dedup'd latest sets read back as a straight forward scan;
// forward-dedup'd old sets pay the seeks, which is the RevDedup
// tradeoff the experiment measures.
type DriveMedia struct {
	Drive *tape.Drive
	Proc  *sim.Proc

	pos int // tracked read-head position on the loaded cartridge
}

// NewDriveMedia wraps drive; proc (may be nil) is charged tape time.
func NewDriveMedia(drive *tape.Drive, proc *sim.Proc) *DriveMedia {
	return &DriveMedia{Drive: drive, Proc: proc}
}

// BindProc implements stream.ProcBinder.
func (m *DriveMedia) BindProc(p *sim.Proc) *sim.Proc {
	old := m.Proc
	m.Proc = p
	return old
}

// Append implements Media, spanning cartridges at end of media.
func (m *DriveMedia) Append(data []byte) (Loc, error) {
	for {
		cart := m.Drive.Loaded()
		if cart == nil {
			if err := m.Drive.Load(m.Proc); err != nil {
				return Loc{}, err
			}
			m.pos = 0
			continue
		}
		idx := cart.Index()
		err := m.Drive.WriteRecord(m.Proc, data)
		if err == nil {
			return Loc{Volume: cart.Label, Index: int64(idx)}, nil
		}
		if !errors.Is(err, tape.ErrEndOfMedia) {
			return Loc{}, err
		}
		if err := m.Drive.Load(m.Proc); err != nil {
			return Loc{}, err
		}
		m.pos = 0
	}
}

// ReadAt implements Media: mount the chunk's cartridge if needed,
// position the head (forward spacing at search speed, backward via a
// rewind) and read the record, riding out transient read faults like
// every other reader of recorded media.
func (m *DriveMedia) ReadAt(loc Loc) ([]byte, error) {
	was := m.Drive.Loaded()
	err := m.Drive.Mount(m.Proc, loc.Volume)
	if m.Drive.Loaded() != was {
		m.pos = 0
	}
	if err != nil {
		return nil, err
	}
	target := int(loc.Index)
	if target < m.pos {
		m.Drive.Rewind(m.Proc)
		m.pos = 0
	}
	if target > m.pos {
		if err := m.Drive.SpaceRecords(m.Proc, target-m.pos); err != nil {
			return nil, err
		}
		m.pos = target
	}
	rec, _, err := m.Drive.ReadData(nil, m.Proc, nil)
	if err != nil {
		return nil, err
	}
	m.pos++
	return rec, nil
}

// NextVolume cycles the stacker to the next cartridge, so a scheduler
// can give each day's full its own volume (and a restore of the
// newest set mounts one cartridge and streams, never spacing over
// older sets' bytes).
func (m *DriveMedia) NextVolume() error {
	if err := m.Drive.Load(m.Proc); err != nil {
		return err
	}
	m.pos = 0
	return nil
}
