package dumpfmt

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		Type: TSInode, Date: 1111, DDate: 222, Volume: 3, Tapea: 44,
		Inumber: 55, Level: 2, Label: "home-level2",
		Dinode: DumpInode{Mode: 0100644, Nlink: 2, UID: 7, GID: 8,
			Size: 123456, Atime: 9, Mtime: 10, XMode: 0xBEEF},
		Count: 4, Addrs: []byte{1, 0, 1, 1},
	}
	buf, err := h.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != TPBSize {
		t.Fatalf("record length %d", len(buf))
	}
	got, err := UnmarshalHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != h.Type || got.Date != h.Date || got.DDate != h.DDate ||
		got.Volume != h.Volume || got.Tapea != h.Tapea || got.Inumber != h.Inumber ||
		got.Level != h.Level || got.Label != h.Label || got.Dinode != h.Dinode {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, h)
	}
	if !bytes.Equal(got.Addrs, h.Addrs) {
		t.Fatal("addrs mismatch")
	}
}

func TestHeaderChecksumDetectsCorruption(t *testing.T) {
	h := &Header{Type: TSInode, Inumber: 9}
	buf, _ := h.Marshal()
	for _, off := range []int{0, 33, 500, TPBSize - 1} {
		bad := make([]byte, TPBSize)
		copy(bad, buf)
		bad[off] ^= 0x10
		if _, err := UnmarshalHeader(bad); err == nil {
			t.Errorf("corruption at %d not detected", off)
		}
	}
}

func TestHeaderChecksumPropertyAnyFieldSet(t *testing.T) {
	f := func(typ uint8, date, ddate int64, ino uint32, size uint64, nAddr uint8) bool {
		h := &Header{
			Type:    int32(typ%6) + 1,
			Date:    date,
			DDate:   ddate,
			Inumber: ino,
			Dinode:  DumpInode{Size: size},
		}
		h.Addrs = make([]byte, int(nAddr)%MaxSegsPerHeader)
		for i := range h.Addrs {
			h.Addrs[i] = byte(i % 2)
		}
		h.Count = int32(len(h.Addrs))
		buf, err := h.Marshal()
		if err != nil {
			return false
		}
		out, err := UnmarshalHeader(buf)
		return err == nil && out.Inumber == ino && out.Date == date && out.Dinode.Size == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := (&Header{Type: TSInode, Count: 1}).Marshal(); err == nil {
		t.Error("count/addrs mismatch accepted")
	}
	tooMany := &Header{Type: TSInode, Count: MaxSegsPerHeader + 1, Addrs: make([]byte, MaxSegsPerHeader+1)}
	if _, err := tooMany.Marshal(); err == nil {
		t.Error("oversized addr map accepted")
	}
	long := &Header{Type: TSInode, Label: string(make([]byte, 100))}
	if _, err := long.Marshal(); err == nil {
		t.Error("oversized label accepted")
	}
	if _, err := UnmarshalHeader(make([]byte, 10)); !errors.Is(err, ErrShortRecord) {
		t.Error("short record accepted")
	}
	if _, err := UnmarshalHeader(make([]byte, TPBSize)); !errors.Is(err, ErrBadMagic) {
		t.Error("zero record accepted")
	}
}

func TestInoMap(t *testing.T) {
	m := NewInoMap(100)
	for _, i := range []uint32{0, 2, 63, 64, 99} {
		m.Set(i)
	}
	for _, i := range []uint32{0, 2, 63, 64, 99} {
		if !m.Has(i) {
			t.Errorf("Has(%d) = false", i)
		}
	}
	for _, i := range []uint32{1, 3, 65, 98, 1000} {
		if m.Has(i) {
			t.Errorf("Has(%d) = true", i)
		}
	}
	if m.Count() != 5 {
		t.Fatalf("Count = %d, want 5", m.Count())
	}
	// Growth past the initial size.
	m.Set(5000)
	if !m.Has(5000) {
		t.Fatal("grown map lost bit")
	}
	// Round trip through bytes.
	m2 := InoMapFromBytes(m.Bytes())
	if !m2.Has(99) || !m2.Has(5000) || m2.Has(98) || m2.Count() != 6 {
		t.Fatal("byte round trip broke map")
	}
}

// memSink is an in-memory Sink with per-volume capacity.
type memSink struct {
	volumes  [][][]byte
	capacity int64
	used     int64
	noMore   bool
}

func newMemSink(capacity int64) *memSink {
	return &memSink{volumes: [][][]byte{{}}, capacity: capacity}
}

func (s *memSink) WriteRecord(data []byte) error {
	if s.capacity > 0 && s.used+int64(len(data)) > s.capacity {
		return stream.ErrEndOfMedia
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	cur := len(s.volumes) - 1
	s.volumes[cur] = append(s.volumes[cur], cp)
	s.used += int64(len(data))
	return nil
}

func (s *memSink) NextVolume() error {
	if s.noMore {
		return errors.New("no more volumes")
	}
	s.volumes = append(s.volumes, nil)
	s.used = 0
	return nil
}

// memSource replays all volumes of a memSink in order.
type memSource struct {
	recs [][]byte
	pos  int
}

func (s *memSink) source() *memSource {
	var src memSource
	for _, vol := range s.volumes {
		src.recs = append(src.recs, vol...)
	}
	return &src
}

func (s *memSource) ReadRecord() ([]byte, error) {
	if s.pos >= len(s.recs) {
		return nil, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

func TestStreamRoundTrip(t *testing.T) {
	sink := newMemSink(0)
	w, err := NewWriter(sink, "vol0", 1000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One file with a hole: segments 0 and 2 present, 1 absent.
	h := &Header{Type: TSInode, Inumber: 7,
		Dinode: DumpInode{Mode: 0100644, Size: 3 * TPBSize},
		Count:  3, Addrs: []byte{1, 0, 1}}
	if err := w.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	segA := bytes.Repeat([]byte{0xA}, TPBSize)
	segC := bytes.Repeat([]byte{0xC}, TPBSize)
	w.WriteSegment(segA)
	w.WriteSegment(segC)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(sink.source())
	first, err := r.NextHeader()
	if err != nil || first.Type != TSTape {
		t.Fatalf("first header: %+v, %v", first, err)
	}
	if first.Label != "vol0" || first.Date != 1000 {
		t.Fatalf("volume header fields: %+v", first)
	}
	ino, err := r.NextHeader()
	if err != nil || ino.Type != TSInode || ino.Inumber != 7 {
		t.Fatalf("inode header: %+v, %v", ino, err)
	}
	var segs []walked
	end, err := r.Walk(ino, collect(&segs))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].off != 0 || segs[1].off != 2*TPBSize ||
		!bytes.Equal(segs[0].data, segA) || !bytes.Equal(segs[1].data, segC) {
		t.Fatal("segment contents mismatch")
	}
	if end.Type != TSEnd {
		t.Fatalf("end header: %+v", end)
	}
}

// walked is one segment a Walk visited; collect appends a copy of each
// to *out.
type walked struct {
	off  uint64
	data []byte
}

func collect(out *[]walked) func(uint64, []byte) error {
	return func(off uint64, seg []byte) error {
		*out = append(*out, walked{off, bytes.Clone(seg)})
		return nil
	}
}

func TestMultiVolumeSpanning(t *testing.T) {
	// Small per-volume capacity: the stream must span several volumes
	// and the reader must see every record back-to-back.
	sink := newMemSink(30 * TPBSize)
	w, err := NewWriter(sink, "span", 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	const files = 20
	for i := 0; i < files; i++ {
		h := &Header{Type: TSInode, Inumber: uint32(100 + i),
			Dinode: DumpInode{Mode: 0100644, Size: 2 * TPBSize},
			Count:  2, Addrs: []byte{1, 1}}
		if err := w.WriteHeader(h); err != nil {
			t.Fatal(err)
		}
		w.WriteSegment(bytes.Repeat([]byte{byte(i)}, TPBSize))
		w.WriteSegment(bytes.Repeat([]byte{byte(i + 100)}, TPBSize))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.volumes) < 2 {
		t.Fatalf("dump fit in %d volume(s); wanted spanning", len(sink.volumes))
	}

	r := NewReader(sink.source())
	seen := 0
	conts := 0
	h, err := r.NextHeader()
	for err == nil && h.Type != TSEnd {
		var segs []walked
		cur := *h
		h, err = r.Walk(&cur, collect(&segs))
		switch cur.Type {
		case TSTape:
			conts++
		case TSInode:
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 2 || segs[0].data[0] != byte(seen) || segs[1].data[0] != byte(seen+100) {
				t.Fatalf("file %d data mismatch", seen)
			}
			seen++
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if seen != files {
		t.Fatalf("recovered %d files, want %d", seen, files)
	}
	// Continuation headers are stepped over by Walk; at minimum the
	// initial volume header must have been seen.
	if conts < 1 {
		t.Fatalf("saw %d TS_TAPE headers, want >= 1", conts)
	}
}

func TestVolumeChangeFailureSurfaces(t *testing.T) {
	sink := newMemSink(15 * TPBSize)
	sink.noMore = true
	w, err := NewWriter(sink, "x", 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var werr error
	for i := 0; i < 100 && werr == nil; i++ {
		werr = w.WriteSegment(bytes.Repeat([]byte{1}, TPBSize))
	}
	if werr == nil {
		werr = w.Close()
	}
	if werr == nil {
		t.Fatal("running out of volumes did not error")
	}
}

func TestReaderResyncSkipsCorruptUnits(t *testing.T) {
	sink := newMemSink(0)
	w, _ := NewWriter(sink, "r", 9, 0, 0)
	for i := 0; i < 5; i++ {
		h := &Header{Type: TSInode, Inumber: uint32(i + 10),
			Dinode: DumpInode{Mode: 0100644, Size: TPBSize},
			Count:  1, Addrs: []byte{1}}
		w.WriteHeader(h)
		w.WriteSegment(bytes.Repeat([]byte{byte(i)}, TPBSize))
	}
	w.Close()

	// Corrupt the record containing file 2's header (record 0 holds
	// units 0..9: TS_TAPE, then (hdr,data) pairs for files 0..3...).
	// Instead of computing offsets, flip bytes in one mid-stream unit.
	src := sink.source()
	// unit 5 = header of file 2 (1 TS_TAPE + 2 per file).
	rec0 := src.recs[0]
	for i := 0; i < TPBSize; i++ {
		rec0[5*TPBSize+i] ^= 0xFF
	}

	r := NewReader(src)
	var got []uint32
	h, err := r.NextHeader()
	for err == nil && h.Type != TSEnd {
		if h.Type == TSInode {
			got = append(got, h.Inumber)
		}
		h, err = r.Walk(h, nil)
	}
	if err != nil {
		t.Fatalf("before TS_END: %v", err)
	}
	// File 12's header was destroyed; the others must survive.
	want := map[uint32]bool{10: true, 11: true, 13: true, 14: true}
	for _, g := range got {
		delete(want, g)
	}
	if len(want) != 0 {
		t.Fatalf("resync lost files %v (got %v)", want, got)
	}
	if r.Skipped() == 0 {
		t.Fatal("reader reports no skipped units")
	}
}
