package dumpfmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// emitFile writes a hole-mapped file the way the dump does: one
// WriteMapped per MaxSegsPerHeader window of its map, TS_ADDR after the
// first. between, if set, runs between two windows.
func emitFile(t *testing.T, w *Writer, ino uint32, addrs, data []byte, between func()) {
	t.Helper()
	di := DumpInode{Mode: 0100644, Size: uint64(len(data))}
	typ := int32(TSInode)
	for seg := 0; seg == 0 || seg < len(addrs); seg += MaxSegsPerHeader {
		if seg > 0 && between != nil {
			between()
		}
		end := min(seg+MaxSegsPerHeader, len(addrs))
		if err := w.WriteMapped(typ, ino, di, addrs[seg:end], data[min(seg*TPBSize, len(data)):]); err != nil {
			t.Fatal(err)
		}
		typ = TSAddr
	}
}

// TestEmitWalkRoundTrip is the record's round-trip property: files of
// random sizes and hole maps — empty, a last segment of one byte and of
// a whole unit, more segments than one header maps — written through
// the emitter onto cartridges small enough that volume changes land
// mid-file, with a checkpoint before a continuation header, walk back
// to the identical (offset, bytes) sequence.
func TestEmitWalkRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{0, 1, TPBSize, TPBSize + 1, 7 * TPBSize, MaxSegsPerHeader * TPBSize,
			MaxSegsPerHeader*TPBSize + 1, 2*MaxSegsPerHeader*TPBSize + 300}
		for i := 0; i < 4; i++ {
			sizes = append(sizes, rng.Intn(3*MaxSegsPerHeader*TPBSize))
		}
		rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })

		sink := newMemSink(int64(40+rng.Intn(200)) * TPBSize)
		w, err := NewWriter(sink, "prop", 1000, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]walked, len(sizes))
		for f, size := range sizes {
			data := make([]byte, size)
			rng.Read(data)
			addrs := make([]byte, (size+TPBSize-1)/TPBSize)
			density := rng.Intn(4) // 0: all holes
			for i := range addrs {
				if rng.Intn(3) < density {
					addrs[i] = 1
					want[f] = append(want[f], walked{uint64(i * TPBSize), data[i*TPBSize : min((i+1)*TPBSize, size)]})
				}
			}
			ino := uint32(10 + f)
			emitFile(t, w, ino, addrs, data, func() {
				if err := w.Checkpoint(ino - 1); err != nil {
					t.Fatal(err)
				}
			})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if len(sink.volumes) < 3 {
			t.Fatalf("seed %d: %d volumes; no cartridge change landed mid-file", seed, len(sink.volumes))
		}

		r := NewReader(sink.source())
		h, err := r.NextHeader()
		for f := 0; err == nil && h.Type != TSEnd; {
			var got []walked
			cur := *h
			h, err = r.Walk(&cur, collect(&got))
			if cur.Type != TSInode {
				continue
			}
			if err != nil || cur.Inumber != uint32(10+f) || len(got) != len(want[f]) {
				t.Fatalf("seed %d, file %d (%d bytes): inode %d, %d segments, want %d: %v",
					seed, f, sizes[f], cur.Inumber, len(got), len(want[f]), err)
			}
			for i := range got {
				if got[i].off != want[f][i].off || !bytes.Equal(got[i].data, want[f][i].data) {
					t.Fatalf("seed %d, file %d (%d bytes): segment %d at offset %d (%d bytes), want offset %d (%d bytes)",
						seed, f, sizes[f], i, got[i].off, len(got[i].data), want[f][i].off, len(want[f][i].data))
				}
			}
			f++
		}
		if err != nil || r.Skipped() != 0 {
			t.Fatalf("seed %d: %v, %d units skipped", seed, err, r.Skipped())
		}
	}
}

// TestBlobRoundTrip: a hole-free blob of any length — none, a partial
// unit, exactly one header's worth, more (a TS_BITS map past 512
// segments continues under TS_ADDR like any file) — walks back whole.
func TestBlobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 5, TPBSize, MaxSegsPerHeader * TPBSize, MaxSegsPerHeader*TPBSize + 1, 1300 * TPBSize} {
		data := make([]byte, size)
		rng.Read(data)
		sink := newMemSink(0)
		w, _ := NewWriter(sink, "blob", 1, 0, 0)
		if err := w.WriteBlob(TSBits, 2, DumpInode{Size: uint64(size)}, data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(sink.source())
		r.NextHeader() // TS_TAPE
		h, err := r.NextHeader()
		if err != nil || h.Type != TSBits {
			t.Fatalf("%d bytes: %+v, %v", size, h, err)
		}
		var got []byte
		end, err := r.Walk(h, func(off uint64, seg []byte) error {
			if off != uint64(len(got)) {
				t.Fatalf("%d bytes: segment at %d after %d bytes", size, off, len(got))
			}
			got = append(got, seg...)
			return nil
		})
		if err != nil || end.Type != TSEnd || !bytes.Equal(got, data) {
			t.Fatalf("%d bytes: walked %d, then %+v, %v", size, len(got), end, err)
		}
	}
}

// TestOneHeaderMapBytes pins the emitter to the bytes logical's own map
// writer produced before the record moved here: SHA-256 of the whole
// stream (label, one TS_BITS map of n inodes, TS_END), recorded at the
// commit before the move.
func TestOneHeaderMapBytes(t *testing.T) {
	for n, want := range map[uint32]string{
		0:     "b237b0772c28bf143beca6ac1082b144551a176959b498fc71d7142403303a0a",
		40:    "d4e143a578ad8f12f81a7cd8f2b0c8422672062a1573c14c26b80607f8dd533f",
		8192:  "7de9d49d676fb208c4df63ff3984815cbdeae997875c84f34c36551ea8981c03",
		20000: "d249cf85054c82aaed1f934a82801bb9d991847e41c8dac89eeb4a262246ebae",
	} {
		m := NewInoMap(n)
		for _, i := range []uint32{2, 3, 5, 64, 1000, 8191, 19999} {
			if i < n {
				m.Set(i)
			}
		}
		sink := newMemSink(0)
		w, err := NewWriter(sink, "golden", 1000, 900, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlob(TSBits, 2, DumpInode{Size: uint64(len(m.Bytes()))}, m.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(bytes.Join(sink.volumes[0], nil))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("map of %d inodes: stream digest %s, want %s", n, got, want)
		}
	}
}
