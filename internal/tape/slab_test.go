package tape

import (
	"bytes"
	"errors"
	"testing"
)

// A cartridge keeps its records in pooled slabs it hands back at Erase.
// These tests hold the media semantics the slabs must not change: a
// record is its own bytes whatever shares its slab, and nothing read
// off a cartridge aliases one.

// pattern returns n bytes no other (seed, n) pair repeats at offset 0.
func pattern(seed, n int) []byte {
	b := make([]byte, n)
	for k := range b {
		b[k] = byte(seed*31 + k*7 + n)
	}
	return b
}

// loadedDrive returns an untimed drive with one blank cartridge mounted.
func loadedDrive(t *testing.T) (*Drive, *Cartridge) {
	t.Helper()
	c := NewCartridge("c")
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(c)
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	return d, c
}

// writeAll writes recs in order and returns them.
func writeAll(t *testing.T, d *Drive, recs ...[]byte) [][]byte {
	t.Helper()
	for i, r := range recs {
		if err := d.WriteRecord(nil, r); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	return recs
}

// wantRecords checks that c holds exactly want, in order, through a
// drive's reads and through RecordAt, and that Bytes counts them.
func wantRecords(t *testing.T, d *Drive, c *Cartridge, want [][]byte) {
	t.Helper()
	d.Rewind(nil)
	var total int64
	for i, w := range want {
		got, err := d.ReadRecord(nil)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("ReadRecord %d: %d bytes, %v; want its %d bytes", i, len(got), err, len(w))
		}
		if got, mark, bad, ok := c.RecordAt(i); !ok || mark || bad || !bytes.Equal(got, w) {
			t.Fatalf("RecordAt(%d): %d bytes (mark %v, unreadable %v, ok %v); want its %d bytes", i, len(got), mark, bad, ok, len(w))
		}
		total += int64(len(w))
	}
	if _, err := d.ReadRecord(nil); !errors.Is(err, ErrEndOfTape) {
		t.Fatalf("past the last record: %v, want ErrEndOfTape", err)
	}
	if _, _, _, ok := c.RecordAt(len(want)); ok {
		t.Fatalf("RecordAt(%d) past the last record reports a record", len(want))
	}
	if c.Bytes() != total || c.Records() != len(want) {
		t.Fatalf("Bytes %d, Records %d; want %d, %d", c.Bytes(), c.Records(), total, len(want))
	}
}

func TestEraseThenRewriteReadsOnlyNewRecords(t *testing.T) {
	d, c := loadedDrive(t)
	// Three slabs' worth, then a record bigger than a slab.
	var old [][]byte
	for i := 0; i < 300; i++ {
		old = append(old, pattern(i, 10<<10))
	}
	writeAll(t, d, append(old, pattern(-1, slabSize+1))...)
	c.Erase()
	wantRecords(t, d, c, nil)

	// Shorter records of other bytes, most of them in slabs the erase
	// handed back; the big one now comes first.
	want := [][]byte{pattern(-2, 2*slabSize)}
	for i := 0; i < 200; i++ {
		want = append(want, pattern(1000+i, 7000+i))
	}
	writeAll(t, d, want...)
	wantRecords(t, d, c, want)
}

func TestCorruptRecordAtLeavesSlabNeighbours(t *testing.T) {
	d, c := loadedDrive(t)
	want := writeAll(t, d, pattern(1, 3000), pattern(2, 5000), pattern(3, 4000))
	if !c.CorruptRecordAt(1) {
		t.Fatal("CorruptRecordAt(1) found no record")
	}
	flipped := bytes.Clone(want[1])
	for k := range flipped {
		flipped[k] ^= 0xFF
	}
	wantRecords(t, d, c, [][]byte{want[0], flipped, want[2]})
}

func TestLongerRepairKeepsNeighbours(t *testing.T) {
	d, c := loadedDrive(t)
	want := writeAll(t, d, pattern(1, 1000), pattern(2, 1000), pattern(3, 1000))
	if !c.RepairRecordAt(1, pattern(4, 9000)) {
		t.Fatal("RepairRecordAt(1) refused")
	}
	want[1] = pattern(4, 9000)
	// A record written after the repair lands behind the repaired copy.
	want = append(want, writeAll(t, d, pattern(5, 2000))...)
	wantRecords(t, d, c, want)
}

func TestRecordAtCopyOutlivesErase(t *testing.T) {
	d, c := loadedDrive(t)
	want := writeAll(t, d, pattern(1, 10<<10), pattern(2, 10<<10))
	got, _, _, ok := c.RecordAt(1)
	if !ok {
		t.Fatal("RecordAt(1) found no record")
	}
	c.Erase()
	for i := 0; i < 400; i++ {
		writeAll(t, d, bytes.Repeat([]byte{0xA5}, 10<<10))
	}
	if !bytes.Equal(got, want[1]) {
		t.Fatal("a RecordAt copy changed when the cartridge was erased and rewritten")
	}
}
