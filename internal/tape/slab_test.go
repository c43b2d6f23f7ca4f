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
// drive's reads, and that Bytes counts them.
func wantRecords(t *testing.T, d *Drive, c *Cartridge, want [][]byte) {
	t.Helper()
	d.Rewind(nil)
	var total int64
	for i, w := range want {
		got, err := d.ReadRecord(nil)
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("ReadRecord %d: %d bytes, %v; want its %d bytes", i, len(got), err, len(w))
		}
		total += int64(len(w))
	}
	if _, err := d.ReadRecord(nil); !errors.Is(err, ErrEndOfTape) {
		t.Fatalf("past the last record: %v, want ErrEndOfTape", err)
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
	if !c.CorruptRecord(1) {
		t.Fatal("CorruptRecord(1) found no record")
	}
	flipped := bytes.Clone(want[1])
	for k := range flipped {
		flipped[k] ^= 0xFF
	}
	wantRecords(t, d, c, [][]byte{want[0], flipped, want[2]})
}

// TestReadRecordOutlivesErase: a record read through a drive is the
// drive's copy, not a slice of the cartridge's slab, so erasing the
// cartridge and writing over its slabs leaves it as read.
func TestReadRecordOutlivesErase(t *testing.T) {
	d, c := loadedDrive(t)
	want := writeAll(t, d, pattern(1, 10<<10), pattern(2, 10<<10))
	d.Rewind(nil)
	if err := d.SpaceRecords(nil, 1); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRecord(nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Erase()
	for i := 0; i < 400; i++ {
		writeAll(t, d, bytes.Repeat([]byte{0xA5}, 10<<10))
	}
	if !bytes.Equal(got, want[1]) {
		t.Fatal("a record read through the drive changed when the cartridge was erased and rewritten")
	}
}
