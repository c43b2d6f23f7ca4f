package tape

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("c1"))
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("hello"), []byte("tape"), bytes.Repeat([]byte{7}, 10240)}
	for _, r := range recs {
		if err := d.WriteRecord(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteFileMark(nil); err != nil {
		t.Fatal(err)
	}
	d.Rewind(nil)
	for i, want := range recs {
		got, err := d.ReadRecord(nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, err := d.ReadRecord(nil); !errors.Is(err, ErrFileMark) {
		t.Fatalf("err = %v, want ErrFileMark", err)
	}
	if _, err := d.ReadRecord(nil); !errors.Is(err, ErrEndOfTape) {
		t.Fatalf("err = %v, want ErrEndOfTape", err)
	}
}

func TestNoCartridge(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	if err := d.WriteRecord(nil, []byte("x")); !errors.Is(err, ErrNoCartridge) {
		t.Fatalf("write err = %v, want ErrNoCartridge", err)
	}
	if _, err := d.ReadRecord(nil); !errors.Is(err, ErrNoCartridge) {
		t.Fatalf("read err = %v, want ErrNoCartridge", err)
	}
	if err := d.Load(nil); !errors.Is(err, ErrNoCartridge) {
		t.Fatalf("load with empty stacker err = %v, want ErrNoCartridge", err)
	}
}

func TestEndOfMediaAndSpanning(t *testing.T) {
	p := DefaultParams()
	p.Capacity = 1000
	d := NewDrive(nil, "t0", p)
	d.AddCartridges(NewCartridge("c1"), NewCartridge("c2"))
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{1}, 400)
	if err := d.WriteRecord(nil, rec); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecord(nil, rec); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecord(nil, rec); !errors.Is(err, ErrEndOfMedia) {
		t.Fatalf("third write err = %v, want ErrEndOfMedia", err)
	}
	// Change cartridges and continue.
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecord(nil, rec); err != nil {
		t.Fatalf("write after change: %v", err)
	}
	if d.Loaded().Label != "c2" {
		t.Fatalf("loaded %q, want c2", d.Loaded().Label)
	}
	_, _, changes := d.Stats()
	if changes != 2 {
		t.Fatalf("changes = %d, want 2", changes)
	}
}

func TestLoadCyclesThroughStacker(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("a"), NewCartridge("b"))
	d.Load(nil)
	if d.Loaded().Label != "a" {
		t.Fatalf("loaded %q, want a", d.Loaded().Label)
	}
	d.Load(nil)
	if d.Loaded().Label != "b" {
		t.Fatalf("loaded %q, want b", d.Loaded().Label)
	}
	d.Load(nil) // "a" went to the back, comes around again
	if d.Loaded().Label != "a" {
		t.Fatalf("loaded %q, want a (cycled)", d.Loaded().Label)
	}
}

func TestStreamingRate(t *testing.T) {
	// Writing 85 MB at 8.5 MB/s must take ~10 s of virtual time.
	env := sim.NewEnv()
	d := NewDrive(env, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("c"))
	env.Spawn("w", func(pr *sim.Proc) {
		if err := d.Load(pr); err != nil {
			t.Error(err)
			return
		}
		rec := make([]byte, 10240)
		for i := 0; i < 8704; i++ { // 85 MB in 10 KB records
			if err := d.WriteRecord(pr, rec); err != nil {
				t.Error(err)
				return
			}
		}
		d.Flush(pr)
	})
	env.Run()
	elapsed := env.Now() - DefaultParams().ChangeTime // discount the load
	if elapsed < 9*time.Second || elapsed > 13*time.Second {
		t.Fatalf("85 MB took %v, want ~10-12s", elapsed)
	}
}

func TestCartridgeChangeLatency(t *testing.T) {
	env := sim.NewEnv()
	d := NewDrive(env, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("a"), NewCartridge("b"))
	env.Spawn("w", func(pr *sim.Proc) {
		d.Load(pr)
		d.Load(pr)
	})
	env.Run()
	if want := 2 * DefaultParams().ChangeTime; env.Now() != want {
		t.Fatalf("two loads took %v, want %v", env.Now(), want)
	}
}

func TestSpaceRecordsFasterThanReading(t *testing.T) {
	measure := func(skip bool) sim.Time {
		env := sim.NewEnv()
		p := DefaultParams()
		p.ChangeTime = 0
		d := NewDrive(env, "t0", p)
		d.AddCartridges(NewCartridge("c"))
		env.Spawn("rw", func(pr *sim.Proc) {
			d.Load(pr)
			rec := make([]byte, 10240)
			for i := 0; i < 100; i++ {
				d.WriteRecord(pr, rec)
			}
			d.Flush(pr)
			d.Rewind(pr)
			if skip {
				d.SpaceRecords(pr, 100)
			} else {
				for i := 0; i < 100; i++ {
					d.ReadRecord(pr)
				}
				// Reads stream asynchronously; wait for the transport
				// so the comparison covers the full media time.
				d.Flush(pr)
			}
		})
		env.Run()
		return env.Now()
	}
	tRead, tSkip := measure(false), measure(true)
	if tSkip >= tRead {
		t.Fatalf("spacing (%v) not faster than reading (%v)", tSkip, tRead)
	}
}

func TestCorruptRecord(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("c"))
	d.Load(nil)
	d.WriteRecord(nil, []byte{1, 2, 3})
	d.WriteFileMark(nil)
	d.WriteRecord(nil, []byte{4, 5, 6})
	if !d.Loaded().CorruptRecord(1) {
		t.Fatal("CorruptRecord(1) found nothing")
	}
	d.Rewind(nil)
	r0, err := d.ReadRecord(nil)
	if err != nil || !bytes.Equal(r0, []byte{1, 2, 3}) {
		t.Fatalf("record 0 = %v, %v", r0, err)
	}
	if _, err := d.ReadRecord(nil); !errors.Is(err, ErrFileMark) {
		t.Fatal("expected file mark")
	}
	r1, _ := d.ReadRecord(nil)
	if bytes.Equal(r1, []byte{4, 5, 6}) {
		t.Fatal("record 1 not corrupted")
	}
	if !d.Loaded().CorruptRecord(5) == false && d.Loaded().CorruptRecord(5) {
		t.Fatal("corrupting nonexistent record reported success")
	}
}

func TestRecordIsolation(t *testing.T) {
	// The drive must copy data on write and read: mutating the
	// caller's buffer afterwards must not affect the tape, and neither
	// must scribbling over the record a read lends (the drive's one read
	// buffer, which the next read refills from the cartridge).
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("c"))
	d.Load(nil)
	buf := []byte{9, 9, 9}
	d.WriteRecord(nil, buf)
	buf[0] = 0
	d.Rewind(nil)
	got, _ := d.ReadRecord(nil)
	if got[0] != 9 {
		t.Fatal("tape aliased writer buffer")
	}
	for i := range got {
		got[i] = 0xA5
	}
	d.Rewind(nil)
	again, _ := d.ReadRecord(nil)
	if !bytes.Equal(again, []byte{9, 9, 9}) {
		t.Fatalf("re-read %v: tape aliased reader buffer", again)
	}
}

func TestCartridgeAccounting(t *testing.T) {
	c := NewCartridge("c")
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(c)
	d.Load(nil)
	d.WriteRecord(nil, make([]byte, 100))
	d.WriteRecord(nil, make([]byte, 200))
	d.WriteFileMark(nil)
	if c.Bytes() != 300 {
		t.Fatalf("Bytes = %d, want 300", c.Bytes())
	}
	if c.Records() != 2 {
		t.Fatalf("Records = %d, want 2", c.Records())
	}
}

func TestSeekFile(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("c"))
	d.Load(nil)
	// Three tape files: [A1 A2] mark [B1] mark [C1 C2 C3]
	d.WriteRecord(nil, []byte("A1"))
	d.WriteRecord(nil, []byte("A2"))
	d.WriteFileMark(nil)
	d.WriteRecord(nil, []byte("B1"))
	d.WriteFileMark(nil)
	d.WriteRecord(nil, []byte("C1"))

	if err := d.SeekFile(nil, 1); err != nil {
		t.Fatal(err)
	}
	r, err := d.ReadRecord(nil)
	if err != nil || string(r) != "B1" {
		t.Fatalf("after SeekFile(1): %q, %v", r, err)
	}
	if err := d.SeekFile(nil, 2); err != nil {
		t.Fatal(err)
	}
	r, _ = d.ReadRecord(nil)
	if string(r) != "C1" {
		t.Fatalf("after SeekFile(2): %q", r)
	}
	if err := d.SeekFile(nil, 0); err != nil {
		t.Fatal(err)
	}
	r, _ = d.ReadRecord(nil)
	if string(r) != "A1" {
		t.Fatalf("after SeekFile(0): %q", r)
	}
	if err := d.SeekFile(nil, 9); err == nil {
		t.Fatal("seek past last mark succeeded")
	}
	if err := NewDrive(nil, "x", DefaultParams()).SeekFile(nil, 1); err == nil {
		t.Fatal("seek with no cartridge succeeded")
	}
}
