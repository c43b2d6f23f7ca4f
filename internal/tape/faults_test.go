package tape

import (
	"errors"
	"testing"
)

func TestFailNextWriteTransient(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("A"))
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	d.FailNextWrite(true)
	err := d.WriteRecord(nil, []byte("rec"))
	if !errors.Is(err, ErrMediaWrite) || !IsTransientMedia(err) {
		t.Fatalf("want transient media error, got %v", err)
	}
	// Transient: the retry of the same record succeeds and the
	// cartridge is undamaged.
	if err := d.WriteRecord(nil, []byte("rec")); err != nil {
		t.Fatalf("retry after transient: %v", err)
	}
	if d.Loaded().Damaged() {
		t.Fatal("transient error damaged the cartridge")
	}
}

func TestPersistentMediaErrorDamagesCartridge(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("A"), NewCartridge("B"))
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecord(nil, []byte("first")); err != nil {
		t.Fatal(err)
	}
	d.FailNextWrite(false)
	err := d.WriteRecord(nil, []byte("second"))
	if !errors.Is(err, ErrMediaWrite) || IsTransientMedia(err) {
		t.Fatalf("want persistent media error, got %v", err)
	}
	// Every further write to the damaged cartridge fails...
	if err := d.WriteRecord(nil, []byte("third")); !errors.Is(err, ErrMediaWrite) {
		t.Fatalf("damaged cartridge accepted a write: %v", err)
	}
	// ...but what was already on it still reads.
	d.Rewind(nil)
	rec, err := d.ReadRecord(nil)
	if err != nil || string(rec) != "first" {
		t.Fatalf("read from damaged cartridge: %q, %v", rec, err)
	}
	// Switching cartridges gets the stream going again.
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecord(nil, []byte("second")); err != nil {
		t.Fatalf("fresh cartridge: %v", err)
	}
}

func TestOfflineAfterRecords(t *testing.T) {
	d := NewDrive(nil, "t0", DefaultParams())
	d.AddCartridges(NewCartridge("A"))
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	d.InjectFaults(FaultConfig{OfflineAfterRecords: 2})
	for i := 0; i < 2; i++ {
		if err := d.WriteRecord(nil, []byte("rec")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !d.Offline() {
		t.Fatal("drive not offline after configured record count")
	}
	if err := d.WriteRecord(nil, []byte("rec")); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline write: %v", err)
	}
	if err := d.Load(nil); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline load: %v", err)
	}
	if _, err := d.ReadRecord(nil); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline read: %v", err)
	}
	// Both records written before the event survive the outage.
	d.SetOffline(false)
	d.Rewind(nil)
	for i := 0; i < 2; i++ {
		if _, err := d.ReadRecord(nil); err != nil {
			t.Fatalf("read %d after recovery: %v", i, err)
		}
	}
}

func TestProbabilisticMediaErrorsDeterministic(t *testing.T) {
	run := func() (errs int, transients int) {
		d := NewDrive(nil, "t0", DefaultParams())
		d.AddCartridges(NewCartridge("A"), NewCartridge("B"), NewCartridge("C"))
		if err := d.Load(nil); err != nil {
			t.Fatal(err)
		}
		d.InjectFaults(FaultConfig{Seed: 11, WriteFault: 0.05, Transient: 0.5})
		for i := 0; i < 400; i++ {
			err := d.WriteRecord(nil, []byte("record payload"))
			switch {
			case err == nil:
			case IsTransientMedia(err):
				transients++
			case errors.Is(err, ErrMediaWrite):
				errs++
				if lerr := d.Load(nil); lerr != nil {
					t.Fatal(lerr)
				}
			default:
				t.Fatalf("write %d: %v", i, err)
			}
		}
		return errs, transients
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", e1, t1, e2, t2)
	}
	if e1+t1 == 0 {
		t.Fatal("no media errors injected in 400 writes at p=0.05")
	}
}

// Writers ask IsTransientMedia about every record they write, and
// nearly every answer is about a nil error: that case must not cost a
// heap object.
func TestIsTransientMediaNilZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if IsTransientMedia(nil) {
			t.Fatal("nil is not a media error")
		}
	}); n != 0 {
		t.Fatalf("IsTransientMedia(nil): %v allocs per run, want 0", n)
	}
}
