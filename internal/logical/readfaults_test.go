package logical

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"repro/internal/tape"
	"repro/internal/workload"
)

// TestDriveSourceRetriesAndSkips drives the source's whole read-fault
// policy at the record level: a transient error is retried in place, a
// persistent one is latched and — in SkipDamaged mode — spaced past.
func TestDriveSourceRetriesAndSkips(t *testing.T) {
	drive := newTape(t, 0, 1)
	var want [][]byte
	for i := 0; i < 6; i++ {
		rec := bytes.Repeat([]byte{byte('a' + i)}, 16)
		want = append(want, rec)
		if err := drive.WriteRecord(nil, rec); err != nil {
			t.Fatal(err)
		}
	}
	drive.Rewind(nil)
	drive.FailNextRead(true) // record 0: transient, must be retried

	src := NewDriveSource(drive, nil, 1)
	src.SkipDamaged = true
	first, err := src.ReadRecord()
	if err != nil || !bytes.Equal(first, want[0]) {
		t.Fatalf("first read got %q / %v, want the retried record", first, err)
	}
	drive.FailNextRead(false) // record 1: latched bad spot, must be skipped
	// A record is lent until the next read: the ones kept are copies.
	got := [][]byte{bytes.Clone(first)}
	for {
		rec, err := src.ReadRecord()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, bytes.Clone(rec))
	}
	wantAfter := append([][]byte{want[0]}, want[2:]...)
	if len(got) != len(wantAfter) {
		t.Fatalf("read %d records, want %d", len(got), len(wantAfter))
	}
	for i := range got {
		if !bytes.Equal(got[i], wantAfter[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	retries, skipped := src.ReadStats()
	if retries != 1 || skipped != 1 {
		t.Fatalf("read stats: %d retries, %d skipped; want 1, 1", retries, skipped)
	}
	if drive.Loaded().BadRecords() != 1 {
		t.Fatalf("bad records = %d, want 1", drive.Loaded().BadRecords())
	}
}

// TestDriveSourceExhaustsRetryBudget: a transient error that outlives
// the bounded retry budget surfaces instead of looping forever.
func TestDriveSourceExhaustsRetryBudget(t *testing.T) {
	drive := newTape(t, 0, 1)
	if err := drive.WriteRecord(nil, []byte("only")); err != nil {
		t.Fatal(err)
	}
	drive.Rewind(nil)
	// More transient faults than DefaultRetryPolicy's 4 retries allow.
	for i := 0; i < 8; i++ {
		drive.FailNextRead(true)
	}
	src := NewDriveSource(drive, nil, 1)
	if _, err := src.ReadRecord(); !tape.IsTransientMedia(err) {
		t.Fatalf("want the unhealed transient error to surface, got %v", err)
	}
}

// TestVerifyRetriesTransientReads: Verify runs over the same
// retry-with-backoff read path the restore uses, so a tape that reads
// marginally still verifies clean.
func TestVerifyRetriesTransientReads(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 41, Files: 12, DirFanout: 4, MeanFileSize: 8 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	if _, err := Dump(ctx, DumpOptions{View: sv, Sink: &DriveSink{Drive: drive}, Label: "vr"}); err != nil {
		t.Fatal(err)
	}
	drive.Flush(nil)
	drive.Rewind(nil)
	// Every read error transient: the drive recovers each on one retry.
	drive.InjectFaults(tape.FaultConfig{Seed: 42, ReadFault: 0.1, ReadTransient: 1})
	tsrc := NewDriveSource(drive, nil, 1)
	res, err := Verify(ctx, VerifyOptions{View: sv, Source: tsrc})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(res.Problems) != 0 {
		t.Fatalf("verify found problems on a clean dump: %v", res.Problems)
	}
	if retries, _ := tsrc.ReadStats(); retries == 0 {
		t.Fatal("no transient faults fired; lower the seed's luck or raise ReadFault")
	}
}

// TestRestoreSurvivesTransientReadFaults: the full dump→restore cycle
// over a drive with probabilistic transient read faults is
// byte-identical — the retry policy absorbs every marginal read.
func TestRestoreSurvivesTransientReadFaults(t *testing.T) {
	src := newFS(t, 8192)
	workload.Generate(ctx, src, workload.Spec{Seed: 43, Files: 15, DirFanout: 4, MeanFileSize: 12 << 10})
	src.CreateSnapshot(ctx, "s")
	sv, _ := src.SnapshotView("s")
	drive := newTape(t, 0, 1)
	if _, err := Dump(ctx, DumpOptions{View: sv, Sink: &DriveSink{Drive: drive}, Label: "rr"}); err != nil {
		t.Fatal(err)
	}
	drive.Flush(nil)
	drive.InjectFaults(tape.FaultConfig{Seed: 44, ReadFault: 0.15, ReadTransient: 1})
	dst := newFS(t, 8192)
	rsrc := NewDriveSource(drive, nil, 0)
	restoreFromTape(t, dst, drive, func(o *RestoreOptions) { o.Source = rsrc })
	assertTreesEqual(t, digests(t, sv, "/"), digests(t, dst.ActiveView(), "/"))
	if retries, _ := rsrc.ReadStats(); retries == 0 {
		t.Fatal("no transient faults fired during restore")
	}
}

// TestTapeRetryLoopsHonorCancel: both tape adapters bail out of their
// backoff loops when the context is canceled instead of sleeping out
// the budget.
func TestTapeRetryLoopsHonorCancel(t *testing.T) {
	canceled, cancel := context.WithCancel(ctx)
	cancel()

	drive := newTape(t, 0, 1)
	drive.FailNextWrite(true)
	sink := &DriveSink{Drive: drive, Ctx: canceled}
	if err := sink.WriteRecord([]byte("rec")); !errors.Is(err, context.Canceled) {
		t.Fatalf("sink returned %v, want context.Canceled", err)
	}

	if err := drive.WriteRecord(nil, []byte("rec")); err != nil {
		t.Fatal(err)
	}
	drive.Rewind(nil)
	drive.FailNextRead(true)
	src := NewDriveSource(drive, nil, 1)
	src.Ctx = canceled
	if _, err := src.ReadRecord(); !errors.Is(err, context.Canceled) {
		t.Fatalf("source returned %v, want context.Canceled", err)
	}
}
