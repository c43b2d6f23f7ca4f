package raid

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/storage"
	"repro/internal/vdev"
)

// buildFaultGroup makes a 4+1 group on untimed vdevs and fills it with
// a recognizable pattern, returning the group and the written image.
func buildFaultGroup(t *testing.T, blocksPerDisk int) (*Group, []byte) {
	t.Helper()
	var data []Disk
	for i := 0; i < 4; i++ {
		data = append(data, vdev.New(nil, "d", blocksPerDisk, vdev.DefaultParams()))
	}
	parity := vdev.New(nil, "p", blocksPerDisk, vdev.DefaultParams())
	g, err := NewGroup(data, parity)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, g.NumBlocks()*storage.BlockSize)
	for i := range img {
		img[i] = byte(i * 7)
	}
	ctx := context.Background()
	if err := g.WriteRun(ctx, 0, g.NumBlocks(), img); err != nil {
		t.Fatal(err)
	}
	return g, img
}

// TestDegradedReadFromLatentSector plants a persistent latent sector
// error on one member and checks both the per-block and the bulk-run
// read paths reconstruct the block from parity instead of failing.
func TestDegradedReadFromLatentSector(t *testing.T) {
	g, img := buildFaultGroup(t, 64)
	ctx := context.Background()

	// Group block 9 lives on disk 9%4=1, disk block 9/4=2.
	fd := g.data[1].(*vdev.Disk).InjectFaults(storage.FaultProfile{Seed: 1})
	fd.FailRead(2, storage.ErrLatentSector)

	buf := make([]byte, storage.BlockSize)
	if err := g.ReadBlock(ctx, 9, buf); err != nil {
		t.Fatalf("degraded ReadBlock: %v", err)
	}
	if !bytes.Equal(buf, img[9*storage.BlockSize:10*storage.BlockSize]) {
		t.Fatal("reconstructed block differs from written data")
	}
	if _, rec := g.RecoveryStats(); rec != 1 {
		t.Fatalf("reconstructs = %d, want 1", rec)
	}

	run := make([]byte, 32*storage.BlockSize)
	if err := storage.ReadRun(ctx, g, 0, 32, run); err != nil {
		t.Fatalf("degraded ReadRun: %v", err)
	}
	if !bytes.Equal(run, img[:32*storage.BlockSize]) {
		t.Fatal("degraded run read differs from written data")
	}
}

// TestTransientMemberFaultRetried checks that a healing fault is
// absorbed by retries without resorting to reconstruction.
func TestTransientMemberFaultRetried(t *testing.T) {
	g, img := buildFaultGroup(t, 64)
	ctx := context.Background()

	d := g.data[2].(*vdev.Disk)
	// Neutralize the drive's own retry so the group-level loop is the
	// one exercised.
	d.SetRetryPolicy(storage.RetryPolicy{MaxRetries: 0})
	d.InjectFaults(storage.FaultProfile{Seed: 4, ReadFault: 1, Transient: 1, HealAfter: 2, MaxFaults: 1})

	buf := make([]byte, storage.BlockSize)
	if err := g.ReadBlock(ctx, 2, buf); err != nil { // disk 2, dblock 0
		t.Fatalf("ReadBlock over transient fault: %v", err)
	}
	if !bytes.Equal(buf, img[2*storage.BlockSize:3*storage.BlockSize]) {
		t.Fatal("data corrupted by retry path")
	}
	retries, rec := g.RecoveryStats()
	if retries != 2 || rec != 0 {
		t.Fatalf("retries=%d reconstructs=%d, want 2 and 0", retries, rec)
	}
}

// TestDoubleFaultInStripeFails plants latent sector errors on the same
// stripe of two members: RAID-4 cannot recover that, and the error
// must say so rather than return bad data.
func TestDoubleFaultInStripeFails(t *testing.T) {
	g, _ := buildFaultGroup(t, 64)
	ctx := context.Background()

	g.data[0].(*vdev.Disk).InjectFaults(storage.FaultProfile{Seed: 1}).FailRead(3, storage.ErrLatentSector)
	g.data[1].(*vdev.Disk).InjectFaults(storage.FaultProfile{Seed: 2}).FailRead(3, storage.ErrLatentSector)

	buf := make([]byte, storage.BlockSize)
	err := g.ReadBlock(ctx, 12, buf) // disk 0, dblock 3
	if err == nil {
		t.Fatal("double fault in one stripe read succeeded")
	}
	if !errors.Is(err, storage.ErrLatentSector) {
		t.Fatalf("error lost its classification: %v", err)
	}
	// Other stripes are unaffected.
	if err := g.ReadBlock(ctx, 0, buf); err != nil {
		t.Fatalf("clean stripe: %v", err)
	}
}

// TestWholeDiskFailStillWorks guards the pre-existing FailDisk path
// against regressions from the block-level recovery machinery.
func TestWholeDiskFailStillWorks(t *testing.T) {
	g, img := buildFaultGroup(t, 64)
	ctx := context.Background()
	if err := g.FailDisk(3); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, g.NumBlocks()*storage.BlockSize)
	if err := storage.ReadRun(ctx, g, 0, g.NumBlocks(), got); err != nil {
		t.Fatalf("degraded full scan: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatal("degraded scan differs from written image")
	}
}
