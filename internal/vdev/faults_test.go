package vdev

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
)

// TestTransientRetryRecovers checks that a transient fault is absorbed
// by the drive's retry loop and its backoff lands on the simulated
// clock, while a latent sector error still surfaces.
func TestTransientRetryRecovers(t *testing.T) {
	env := sim.NewEnv()
	d := New(env, "d0", 128, DefaultParams())
	fd := d.InjectFaults(storage.FaultProfile{
		Seed: 9, ReadFault: 1, Transient: 1, HealAfter: 2, MaxFaults: 1,
	})

	buf := make([]byte, storage.BlockSize)
	var clean, faulted time.Duration
	var err error
	env.Spawn("reader", func(p *sim.Proc) {
		ctx := sim.WithProc(context.Background(), p)
		// First read trips the single transient fault (2 failed
		// attempts) and must recover via retries.
		start := p.Now()
		err = d.ReadBlock(ctx, 0, buf)
		faulted = p.Now() - start
		start = p.Now()
		if e := d.ReadBlock(ctx, 1, buf); e != nil {
			t.Errorf("clean read: %v", e)
		}
		clean = p.Now() - start
	})
	env.Run()

	if err != nil {
		t.Fatalf("transient fault not recovered: %v", err)
	}
	if d.Retries() != 2 {
		t.Fatalf("retries = %d, want 2", d.Retries())
	}
	// Two backoffs (2ms + 4ms) must have been charged to virtual time.
	if faulted < clean+6*time.Millisecond {
		t.Fatalf("faulted read took %v, clean %v: backoff not charged", faulted, clean)
	}
	if st := fd.FaultStats(); st.Transient != 1 {
		t.Fatalf("stats = %+v, want 1 transient", st)
	}
}

func TestPersistentFaultSurfaces(t *testing.T) {
	d := New(nil, "d0", 128, DefaultParams())
	fd := d.InjectFaults(storage.FaultProfile{Seed: 1})
	fd.FailRead(5, storage.ErrLatentSector)

	buf := make([]byte, 8*storage.BlockSize)
	err := storage.ReadRun(context.Background(), d, 0, 8, buf)
	if !errors.Is(err, storage.ErrLatentSector) {
		t.Fatalf("want latent sector error, got %v", err)
	}
	if _, err := d.ReadRunAsync(context.Background(), 4, 4, buf[:4*storage.BlockSize]); !errors.Is(err, storage.ErrLatentSector) {
		t.Fatalf("async: want latent sector error, got %v", err)
	}
	// Untouched blocks still read, and data written before injection
	// survives the interposition.
	if err := d.ReadBlock(context.Background(), 0, buf[:storage.BlockSize]); err != nil {
		t.Fatalf("clean block: %v", err)
	}
}

// TestInjectFaultsPreservesData arms faults on a disk that already has
// data and checks reads still return it once faults are cleared.
func TestInjectFaultsPreservesData(t *testing.T) {
	d := New(nil, "d0", 16, DefaultParams())
	want := make([]byte, storage.BlockSize)
	for i := range want {
		want[i] = byte(i)
	}
	if err := d.WriteBlock(context.Background(), 3, want); err != nil {
		t.Fatal(err)
	}
	fd := d.InjectFaults(storage.FaultProfile{Seed: 2, ReadFault: 1, Transient: 0})
	buf := make([]byte, storage.BlockSize)
	if err := d.ReadBlock(context.Background(), 3, buf); err == nil {
		t.Fatal("armed device did not fault")
	}
	fd.Disarm()
	fd.ClearFaults()
	if err := d.ReadBlock(context.Background(), 3, buf); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("byte %d = %d, want %d", i, buf[i], want[i])
		}
	}
}

// TestRetryLoopHonorsCancel: a canceled context interrupts the retry
// backoff loop instead of sleeping out the remaining budget.
func TestRetryLoopHonorsCancel(t *testing.T) {
	d := New(nil, "d0", 128, DefaultParams())
	// A transient fault that never heals within the retry budget, so
	// without the cancellation check the loop would run all attempts.
	d.InjectFaults(storage.FaultProfile{
		Seed: 3, ReadFault: 1, Transient: 1, HealAfter: 100, MaxFaults: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	buf := make([]byte, storage.BlockSize)
	if err := d.ReadBlock(ctx, 0, buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("read returned %v, want context.Canceled", err)
	}
	if d.Retries() != 0 {
		t.Fatalf("retries = %d, want 0: canceled before first backoff", d.Retries())
	}
}
