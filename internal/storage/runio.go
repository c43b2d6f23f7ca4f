package storage

import (
	"context"
	"fmt"

	"repro/internal/sim"
)

// checkRun validates a run request against a device of total blocks.
func checkRun(bno, n, total int, buf []byte) error {
	if n < 0 || bno < 0 || bno+n > total {
		return fmt.Errorf("%w: run %d+%d of %d", ErrOutOfRange, bno, n, total)
	}
	if len(buf) != n*BlockSize {
		return fmt.Errorf("%w: %d for %d blocks", ErrBadLength, len(buf), n)
	}
	return nil
}

// ReadRun is d.ReadRun as a function; the benchmark module's device
// tap calls it.
func ReadRun(ctx context.Context, d Device, bno, n int, buf []byte) error {
	return d.ReadRun(ctx, bno, n, buf)
}

// WriteRun is d.WriteRun as a function; the benchmark module's device
// tap calls it.
func WriteRun(ctx context.Context, d Device, bno, n int, buf []byte) error {
	return d.WriteRun(ctx, bno, n, buf)
}

// AsyncRunDevice is implemented by devices whose bulk read path can
// decouple data delivery from timing: ReadRunAsync fills buf before
// returning (the bytes are immediately usable) but only *reserves*
// the device service time, handing back the virtual completion time
// instead of blocking until it. A pipelined reader issues several
// runs back to back and waits on each completion as it needs the
// data, which keeps the spindle queue full across the reader's own
// think time — the read-ahead batching the parallel dump pipeline
// is built on. Untimed contexts return 0 (already complete).
type AsyncRunDevice interface {
	Device
	ReadRunAsync(ctx context.Context, bno, n int, buf []byte) (sim.Time, error)
}

// ReadRunAsync issues a read of n blocks at bno on d's asynchronous
// bulk path when it has one, falling back to a synchronous ReadRun
// (returning 0: data ready, time fully charged) otherwise.
func ReadRunAsync(ctx context.Context, d Device, bno, n int, buf []byte) (sim.Time, error) {
	if ad, ok := d.(AsyncRunDevice); ok {
		return ad.ReadRunAsync(ctx, bno, n, buf)
	}
	return 0, d.ReadRun(ctx, bno, n, buf)
}
