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

// ReadRun is the synchronous run read: d's ReadRunAsync, then a wait
// on the process in ctx until the read completes. The benchmark
// module's device tap calls it.
func ReadRun(ctx context.Context, d Device, bno, n int, buf []byte) error {
	done, err := d.ReadRunAsync(ctx, bno, n, buf)
	if err != nil {
		return err
	}
	if p := sim.ProcFrom(ctx); done > 0 && p != nil {
		p.WaitUntil(done)
	}
	return nil
}

// ReadRunAsync is d.ReadRunAsync as a function; the benchmark module's
// device tap calls it.
func ReadRunAsync(ctx context.Context, d Device, bno, n int, buf []byte) (sim.Time, error) {
	return d.ReadRunAsync(ctx, bno, n, buf)
}

// WriteRun is d.WriteRun as a function; the benchmark module's device
// tap calls it.
func WriteRun(ctx context.Context, d Device, bno, n int, buf []byte) error {
	return d.WriteRun(ctx, bno, n, buf)
}
