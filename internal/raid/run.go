package raid

import (
	"context"

	"repro/internal/bufpool"
	"repro/internal/sim"
	"repro/internal/storage"
)

// readRunInto issues every member disk's sub-run for group data blocks
// [bno, bno+n) and de-stripes into buf, returning the latest member
// completion time without waiting for it. The data in buf is usable on
// return; the time is when it would be on a simulated clock. The
// caller decides whether to block (ReadRun) or pipeline (ReadRunAsync).
// A non-nil error means a member fault interrupted the fast path and
// the caller should recover through readRunDegraded.
func (g *Group) readRunInto(ctx context.Context, bno, n int, buf []byte) (sim.Time, error) {
	g.stripeReads.Add(1)
	nd := len(g.data)
	if nd == 1 {
		// Single data disk: the group run is the disk run; read
		// straight into the caller's buffer, no de-striping copy.
		return g.data[0].ReadRunAsync(ctx, bno, n, buf)
	}
	// Issue every member disk's sub-run concurrently: a striped read
	// costs max over disks, not sum.
	var latest sim.Time
	pooled := bufpool.Get((n/nd + 1) * storage.BlockSize)
	defer bufpool.Put(pooled)
	scratch := *pooled
	for k := 0; k < nd; k++ {
		// Blocks b in [bno, bno+n) with b % nd == k.
		first := bno + ((k-bno%nd)+nd)%nd
		if first >= bno+n {
			continue
		}
		count := (bno + n - first + nd - 1) / nd
		tmp := scratch[:count*storage.BlockSize]
		done, err := g.data[k].ReadRunAsync(ctx, first/nd, count, tmp)
		if err != nil {
			// A fault inside a member's sub-run: abandon the fast
			// path so the caller can recover block by block.
			return 0, err
		}
		if done > latest {
			latest = done
		}
		for i := 0; i < count; i++ {
			vb := first + i*nd
			copy(buf[(vb-bno)*storage.BlockSize:(vb-bno+1)*storage.BlockSize],
				tmp[i*storage.BlockSize:(i+1)*storage.BlockSize])
		}
	}
	return latest, nil
}

// Bulk-run I/O. A contiguous run of group data blocks maps to one
// contiguous sub-run per member disk, so a large run costs each disk
// at most one seek — which is how a streaming image dump keeps every
// spindle sequential even with several concurrent streams sharing the
// volume (paper §5.3: "physical dump/restore allows the disks to
// achieve their optimal throughput").
//
// De-striping scratch recycles through bufpool, so steady-state run
// traffic allocates nothing.

// ReadRun reads n consecutive group data blocks starting at bno into
// buf (n*BlockSize long). Degraded groups fall back to per-block
// reconstruction.
func (g *Group) ReadRun(ctx context.Context, bno, n int, buf []byte) error {
	if g.failed >= 0 {
		return g.readRunDegraded(ctx, bno, n, buf)
	}
	latest, err := g.readRunInto(ctx, bno, n, buf)
	if err != nil {
		// Recover block by block, so a single latent sector costs one
		// reconstruction, not the whole dump.
		return g.readRunDegraded(ctx, bno, n, buf)
	}
	if p := sim.ProcFrom(ctx); p != nil && latest > 0 {
		p.WaitUntil(latest)
	}
	return nil
}

// ReadRunAsync reads n consecutive group data blocks at bno into buf,
// returning the virtual completion time instead of waiting for it
// (storage.AsyncRunDevice semantics: data ready now, time charged
// later). Faults fall back to the synchronous degraded path, which
// completes before returning (time 0).
func (g *Group) ReadRunAsync(ctx context.Context, bno, n int, buf []byte) (sim.Time, error) {
	if g.failed >= 0 {
		return 0, g.readRunDegraded(ctx, bno, n, buf)
	}
	latest, err := g.readRunInto(ctx, bno, n, buf)
	if err != nil {
		return 0, g.readRunDegraded(ctx, bno, n, buf)
	}
	return latest, nil
}

// readRunDegraded is the per-block slow path behind ReadRun: each
// block goes through ReadBlock, which retries transient faults and
// reconstructs persistently unreadable blocks from parity.
func (g *Group) readRunDegraded(ctx context.Context, bno, n int, buf []byte) error {
	g.degradedRuns.Add(1)
	for i := 0; i < n; i++ {
		if err := g.ReadBlock(ctx, bno+i, buf[i*storage.BlockSize:(i+1)*storage.BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// WriteRun writes n consecutive group data blocks starting at bno from
// buf. Full stripes compute parity from the new data alone (no
// read-modify-write); partial head/tail stripes fall back to
// WriteBlock.
func (g *Group) WriteRun(ctx context.Context, bno, n int, buf []byte) error {
	nd := len(g.data)
	if g.failed >= 0 || n < 2*nd {
		for i := 0; i < n; i++ {
			if err := g.WriteBlock(ctx, bno+i, buf[i*storage.BlockSize:(i+1)*storage.BlockSize]); err != nil {
				return err
			}
		}
		return nil
	}
	// Head: up to the first stripe boundary.
	head := 0
	if bno%nd != 0 {
		head = nd - bno%nd
	}
	fullStripes := (n - head) / nd
	tail := n - head - fullStripes*nd
	for i := 0; i < head; i++ {
		if err := g.WriteBlock(ctx, bno+i, buf[i*storage.BlockSize:(i+1)*storage.BlockSize]); err != nil {
			return err
		}
	}
	if fullStripes > 0 {
		base := bno + head // stripe-aligned
		stripe0 := base / nd
		if nd == 1 {
			// One data disk: parity mirrors the data, no gather needed.
			data := buf[head*storage.BlockSize : (head+fullStripes)*storage.BlockSize]
			if err := g.data[0].WriteRun(ctx, stripe0, fullStripes, data); err != nil {
				return err
			}
			if err := g.parity.WriteRun(ctx, stripe0, fullStripes, data); err != nil {
				return err
			}
			g.chargeParity(stripe0 + fullStripes - 1)
		} else {
			// Per-disk contiguous writes plus a parity run.
			pbuf := bufpool.Get(fullStripes * storage.BlockSize)
			tbuf := bufpool.Get(fullStripes * storage.BlockSize)
			parity := *pbuf
			clear(parity)
			tmp := *tbuf
			for k := 0; k < nd; k++ {
				for s := 0; s < fullStripes; s++ {
					vb := base + s*nd + k
					blk := buf[(vb-bno)*storage.BlockSize : (vb-bno+1)*storage.BlockSize]
					copy(tmp[s*storage.BlockSize:], blk)
					xorInto(parity[s*storage.BlockSize:(s+1)*storage.BlockSize], blk)
				}
				if err := g.data[k].WriteRun(ctx, stripe0, fullStripes, tmp); err != nil {
					bufpool.Put(pbuf)
					bufpool.Put(tbuf)
					return err
				}
			}
			err := g.parity.WriteRun(ctx, stripe0, fullStripes, parity)
			bufpool.Put(pbuf)
			bufpool.Put(tbuf)
			if err != nil {
				return err
			}
			g.chargeParity(stripe0 + fullStripes - 1)
		}
	}
	for i := n - tail; i < n; i++ {
		if err := g.WriteBlock(ctx, bno+i, buf[i*storage.BlockSize:(i+1)*storage.BlockSize]); err != nil {
			return err
		}
	}
	return nil
}

// ReadRun reads n consecutive volume blocks starting at bno into buf,
// splitting at group boundaries.
func (v *Volume) ReadRun(ctx context.Context, bno, n int, buf []byte) error {
	for n > 0 {
		g, gb, err := v.locate(bno)
		if err != nil {
			return err
		}
		c := n
		if gb+c > g.NumBlocks() {
			c = g.NumBlocks() - gb
		}
		if err := g.ReadRun(ctx, gb, c, buf[:c*storage.BlockSize]); err != nil {
			return err
		}
		v.bytesRead.Add(int64(c) * storage.BlockSize)
		bno += c
		n -= c
		buf = buf[c*storage.BlockSize:]
	}
	return nil
}

// ReadRunAsync reads n consecutive volume blocks at bno into buf with
// storage.AsyncRunDevice semantics: buf is filled on return, and the
// returned time is when the last member disk's transfer completes on
// the virtual clock. Runs spanning group boundaries return the latest
// completion across groups.
func (v *Volume) ReadRunAsync(ctx context.Context, bno, n int, buf []byte) (sim.Time, error) {
	var latest sim.Time
	for n > 0 {
		g, gb, err := v.locate(bno)
		if err != nil {
			return 0, err
		}
		c := n
		if gb+c > g.NumBlocks() {
			c = g.NumBlocks() - gb
		}
		done, err := g.ReadRunAsync(ctx, gb, c, buf[:c*storage.BlockSize])
		if err != nil {
			return 0, err
		}
		if done > latest {
			latest = done
		}
		v.bytesRead.Add(int64(c) * storage.BlockSize)
		bno += c
		n -= c
		buf = buf[c*storage.BlockSize:]
	}
	return latest, nil
}

// WriteRun writes n consecutive volume blocks starting at bno from
// buf, splitting at group boundaries.
func (v *Volume) WriteRun(ctx context.Context, bno, n int, buf []byte) error {
	for n > 0 {
		g, gb, err := v.locate(bno)
		if err != nil {
			return err
		}
		c := n
		if gb+c > g.NumBlocks() {
			c = g.NumBlocks() - gb
		}
		if err := g.WriteRun(ctx, gb, c, buf[:c*storage.BlockSize]); err != nil {
			return err
		}
		v.bytesWritten.Add(int64(c) * storage.BlockSize)
		bno += c
		n -= c
		buf = buf[c*storage.BlockSize:]
	}
	return nil
}
