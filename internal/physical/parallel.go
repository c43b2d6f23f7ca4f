package physical

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"time"

	"repro/internal/bufpool"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/stream"
)

// The shard data path of every image dump: a deterministic extent plan
// is computed up front, N readers pull extents off the plan through
// pipeline.Fanout, and the stream is written in plan order. Because the
// plan fixes every extent boundary and every checkpoint position before
// any I/O starts, the bytes on tape are identical for any reader count
// — parallelism changes only the clock.

// extent is one planned device visit: a run of consecutive blocks, cut
// at maxRun and at checkpoint boundaries.
type extent struct {
	bno       uint32
	count     int
	ckptAfter bool // a checkpoint sentinel follows this extent
	doneAfter int  // absolute blocks durable once this extent checkpoints
}

// planExtents coalesces the shard's block list into the extent plan.
// skipped is the resume offset (counted into doneAfter so checkpoints
// stay absolute); every is CheckpointEvery (0 disables).
func planExtents(blocks []uint32, skipped, every int) []extent {
	var plan []extent
	done := 0
	sinceCkpt := 0
	i := 0
	for i < len(blocks) {
		// A maximal run of consecutive blocks...
		j := i + 1
		for j < len(blocks) && blocks[j] == blocks[j-1]+1 {
			j++
		}
		// ...emitted as extents no larger than one device visit and no
		// larger than the remaining checkpoint budget, so markers land
		// between extents.
		for b := i; b < j; {
			c := j - b
			if c > maxRun {
				c = maxRun
			}
			if every > 0 && c > every-sinceCkpt {
				c = every - sinceCkpt
			}
			done += c
			sinceCkpt += c
			e := extent{bno: blocks[b], count: c, doneAfter: skipped + done}
			if every > 0 && sinceCkpt >= every {
				e.ckptAfter = true
				sinceCkpt = 0
			}
			plan = append(plan, e)
			b += c
		}
		i = j
	}
	return plan
}

// extentBuf is one extent's payload moving from a reader to the
// writer: the pooled buffer, filled on return from the asynchronous
// read, and the virtual time the device finishes delivering it.
type extentBuf struct {
	buf  *[]byte
	done sim.Time
}

// shardWriter writes one shard's stream on the process running the
// shard: header, then each extent as the fan-out delivers it in plan
// order with checkpoint sentinels at the planned positions, then the
// trailer. The payload checksum is computed here, in stream order.
type shardWriter struct {
	sink stream.Sink
	w    *streamWriter
	plan []extent
	crc  hash.Hash32
	// ckptDone is the absolute count of the shard's blocks durably on
	// media.
	ckptDone int
}

func (sw *shardWriter) emit(seq int, x extentBuf) error {
	e := sw.plan[seq]
	payload := (*x.buf)[:e.count*storage.BlockSize]
	var ext [8]byte
	binary.LittleEndian.PutUint32(ext[0:], e.bno)
	binary.LittleEndian.PutUint32(ext[4:], uint32(e.count))
	if err := sw.w.write(ext[:]); err != nil {
		return err
	}
	sw.crc.Write(payload)
	if err := sw.w.write(payload); err != nil {
		return err
	}
	if !e.ckptAfter {
		return nil
	}
	binary.LittleEndian.PutUint32(ext[0:], CkptSentinel)
	binary.LittleEndian.PutUint32(ext[4:], sw.crc.Sum32())
	if err := sw.w.write(ext[:]); err != nil {
		return err
	}
	if err := sw.w.flushPartial(); err != nil {
		return err
	}
	// A provisional-accept sink (network session) must drain before the
	// checkpoint may vouch for these blocks.
	if err := stream.Sync(sw.sink); err != nil {
		return err
	}
	sw.ckptDone = e.doneAfter
	return nil
}

// close writes the trailer: sentinel extent + checksum of all payload
// bytes.
func (sw *shardWriter) close() error {
	var ext [8]byte
	binary.LittleEndian.PutUint32(ext[0:], EndSentinel)
	binary.LittleEndian.PutUint32(ext[4:], sw.crc.Sum32())
	if err := sw.w.write(ext[:]); err != nil {
		return err
	}
	return sw.w.flushPartial()
}

// dumpShard runs one shard to completion on the calling process: plan,
// then readers pulling extents off the plan through pipeline.Fanout
// while this process writes the stream. Each reader keeps ReadAhead
// extent reads in flight on the volume's async bulk path, so the
// spindle queues stay full while the reader burns its per-block CPU
// charge. Extents are claimed one at a time: under the cooperative
// scheduler the shard's readers hand the scan position to each other at
// their wait points, so the union of their accesses stays one
// sequential stream per spindle (batched claims were measured worse —
// they split each shard into readers separate streams and thrash the
// drives' sequentiality tracking). The error stays in the ShardResult,
// always with the checkpoint to resume from (BlocksDone 0 when nothing
// is durable yet), so sibling shards are unaffected.
func dumpShard(ctx context.Context, opts *DumpOptions, s pipeline.Stream[Checkpoint], all []uint32, hdr streamHeader) ShardResult {
	res := ShardResult{Shard: s.Shard.K}
	lo, hi := s.Shard.Slice(len(all))
	blocks := all[lo:hi]
	if s.Resume != nil {
		res.BlocksSkipped = s.Resume.BlocksDone
		blocks = blocks[res.BlocksSkipped:]
	}
	hdr.blockCount = uint64(len(blocks))

	sw := &shardWriter{
		sink: s.Sink, w: newStreamWriter(s.Sink), crc: crc32.NewIEEE(),
		plan:     planExtents(blocks, res.BlocksSkipped, opts.CheckpointEvery),
		ckptDone: res.BlocksSkipped,
	}
	defer sw.w.release()

	// cpuDone[r] is when reader r's previous extent's dump CPU finishes.
	// Deferring that wait one extent overlaps checksum/copy work with
	// the spindles.
	cpuDone := make([]sim.Time, max(opts.Readers, 1))
	fan := pipeline.Fanout[extentBuf]{
		Name: fmt.Sprintf("physical.shard%d", s.Shard.K), N: len(sw.plan),
		Readers: opts.Readers, Depth: opts.ReadAhead,
		Stage: func(ctx context.Context, _, seq int) (extentBuf, error) {
			e := sw.plan[seq]
			bp := bufpool.Get(e.count * storage.BlockSize)
			done, err := opts.Vol.ReadRunAsync(ctx, int(e.bno), e.count, (*bp)[:e.count*storage.BlockSize])
			if err != nil {
				bufpool.Put(bp)
				return extentBuf{}, err
			}
			return extentBuf{buf: bp, done: done}, nil
		},
		// Wait out the read's device time and the previous extent's CPU
		// work, then reserve this extent's dump CPU.
		Settle: func(ctx context.Context, r, seq int, x extentBuf) {
			if p := sim.ProcFrom(ctx); p != nil {
				if wait := max(x.done, cpuDone[r]); wait > 0 {
					p.WaitUntil(wait)
				}
			}
			cpuDone[r] = opts.Costs.schedule(ctx, time.Duration(sw.plan[seq].count)*opts.Costs.DumpBlock)
		},
		Open:    func() error { return sw.w.write(hdr.marshal()) },
		Emit:    sw.emit,
		Release: func(x extentBuf) { bufpool.Put(x.buf) },
	}
	err := fan.Run(ctx)
	if err == nil {
		err = sw.close()
	}
	if err != nil {
		res.Err = err
		res.Checkpoint = &Checkpoint{
			Gen: hdr.gen, BaseGen: hdr.baseGen,
			BlocksDone: sw.ckptDone,
			Shard:      s.Shard.K, Shards: s.Shard.N,
		}
		return res
	}
	res.BlocksDumped = len(blocks)
	res.BytesWritten = sw.w.written
	return res
}
