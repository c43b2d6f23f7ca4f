package logical

import (
	"context"

	"repro/internal/sim"
	"repro/internal/wafl"
)

// readAhead is the dump's one Phase IV read-issue point. The dump
// engine runs its own read-ahead policy — what the paper says the
// in-kernel dump does (§3), and the reason it is not at the mercy of
// the filesystem's per-file policy — and it runs ONE for the whole
// dump: every shard's plan is known before the first byte moves, so
// instead of each stream walking its own files in front of its readers
// (which interleaves as many inode-ordered walks on the spindles as
// there are readers), the reader that finds its shard's read-ahead
// running low tops up every live shard in a single batch, sorted by
// physical block. Each disk then sees one ascending sweep per batch,
// and in steady state no reader waits on the device: chunks are staged
// out of the buffer cache.
//
// How far a shard has been issued is a POSITION in its plan — the
// number of file blocks in front of a chunk — not a count of blocks
// consumed, so readers staging chunks out of order cannot drag the
// cursor behind the furthest of them. The count of blocks staged is
// kept too, but only to bound what is in flight.
//
// On the simulator the readers are cooperative processes: the issuer
// sleeps only inside View.Prefetch (device queue depth), and a reader
// whose blocks are in the batch in flight parks on cond until the batch
// is out. Untimed, every use is under the dump's view lock, which the
// issuer holds for the whole batch, so busy is never seen set.
type readAhead struct {
	st     *dumpState
	shards []*shardCursor // by stream index; nil once the shard is done
	live   int
	busy   bool      // a reader is issuing a batch
	cond   *sim.Cond // batch done; nil untimed
	pbns   []wafl.BlockNo
}

// shardCursor is one shard's read-ahead state. Its fields only grow.
type shardCursor struct {
	plan   []fileJob
	front  int // furthest position a reader has asked for
	staged int // blocks of the chunks staged so far
	meta   int // plan[:meta] have had their metadata blocks issued
	data   int // plan[:data] have had their data blocks issued
	ready  int // every block in front of this position is in the cache
}

// pos is the plan position of chunk i, or of the plan's end.
func (c *shardCursor) pos(i int) int {
	if i < len(c.plan) {
		return c.plan[i].pos
	}
	if i == 0 {
		return 0
	}
	return c.plan[i-1].pos + c.plan[i-1].blocks()
}

// target is the position the shard is issued up to: a budget past what
// has been staged, and as far as its furthest reader whatever the
// budget.
func (c *shardCursor) target(budget int) int { return max(c.front, c.staged+budget) }

func newReadAhead(ctx context.Context, st *dumpState, plans [][]fileJob) *readAhead {
	ra := &readAhead{st: st, live: len(plans)}
	if p := sim.ProcFrom(ctx); p != nil {
		ra.cond = sim.NewCond(p.Env())
	}
	for _, plan := range plans {
		ra.shards = append(ra.shards, &shardCursor{plan: plan})
	}
	return ra
}

// budget is how many blocks each live shard may have in flight —
// issued and not yet staged: a quarter of the buffer cache shared
// between the streams. A block in flight has to outlive, in an LRU
// cache, both the blocks issued after it and the older ones staged
// (touched) before its turn, which is twice the total in flight; the
// other half is left to metadata and to slack between the streams.
func (ra *readAhead) budget() int {
	return max(ra.st.view.CacheBlocks()/(4*ra.live), runBlocks)
}

// done retires shard k: its read-ahead is no longer topped up.
func (ra *readAhead) done(k int) {
	ra.st.lockView()
	defer ra.st.unlockView()
	ra.shards[k] = nil
	ra.live--
}

// advance is called, with the view lock held, by a reader about to
// stage chunk seq of shard k. It returns once the chunk's blocks have
// been issued and their batch is out, topping up first when they have
// not been or when the shard's blocks in flight have fallen under half
// its budget.
func (ra *readAhead) advance(ctx context.Context, k, seq int) error {
	c := ra.shards[k]
	end := c.pos(seq + 1)
	c.front = max(c.front, end)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if end <= c.ready && (ra.busy || c.data == len(c.plan) || c.ready-c.staged > ra.budget()/2) {
			return nil
		}
		if ra.busy {
			ra.cond.Wait(sim.ProcFrom(ctx))
			continue
		}
		ra.topUp(ctx)
	}
}

// topUp fills every live shard's read-ahead to its target and issues
// what that adds as one sorted batch. Metadata (each file's inode-file block and
// pointer blocks) runs a budget further ahead, so that resolving a data
// block's address finds its pointer block cached; where it does not yet
// (the first batch of a dump), the metadata goes out as a batch of its
// own first. Only a double-indirect file's second-level pointer blocks
// are left to demand reads, one per 1 024 data blocks: they cannot be
// addressed until the first level has been read.
func (ra *readAhead) topUp(ctx context.Context) {
	st := ra.st
	ra.busy = true
	budget := ra.budget()
	pbns := ra.pbns[:0]
	metaFirst := false
	for _, c := range ra.shards {
		if c == nil {
			continue
		}
		target := c.target(budget)
		metaFirst = metaFirst || c.pos(c.meta) < min(target, c.pos(len(c.plan)))
		for ; c.meta < len(c.plan) && c.pos(c.meta) < target+budget; c.meta++ {
			j := c.plan[c.meta]
			if !j.first {
				continue
			}
			// An address that cannot be resolved here is resolved again,
			// and its error reported, by the read that needs it.
			if pbn, err := st.view.InodeBlock(ctx, j.ino); err == nil {
				pbns = append(pbns, pbn)
			}
			inode := st.inodes[j.ino]
			pbns = append(pbns, inode.Indirect, inode.DblInd)
		}
	}
	if metaFirst {
		st.view.Prefetch(ctx, pbns)
		pbns = pbns[:0]
	}
	for _, c := range ra.shards {
		if c == nil {
			continue
		}
		for target := c.target(budget); c.data < len(c.plan) && c.pos(c.data) < target; c.data++ {
			j := c.plan[c.data]
			pbns = st.appendBlocks(ctx, pbns, j.ino, uint32(j.seg/segsPerBlock), uint32(j.blocks()))
		}
	}
	st.view.Prefetch(ctx, pbns)
	ra.pbns = pbns
	for _, c := range ra.shards {
		if c != nil {
			c.ready = c.pos(c.data)
		}
	}
	ra.busy = false
	if ra.cond != nil {
		ra.cond.Broadcast()
	}
}
