package wafl

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codec"
	"repro/internal/nvram"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Prefetcher is implemented by devices that support asynchronous
// read-ahead (the RAID volume and the simulated disks).
type Prefetcher interface {
	Prefetch(ctx context.Context, bno int)
}

// prefetchDecliner is implemented by a Prefetcher that declines some
// requests without charging them (a degraded RAID group reconstructs
// on demand instead of streaming). The filesystem asks first and warms
// its cache only with blocks whose device time the prefetch pays for.
type prefetchDecliner interface {
	CanPrefetch(bno int) bool
}

// groupedDevice is implemented by a device whose address space is
// several independent sets of spindles laid end to end (the RAID
// volume's groups). The block allocator keeps a cursor in each and the
// consistency point rotates its writes across them; a device without
// it is one group.
type groupedDevice interface {
	// GroupStarts returns the first block of each group, ascending
	// from 0.
	GroupStarts() []int
}

// groupStarts returns the allocation geometry of dev.
func groupStarts(dev storage.Device) []int {
	if g, ok := dev.(groupedDevice); ok {
		return g.GroupStarts()
	}
	return []int{0}
}

// Options configures a filesystem instance. The zero value gets
// sensible defaults from applyDefaults.
type Options struct {
	// CacheBlocks is the buffer-cache size in blocks.
	CacheBlocks int
	// Costs is the CPU cost model.
	Costs Costs
	// Env is the simulation environment, used only as the filesystem's
	// time source; nil falls back to a deterministic logical clock.
	Env *sim.Env
}

func (o Options) applyDefaults() Options {
	if o.CacheBlocks == 0 {
		o.CacheBlocks = 2048
	}
	return o
}

const (
	// readAheadBlocks is how many blocks ahead the filesystem
	// prefetches on sequential file reads.
	readAheadBlocks = 8
	// cpInterval is the consistency-point cadence on the virtual clock
	// (paper §2.2: "at least once every 10 seconds").
	cpInterval = 10 * time.Second
)

// istate is the staged (since the last consistency point) state of one
// inode: its current metadata, how many dirty data blocks it has in
// FS.staged, and — once the file has been modified — the complete
// fbn→pbn mapping of its block tree.
//
// Nothing of it is allocated per file once a filesystem has warmed up:
// istates come from a slab (newState), the dirty blocks of every file
// share one map that consistency points empty and writes refill, and
// the block map is one dense slice, grown at most once per write, that
// starts out in the istate itself.
type istate struct {
	ino        Inode
	inodeDirty bool
	treeDirty  bool      // mapping changed (truncate) even with no dirty data
	ndirty     int       // this inode's blocks in FS.staged
	fmap       []BlockNo // fbn → pbn; covers every staged fbn, and fbns past it are holes
	fmapValid  bool
	ptrBlocks  []BlockNo // pointer blocks of the current on-disk tree
	// fmap's room until the file outgrows it: a 64 KiB file's whole map.
	small [16]BlockNo
}

// blockKey names one block of one file.
type blockKey struct {
	ino Inum
	fbn uint32
}

// inofIno stands for the inode file in a blockKey: no file is inode 0.
const inofIno Inum = 0

// pbn returns what fbn maps to in st's staged block map, 0 for a hole.
func (st *istate) pbn(fbn uint32) BlockNo {
	if uint64(fbn) < uint64(len(st.fmap)) {
		return st.fmap[fbn]
	}
	return 0
}

// cover grows st's block map to span fbns [0, n), the new ones holes.
func (st *istate) cover(n uint32) {
	if have := len(st.fmap); uint64(n) > uint64(have) {
		st.fmap = append(st.fmap, make([]BlockNo, int(n)-have)...)
	}
}

// FS is a mounted filesystem.
type FS struct {
	dev   storage.Device
	pref  Prefetcher // dev, if it supports prefetch
	log   *nvram.Log // may be nil (no operation logging)
	enc   codec.Enc  // the log entry being built, see logEntry
	opts  Options
	costs Costs
	cache *blockCache
	bufs  [][]byte // spare block buffers, see takeBuf
	fresh []byte   // room for block buffers not yet taken, see takeBuf
	// poison makes giveBuf scribble over every buffer it is handed, so
	// that a slice of the cache read after its time reads garbage. Set
	// only by tests (TestTinyPoisonedCache).
	poison bool

	info fsinfo
	bmap *blkmap

	states   map[Inum]*istate
	inofSt   *istate // the inode file (rooted in fsinfo)
	freeInos []Inum
	nextIno  Inum

	// staged holds every data block written since the last consistency
	// point. The CP writes them out in inode order, then fbn order, and
	// leaves the map empty with its room kept for the next ones.
	staged map[blockKey][]byte
	// Recycled staged state (see istate): the rest of the current slab,
	// and a CP's scratch, its sorted inodes and sorted staged blocks.
	slab   []istate
	cpInos []Inum
	cpKeys []blockKey

	stagedBlocks int           // staged-but-unallocated dirty blocks, for ENOSPC
	owner        *sim.Proc     // simulated process holding the FS lock
	owedCPU      time.Duration // CPU the owner has burned under the lock, billed at unlock
	owedCommit   time.Duration // NVRAM commit time of the entries it recorded, likewise
	replaying    bool          // true while replaying the NVRAM log
	noLog        bool          // NVRAM logging disabled (see SetNVRAMLogging)
	lastCPAt     sim.Time
	logical      int64 // fallback logical clock
	lastRead     map[Inum]uint32

	cpCount int64
}

// lock serializes compound mutations against each other and against
// consistency points when several simulated processes share the
// filesystem (parallel restores, concurrent dumps with auto-CP). The
// discrete-event scheduler interleaves processes at every device wait,
// so without this a consistency point could observe another
// operation's half-staged state — real WAFL serializes operations
// against the CP the same way. The lock is recursive per process
// (maybeCP runs under its caller's lock) and free for untimed callers,
// which are single-threaded by construction.
//
// What the lock covers is the staging of a mutation in memory, which
// takes no modelled time. The CPU an operation burns and the NVRAM
// commit of the entry it records are not staging: while the lock is
// held they are only noted (charge, logAppend), and the outermost
// unlock pays them on the shared stations after letting the next
// operation in — still before the operation returns, so nothing is
// acknowledged ahead of its log entry. A consistency point is the
// exception: it writes the staged state out under the lock, device
// time and its own CPU included, because a sibling staging into state
// the CP is half-way through flushing is exactly what the lock is for.
func (fs *FS) lock(ctx context.Context) func() {
	p := sim.ProcFrom(ctx)
	if p == nil || fs.owner == p {
		return func() {}
	}
	for fs.owner != nil {
		p.Sleep(50 * time.Microsecond)
	}
	fs.owner = p
	return func() {
		cpu, commit := fs.owedCPU, fs.owedCommit
		fs.owedCPU, fs.owedCommit = 0, 0
		fs.owner = nil
		fs.costs.charge(ctx, cpu)
		if commit > 0 {
			fs.log.Commit(ctx, commit)
		}
	}
}

// holds reports whether the process in ctx is the one holding the lock.
func (fs *FS) holds(ctx context.Context) bool {
	return fs.owner != nil && fs.owner == sim.ProcFrom(ctx)
}

// charge bills d of CPU time to the process in ctx: at once, or when
// that process releases the filesystem lock if it is holding it.
func (fs *FS) charge(ctx context.Context, d time.Duration) {
	if fs.holds(ctx) {
		fs.owedCPU += d
		return
	}
	fs.costs.charge(ctx, d)
}

// now returns the filesystem's notion of the current time in unix
// nanoseconds: the virtual clock when simulated, otherwise a strictly
// monotonic logical counter (deterministic for tests).
func (fs *FS) now() int64 {
	if fs.opts.Env != nil {
		if t := int64(fs.opts.Env.Now()); t > fs.logical {
			fs.logical = t
		}
	}
	fs.logical++
	return fs.logical
}

// SetNVRAMLogging turns operation logging on or off — the knob behind
// the paper's footnote 2: logical restore "goes through ... NVRAM",
// though "there is no inherent need" since an interrupted restore can
// simply be restarted from tape. With logging off, a crash loses
// everything since the last consistency point.
func (fs *FS) SetNVRAMLogging(on bool) { fs.noLog = !on }

// Clock returns the current filesystem time; dump uses it to stamp
// dump dates consistently with file mtimes.
func (fs *FS) Clock() int64 {
	if fs.opts.Env != nil && int64(fs.opts.Env.Now()) > fs.logical {
		return int64(fs.opts.Env.Now())
	}
	return fs.logical
}

// Device returns the underlying volume. Image dump reads through this,
// bypassing the filesystem (paper §4.1).
func (fs *FS) Device() storage.Device { return fs.dev }

// Generation returns the consistency-point generation number.
func (fs *FS) Generation() uint64 { return fs.info.Gen }

// NumBlocks returns the volume size in blocks.
func (fs *FS) NumBlocks() int { return int(fs.info.NBlocks) }

// NumInodes returns the inode-file capacity in inodes.
func (fs *FS) NumInodes() uint64 { return uint64(fs.nextIno) }

// FreeBlocks returns the number of currently allocatable blocks.
func (fs *FS) FreeBlocks() int { return fs.bmap.freeBlocks() - fs.stagedBlocks }

// UsedBlocks returns the number of blocks in the active filesystem.
func (fs *FS) UsedBlocks() int { return fs.bmap.countPlane(ActiveBit) }

// CPCount returns how many consistency points have committed since
// mount, for tests and statistics.
func (fs *FS) CPCount() int64 { return fs.cpCount }

// CacheStats returns buffer-cache hits and misses.
func (fs *FS) CacheStats() (hits, misses int64) { return fs.cache.stats() }

// BlockMapWord returns the 32-bit block-map word for block b: bit 0 is
// the active filesystem, bit s the snapshot with id s. Image dump reads
// the map through this accessor and nothing else of the filesystem.
func (fs *FS) BlockMapWord(b BlockNo) uint32 {
	if int(b) >= len(fs.bmap.words) {
		return 0
	}
	return fs.bmap.words[b]
}

// Mkfs formats dev and returns a mounted, empty filesystem with a root
// directory, committing an initial consistency point.
func Mkfs(ctx context.Context, dev storage.Device, log *nvram.Log, opts Options) (*FS, error) {
	opts = opts.applyDefaults()
	if dev.NumBlocks() < 16 {
		return nil, fmt.Errorf("wafl: volume too small (%d blocks)", dev.NumBlocks())
	}
	fs := &FS{
		dev:      dev,
		log:      log,
		opts:     opts,
		costs:    opts.Costs,
		cache:    newBlockCache(opts.CacheBlocks),
		bmap:     newBlkmap(dev.NumBlocks(), groupStarts(dev)),
		states:   make(map[Inum]*istate),
		staged:   make(map[blockKey][]byte),
		nextIno:  RootIno + 1,
		lastRead: make(map[Inum]uint32),
	}
	if p, ok := dev.(Prefetcher); ok {
		fs.pref = p
	}
	fs.info.NBlocks = uint64(dev.NumBlocks())
	for b := BlockNo(0); b < fsinfoReserved; b++ {
		fs.bmap.setActive(b)
	}
	fs.inofSt = &istate{fmapValid: true}
	fs.inofSt.ino.Mode = ModeReg

	// Root directory with "." and "..".
	now := fs.now()
	root := &istate{
		ino: Inode{
			Mode: ModeDir | 0755, Nlink: 2, Size: BlockSize,
			Atime: now, Mtime: now, Ctime: now, Gen: 1,
		},
		inodeDirty: true,
		fmapValid:  true,
	}
	blk := make([]byte, BlockSize)
	initDirBlock(blk)
	if err := dirInsertInBlock(blk, ".", RootIno, ModeDir); err != nil {
		return nil, err
	}
	if err := dirInsertInBlock(blk, "..", RootIno, ModeDir); err != nil {
		return nil, err
	}
	fs.stage(RootIno, root, 0, blk)
	fs.states[RootIno] = root
	fs.stagedBlocks = 1

	if err := fs.CP(ctx); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount reads the root structure from dev and returns a mounted
// filesystem. If the NVRAM log contains uncommitted operations (a
// crash happened), they are replayed, exactly as the paper's filer
// does at boot (§2.2).
func Mount(ctx context.Context, dev storage.Device, log *nvram.Log, opts Options) (*FS, error) {
	opts = opts.applyDefaults()
	fs := &FS{
		dev:      dev,
		log:      log,
		opts:     opts,
		costs:    opts.Costs,
		cache:    newBlockCache(opts.CacheBlocks),
		states:   make(map[Inum]*istate),
		staged:   make(map[blockKey][]byte),
		lastRead: make(map[Inum]uint32),
	}
	if p, ok := dev.(Prefetcher); ok {
		fs.pref = p
	}
	info, err := fs.readFsinfo(ctx)
	if err != nil {
		return nil, err
	}
	fs.info = *info
	if fs.info.NBlocks != uint64(dev.NumBlocks()) {
		return nil, fmt.Errorf("%w: fsinfo says %d blocks, device has %d",
			ErrCorrupt, fs.info.NBlocks, dev.NumBlocks())
	}
	fs.nextIno = Inum(fs.info.NInodes)
	if fs.nextIno < RootIno+1 {
		fs.nextIno = RootIno + 1
	}
	// Resume the logical clock from the last consistency point so
	// timestamps — and the incremental-dump mtime comparisons that
	// depend on them — stay monotonic across mounts.
	fs.logical = fs.info.CPTime

	// Load the block map by walking the block-map file.
	fs.bmap = newBlkmap(int(fs.info.NBlocks), groupStarts(dev))
	nWords := int(fs.info.NBlocks)
	nBlks := (nWords + PtrsPerBlock - 1) / PtrsPerBlock
	for fbn := 0; fbn < nBlks; fbn++ {
		pbn, err := fs.walkTree(ctx, &fs.info.BlkmapFile, uint32(fbn))
		if err != nil {
			return nil, err
		}
		if pbn == 0 {
			return nil, fmt.Errorf("%w: hole in block-map file at fbn %d", ErrCorrupt, fbn)
		}
		data, err := fs.readBlock(ctx, pbn)
		if err != nil {
			return nil, err
		}
		for i := 0; i < PtrsPerBlock && fbn*PtrsPerBlock+i < nWords; i++ {
			fs.bmap.words[fbn*PtrsPerBlock+i] = leU32(data[4*i:])
		}
	}
	fs.bmap.refreeze()

	fs.inofSt = &istate{ino: fs.info.InodeFile}

	// Scan the inode file for free slots.
	for i := RootIno + 1; i < fs.nextIno; i++ {
		ino, err := fs.readInodeRaw(ctx, i)
		if err != nil {
			return nil, err
		}
		if !ino.Allocated() {
			fs.freeInos = append(fs.freeInos, i)
		}
	}

	// Replay any uncommitted operations from NVRAM.
	if log != nil {
		entries := log.Entries()
		if len(entries) > 0 {
			fs.replaying = true
			err := fs.replay(ctx, entries)
			fs.replaying = false
			if err != nil {
				return nil, err
			}
		}
	}
	return fs, nil
}

// readFsinfo reads and validates the root structure, preferring copy A
// and falling back to copy B, as the redundant fixed-location root of
// the paper requires.
func (fs *FS) readFsinfo(ctx context.Context) (*fsinfo, error) {
	read := func(start int) (*fsinfo, error) {
		buf := make([]byte, fsinfoSpan*BlockSize)
		for i := 0; i < fsinfoSpan; i++ {
			if err := fs.dev.ReadBlock(ctx, start+i, buf[i*BlockSize:(i+1)*BlockSize]); err != nil {
				return nil, err
			}
		}
		return unmarshalFsinfo(buf)
	}
	if info, err := read(fsinfoBlockA); err == nil {
		return info, nil
	}
	return read(fsinfoBlockB)
}

// takeBuf returns a block-sized buffer for a block on its way into the
// cache — one read from the device, staged by a write, or built by a
// consistency point — drawing on the buffers the cache has traded back
// (cacheInsert) and those a consistency point wrote file data from
// (writeBlock) before cutting a new one. A recycled buffer holds
// whatever block it held last: a caller that does not overwrite all of
// it must clear it first. The spares never outnumber the blocks that
// were staged or cached at once, and like the cache they are touched
// only by the filesystem's one running operation.
//
// A new buffer is the next 4 KiB of a slab of bufSlabBlocks, so that a
// fresh filesystem, which stages every block of its first consistency
// point before it has any to trade back, allocates once per slab rather
// than once per block. Each is cut with its capacity capped, so it
// cannot grow into its neighbour. Nothing hands these buffers back: the
// FS keeps every one, cached, staged or spare, for its lifetime.
func (fs *FS) takeBuf() []byte {
	if n := len(fs.bufs); n > 0 {
		buf := fs.bufs[n-1]
		fs.bufs = fs.bufs[:n-1]
		return buf
	}
	if len(fs.fresh) == 0 {
		fs.fresh = make([]byte, bufSlabBlocks*BlockSize)
	}
	buf := fs.fresh[:BlockSize:BlockSize]
	fs.fresh = fs.fresh[BlockSize:]
	return buf
}

// bufSlabBlocks is how many new block buffers takeBuf cuts from one
// allocation, as many as a storage.MemDevice backs from one.
const bufSlabBlocks = 64

// giveBuf keeps a buffer nothing references any more for takeBuf.
func (fs *FS) giveBuf(buf []byte) {
	if buf == nil {
		return
	}
	if fs.poison {
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	fs.bufs = append(fs.bufs, buf)
}

// cacheInsert hands data to the cache as the contents of pbn and keeps
// the buffer the cache gives back in exchange.
func (fs *FS) cacheInsert(pbn BlockNo, data []byte) {
	fs.giveBuf(fs.cache.insert(pbn, data))
}

// readBlock reads a physical block through the buffer cache. The
// returned slice is cache-owned: callers must not modify it, and it is
// valid only until their next call that can insert into the cache (any
// read, prefetch or consistency point), after which the buffer may be
// holding another block. Copy or parse it first.
func (fs *FS) readBlock(ctx context.Context, pbn BlockNo) ([]byte, error) {
	if data := fs.cache.get(pbn); data != nil {
		return data, nil
	}
	buf := fs.takeBuf()
	if err := fs.dev.ReadBlock(ctx, int(pbn), buf); err != nil {
		fs.giveBuf(buf)
		return nil, err
	}
	fs.cacheInsert(pbn, buf)
	return buf, nil
}

// writeBlock writes a physical block for a consistency point's flush,
// which drops its buffer once it is written. With keep set the cache
// keeps the buffer instead of a copy. Without it the buffer goes back
// to the spare stack, and any frame the cache still holds for pbn is
// dropped: a block DeleteSnapshot freed can still be cached with a
// snapshot's contents, and no read may return those once pbn is reused.
func (fs *FS) writeBlock(ctx context.Context, pbn BlockNo, data []byte, keep bool) error {
	if err := fs.dev.WriteBlock(ctx, int(pbn), data); err != nil {
		return err
	}
	if keep {
		fs.cacheInsert(pbn, data)
	} else {
		fs.cache.drop(pbn)
		fs.giveBuf(data)
	}
	return nil
}

// walkTree resolves file block fbn of ino through the direct, single-
// and double-indirect pointers, returning 0 for holes.
func (fs *FS) walkTree(ctx context.Context, ino *Inode, fbn uint32) (BlockNo, error) {
	if fbn < NDirect {
		return ino.Direct[fbn], nil
	}
	fbn -= NDirect
	if fbn < PtrsPerBlock {
		if ino.Indirect == 0 {
			return 0, nil
		}
		blk, err := fs.readBlock(ctx, ino.Indirect)
		if err != nil {
			return 0, err
		}
		return BlockNo(leU32(blk[4*fbn:])), nil
	}
	fbn -= PtrsPerBlock
	if fbn >= PtrsPerBlock*PtrsPerBlock {
		return 0, ErrFileTooBig
	}
	if ino.DblInd == 0 {
		return 0, nil
	}
	l1, err := fs.readBlock(ctx, ino.DblInd)
	if err != nil {
		return 0, err
	}
	l2pbn := BlockNo(leU32(l1[4*(fbn/PtrsPerBlock):]))
	if l2pbn == 0 {
		return 0, nil
	}
	l2, err := fs.readBlock(ctx, l2pbn)
	if err != nil {
		return 0, err
	}
	return BlockNo(leU32(l2[4*(fbn%PtrsPerBlock):])), nil
}

// treeBlocks walks ino's whole tree, calling data for each mapped data
// block and ptr for each pointer block. Either callback may be nil.
func (fs *FS) treeBlocks(ctx context.Context, ino *Inode, data func(fbn uint32, pbn BlockNo), ptr func(pbn BlockNo)) error {
	for i, p := range ino.Direct {
		if p != 0 && data != nil {
			data(uint32(i), p)
		}
	}
	if ino.Indirect != 0 {
		if ptr != nil {
			ptr(ino.Indirect)
		}
		blk, err := fs.readBlock(ctx, ino.Indirect)
		if err != nil {
			return err
		}
		for i := 0; i < PtrsPerBlock; i++ {
			if p := BlockNo(leU32(blk[4*i:])); p != 0 && data != nil {
				data(NDirect+uint32(i), p)
			}
		}
	}
	if ino.DblInd != 0 {
		if ptr != nil {
			ptr(ino.DblInd)
		}
		blk, err := fs.readBlock(ctx, ino.DblInd)
		if err != nil {
			return err
		}
		// Copied out: the reads of the second level below may recycle
		// the buffer behind blk.
		var l1 [PtrsPerBlock]BlockNo
		for i := range l1 {
			l1[i] = BlockNo(leU32(blk[4*i:]))
		}
		for i, l2pbn := range l1 {
			if l2pbn == 0 {
				continue
			}
			if ptr != nil {
				ptr(l2pbn)
			}
			l2, err := fs.readBlock(ctx, l2pbn)
			if err != nil {
				return err
			}
			for j := 0; j < PtrsPerBlock; j++ {
				if p := BlockNo(leU32(l2[4*j:])); p != 0 && data != nil {
					data(NDirect+PtrsPerBlock+uint32(i*PtrsPerBlock+j), p)
				}
			}
		}
	}
	return nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
