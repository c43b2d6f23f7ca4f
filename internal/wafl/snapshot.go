package wafl

import (
	"context"
	"fmt"
)

// Snapshot operations (paper §2.1): creating a snapshot duplicates the
// root data structure and copies the active bit plane into the
// snapshot's plane; WAFL does this "in just a few seconds" because
// nothing else is copied. Deleting one clears the plane. Up to
// MaxSnapshots snapshots exist at a time.

// CreateSnapshot takes a named snapshot of the active filesystem. It
// commits a consistency point first (the snapshot captures exactly
// that state) and a second one to persist the new snapshot table.
func (fs *FS) CreateSnapshot(ctx context.Context, name string) error {
	defer fs.lock(ctx)()
	if name == "" || len(name) > 32 {
		return fmt.Errorf("wafl: bad snapshot name %q", name)
	}
	slot := -1
	for i := range fs.info.Snaps {
		s := &fs.info.Snaps[i]
		if s.ID != 0 && s.Name == name {
			return fmt.Errorf("%w: %q", ErrSnapExists, name)
		}
		if s.ID == 0 && slot < 0 {
			slot = i
		}
	}
	if slot < 0 {
		return ErrSnapLimit
	}
	// Freeze the current state on disk.
	if err := fs.CP(ctx); err != nil {
		return err
	}
	id := fs.freeSnapID()
	if id == 0 {
		return ErrSnapLimit
	}
	fs.info.Snaps[slot] = SnapEntry{
		ID:        uint32(id),
		CreatedAt: fs.Clock(),
		Gen:       fs.info.Gen,
		Name:      name,
		Root:      fs.info.InodeFile,
		Blkmap:    fs.info.BlkmapFile,
	}
	fs.bmap.copyPlane(ActiveBit, SnapBit(id))
	// Persist the plane copy and the new snapshot table.
	return fs.CP(ctx)
}

// freeSnapID returns an unused snapshot id in 1..MaxSnapshots, or 0.
func (fs *FS) freeSnapID() int {
	used := make(map[uint32]bool)
	for i := range fs.info.Snaps {
		if fs.info.Snaps[i].ID != 0 {
			used[fs.info.Snaps[i].ID] = true
		}
	}
	for id := 1; id <= MaxSnapshots; id++ {
		if !used[uint32(id)] {
			return id
		}
	}
	return 0
}

// DeleteSnapshot removes the named snapshot, releasing any blocks held
// only by it (they become free once no other plane references them).
func (fs *FS) DeleteSnapshot(ctx context.Context, name string) error {
	defer fs.lock(ctx)()
	for i := range fs.info.Snaps {
		s := &fs.info.Snaps[i]
		if s.ID != 0 && s.Name == name {
			fs.bmap.clearPlane(SnapBit(int(s.ID)))
			fs.info.Snaps[i] = SnapEntry{}
			return fs.CP(ctx)
		}
	}
	return fmt.Errorf("%w: %q", ErrSnapNotFound, name)
}

// Snapshots lists the existing snapshots in creation order.
func (fs *FS) Snapshots() []SnapEntry {
	var out []SnapEntry
	for i := range fs.info.Snaps {
		if fs.info.Snaps[i].ID != 0 {
			out = append(out, fs.info.Snaps[i])
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].CreatedAt < out[j-1].CreatedAt; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Snapshot returns the snapshot entry named name.
func (fs *FS) Snapshot(name string) (SnapEntry, error) {
	for i := range fs.info.Snaps {
		if fs.info.Snaps[i].ID != 0 && fs.info.Snaps[i].Name == name {
			return fs.info.Snaps[i], nil
		}
	}
	return SnapEntry{}, fmt.Errorf("%w: %q", ErrSnapNotFound, name)
}

// SnapshotView returns a read-only view of the named snapshot.
func (fs *FS) SnapshotView(name string) (*View, error) {
	for i := range fs.info.Snaps {
		if fs.info.Snaps[i].ID != 0 && fs.info.Snaps[i].Name == name {
			return &View{fs: fs, snap: &fs.info.Snaps[i]}, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrSnapNotFound, name)
}

// RevertToSnapshot rewinds the active filesystem to the named
// snapshot — recovery from a snapshot without touching tape, the
// in-place complement of the backup strategies (WAFL later shipped
// this as SnapRestore). The snapshot's frozen root and block map
// become the active ones.
//
// Snapshots newer than the target reference state that no longer
// exists after the revert; they are deleted, exactly as the real
// feature does. Older snapshots survive: their bit planes are part of
// the target's frozen map.
func (fs *FS) RevertToSnapshot(ctx context.Context, name string) error {
	defer fs.lock(ctx)()
	target, err := fs.Snapshot(name)
	if err != nil {
		return err
	}
	// Quiesce: anything staged is about to be discarded, but the
	// on-disk state must be self-consistent before surgery.
	if err := fs.CP(ctx); err != nil {
		return err
	}
	// Load the snapshot's frozen block map; it carries the planes of
	// every snapshot older than the target.
	words, err := fs.SnapshotBlockMapWords(ctx, name)
	if err != nil {
		return err
	}
	// Drop newer snapshots from the table (their planes are not in
	// the frozen map, so they could not be kept consistent).
	for i := range fs.info.Snaps {
		s := &fs.info.Snaps[i]
		if s.ID != 0 && s.Gen > target.Gen {
			*s = SnapEntry{}
		}
	}
	copy(fs.bmap.words, words)
	// The target's own plane was not yet set when its map was frozen;
	// re-mark it so the snapshot remains protected (and re-revertable)
	// as the active filesystem diverges again.
	fs.bmap.copyPlane(ActiveBit, SnapBit(int(target.ID)))
	fs.bmap.refreeze()

	// Install the frozen roots and rebuild in-memory state.
	fs.info.InodeFile = target.Root
	fs.info.BlkmapFile = target.Blkmap
	fs.info.NInodes = target.Root.Size / InodeSize
	fs.states = make(map[Inum]*istate)
	fs.inofSt = &istate{ino: target.Root}
	fs.cache = newBlockCache(fs.opts.CacheBlocks)
	fs.lastRead = make(map[Inum]uint32)
	fs.stagedBlocks = 0
	fs.nextIno = Inum(fs.info.NInodes)
	if fs.nextIno < RootIno+1 {
		fs.nextIno = RootIno + 1
	}
	fs.freeInos = nil
	for i := RootIno + 1; i < fs.nextIno; i++ {
		ino, err := fs.readInodeRaw(ctx, i)
		if err != nil {
			return err
		}
		if !ino.Allocated() {
			fs.addFreeIno(i)
		}
	}
	if fs.log != nil {
		fs.log.Reset()
	}
	// Commit the reverted root.
	return fs.CP(ctx)
}

// SnapshotBlockMapWords reads the named snapshot's frozen block map —
// the one captured at its creation — from disk. Its active bit (bit 0)
// marks exactly the snapshot's world, including the worlds of all
// snapshots that existed when it was taken. Image dump's block
// selection is built entirely from these words; this is the only
// filesystem involvement in a physical dump (paper §4.1: "image dump
// uses the file system only to access the block map information").
func (fs *FS) SnapshotBlockMapWords(ctx context.Context, name string) ([]uint32, error) {
	s, err := fs.Snapshot(name)
	if err != nil {
		return nil, err
	}
	nWords := int(fs.info.NBlocks)
	words := make([]uint32, nWords)
	nBlks := (nWords + PtrsPerBlock - 1) / PtrsPerBlock
	for fbn := 0; fbn < nBlks; fbn++ {
		pbn, err := fs.walkTree(ctx, &s.Blkmap, uint32(fbn))
		if err != nil {
			return nil, err
		}
		if pbn == 0 {
			return nil, fmt.Errorf("%w: hole in snapshot %q block map at fbn %d", ErrCorrupt, name, fbn)
		}
		data, err := fs.readBlock(ctx, pbn)
		if err != nil {
			return nil, err
		}
		for i := 0; i < PtrsPerBlock && fbn*PtrsPerBlock+i < nWords; i++ {
			words[fbn*PtrsPerBlock+i] = leU32(data[4*i:])
		}
	}
	return words, nil
}

// SnapshotsBefore returns the snapshots older than the named one, in
// creation order — the set an image restore of that snapshot carries
// along.
func (fs *FS) SnapshotsBefore(name string) ([]SnapEntry, error) {
	target, err := fs.Snapshot(name)
	if err != nil {
		return nil, err
	}
	var out []SnapEntry
	for _, s := range fs.Snapshots() {
		if s.Gen < target.Gen && s.Name != name {
			out = append(out, s)
		}
	}
	return out, nil
}

// SnapshotBlocks returns how many blocks belong to the named snapshot's
// bit plane (the paper's per-snapshot space accounting).
func (fs *FS) SnapshotBlocks(name string) (int, error) {
	s, err := fs.Snapshot(name)
	if err != nil {
		return 0, err
	}
	return fs.bmap.countPlane(SnapBit(int(s.ID))), nil
}
