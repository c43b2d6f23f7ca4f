package wafl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nvram"
	"repro/internal/raid"
	"repro/internal/storage"
)

// newGroupedFS formats a volume of three RAID groups of four data
// disks, blocksPerDisk each, and returns it with its filesystem.
func newGroupedFS(t *testing.T, blocksPerDisk int, log *nvram.Log) (*raid.Volume, *FS) {
	t.Helper()
	vol, err := raid.Build(nil, "vol", raid.Config{Groups: 3, DataDisksPerGroup: 4, BlocksPerDisk: blocksPerDisk})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(ctx, vol, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return vol, tweaked(fs)
}

// groupOf returns the index of the RAID group of vol that holds pbn.
func groupOf(vol *raid.Volume, pbn BlockNo) int {
	starts := vol.GroupStarts()
	g := len(starts) - 1
	for int(pbn) < starts[g] {
		g--
	}
	return g
}

// fileGroups returns the groups that hold the data blocks of path.
func fileGroups(t *testing.T, vol *raid.Volume, fs *FS, path string) []int {
	t.Helper()
	v := fs.ActiveView()
	ino, err := v.Namei(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	inode, err := v.GetInode(ctx, ino)
	if err != nil {
		t.Fatal(err)
	}
	var groups []int
	for fbn := uint32(0); fbn < inode.Blocks(); fbn++ {
		pbn, err := v.BlockAt(ctx, ino, fbn)
		if err != nil || pbn == 0 {
			t.Fatalf("%s block %d: pbn %d, err %v", path, fbn, pbn, err)
		}
		if g := groupOf(vol, pbn); !slices.Contains(groups, g) {
			groups = append(groups, g)
		}
	}
	return groups
}

// readBack checks that every file of model reads back as written.
func readBack(t *testing.T, fs *FS, stage string, model map[string][]byte) {
	t.Helper()
	for p, want := range model {
		if got, err := fs.ActiveView().ReadFile(ctx, p); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: %s: read back %d bytes, err %v, want %d", stage, p, len(got), err, len(want))
		}
	}
}

// TestGroupedVolumeSpreadsFiles: on a volume of three RAID groups, a
// tree written, churned and committed over many consistency points has
// about a third of its blocks in each group, and every file — each was
// last written whole, by one consistency point — lies in one.
func TestGroupedVolumeSpreadsFiles(t *testing.T) {
	vol, fs := newGroupedFS(t, 2048, nil)
	r := rand.New(rand.NewSource(7))
	model := make(map[string][]byte)
	write := func(p string) {
		data := randBytes(r.Int63(), r.Intn(40*BlockSize)+1)
		if _, err := fs.WriteFile(ctx, p, data, 0644); err != nil {
			t.Fatalf("write %s: %v", p, err)
		}
		model[p] = data
	}
	for i := 0; i < 300; i++ {
		write(fmt.Sprintf("/d%d/f%03d", i%7, i))
		if i%60 == 59 {
			if err := fs.CP(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 4; round++ {
		for c := 0; c < 100; c++ {
			i := r.Intn(300)
			p := fmt.Sprintf("/d%d/f%03d", i%7, i)
			if _, ok := model[p]; ok && r.Intn(3) == 0 {
				if err := fs.RemovePath(ctx, p); err != nil {
					t.Fatal(err)
				}
				delete(model, p)
				continue
			}
			write(p)
		}
		if err := fs.CP(ctx); err != nil {
			t.Fatal(err)
		}
	}
	check(t, fs)

	starts := vol.GroupStarts()
	perGroup := make([]int, len(starts))
	for b := 0; b < vol.NumBlocks(); b++ {
		if fs.BlockMapWord(BlockNo(b))&ActiveBit != 0 {
			perGroup[groupOf(vol, BlockNo(b))]++
		}
	}
	active := fs.UsedBlocks()
	for g, n := range perGroup {
		if share := float64(n) / float64(active); share < 0.25 || share > 0.42 {
			t.Errorf("group %d holds %d of %d active blocks (%.0f%%), want 25-42%%", g, n, active, 100*share)
		}
	}
	t.Logf("active blocks per group: %v", perGroup)
	for p, want := range model {
		if groups := fileGroups(t, vol, fs, p); len(groups) > 1 {
			t.Errorf("%s (%d bytes) lies in groups %v", p, len(want), groups)
		}
	}
	readBack(t, fs, "final", model)
}

// TestGroupedVolumeSpills: a file bigger than a RAID group spills into
// the next one, and a volume being filled file by file takes them until
// the filesystem's own admission check refuses one: no consistency
// point runs out of space in one group while the others have room. The
// file refused, and the free count it is refused at, are pinned.
func TestGroupedVolumeSpills(t *testing.T) {
	vol, fs := newGroupedFS(t, 64, nil) // groups of 256 blocks
	big := randBytes(1, 300*BlockSize)
	if _, err := fs.WriteFile(ctx, "/big", big, 0644); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatalf("consistency point with %d blocks free: %v", fs.FreeBlocks(), err)
	}
	if groups := fileGroups(t, vol, fs, "/big"); len(groups) != 2 {
		t.Errorf("a 300-block file on 256-block groups lies in groups %v", groups)
	}
	model := map[string][]byte{"/big": big}
	for i := 0; ; i++ {
		p, data := fmt.Sprintf("/s%02d", i), randBytes(int64(100+i), 20*BlockSize)
		_, err := fs.WriteFile(ctx, p, data, 0644)
		if errors.Is(err, ErrNoSpace) {
			if free := fs.FreeBlocks(); i != 21 || free != 18 {
				t.Errorf("file %d refused with %d blocks free, want file 21 with 18", i, free)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		model[p] = data
		if err := fs.CP(ctx); err != nil {
			t.Fatalf("consistency point after file %d with %d blocks free: %v", i, fs.FreeBlocks(), err)
		}
	}
	if free := fs.FreeBlocks(); free > 40 {
		t.Errorf("the volume refused a 20-block file with %d blocks free", free)
	}
	check(t, fs)
	readBack(t, fs, "full volume", model)
}

// TestGroupedVolumeCrashReplay: operations logged since the last
// consistency point on a grouped volume come back after a crash — the
// remounted filesystem starts its rotation over, which nothing on disk
// depends on — and the replayed state commits and checks clean.
func TestGroupedVolumeCrashReplay(t *testing.T) {
	log := newTestLog()
	vol, fs := newGroupedFS(t, 512, log)
	r := rand.New(rand.NewSource(11))
	model := make(map[string][]byte)
	churn := func(n int) {
		for i := 0; i < n; i++ {
			p := fmt.Sprintf("/d%d/f%02d", r.Intn(3), r.Intn(40))
			if _, ok := model[p]; ok && r.Intn(4) == 0 {
				if err := fs.RemovePath(ctx, p); err != nil {
					t.Fatal(err)
				}
				delete(model, p)
				continue
			}
			data := randBytes(r.Int63(), r.Intn(30*BlockSize)+1)
			if _, err := fs.WriteFile(ctx, p, data, 0644); err != nil {
				t.Fatal(err)
			}
			model[p] = data
		}
	}
	for round := 0; round < 3; round++ {
		churn(30)
		if err := fs.CP(ctx); err != nil {
			t.Fatal(err)
		}
		churn(15) // in NVRAM only
		fs.Crash()
		var err error
		if fs, err = Mount(ctx, vol, log, Options{}); err != nil {
			t.Fatalf("round %d remount: %v", round, err)
		}
		tweaked(fs)
		readBack(t, fs, fmt.Sprintf("round %d after replay", round), model)
		if err := fs.CP(ctx); err != nil {
			t.Fatal(err)
		}
		check(t, fs)
	}
	readBack(t, fs, "final", model)
}

// TestGroupedVolumeCheckAndRevert: fsck and snapshot revert on a
// grouped volume — a revert swaps the whole block map under the
// allocator, whose cursors then stand wherever they stood.
func TestGroupedVolumeCheckAndRevert(t *testing.T) {
	_, fs := newGroupedFS(t, 512, nil)
	kept := make(map[string][]byte)
	for i := 0; i < 30; i++ {
		p := fmt.Sprintf("/keep/f%02d", i)
		kept[p] = randBytes(int64(i), (i%9+1)*3*BlockSize)
		if _, err := fs.WriteFile(ctx, p, kept[p], 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.CreateSnapshot(ctx, "before"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i += 2 {
		if _, err := fs.WriteFile(ctx, fmt.Sprintf("/keep/f%02d", i), randBytes(int64(1000+i), 10*BlockSize), 0644); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.WriteFile(ctx, fmt.Sprintf("/new/f%02d", i), randBytes(int64(2000+i), 25*BlockSize), 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
	if err := fs.RevertToSnapshot(ctx, "before"); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
	if _, err := fs.ActiveView().Namei(ctx, "/new/f00"); !errors.Is(err, ErrNotFound) {
		t.Errorf("/new/f00 after the revert: %v", err)
	}
	// New churn allocates around what the snapshot holds.
	for i := 0; i < 20; i++ {
		if _, err := fs.WriteFile(ctx, fmt.Sprintf("/after/f%02d", i), randBytes(int64(3000+i), 15*BlockSize), 0644); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	check(t, fs)
	readBack(t, fs, "after the revert", kept)
}

// groupedRecorder gives a prefetchRecorder a volume geometry.
type groupedRecorder struct {
	*prefetchRecorder
	starts []int
}

func (d groupedRecorder) GroupStarts() []int { return d.starts }

// TestViewPrefetchSweepsGroupsTogether: on a volume of several groups a
// batch goes out as one ascending sweep per group, a block of each in
// turn, so that no group waits for the one before it to be done.
func TestViewPrefetchSweepsGroupsTogether(t *testing.T) {
	starts := []int{0, 1024, 2048}
	rec := &prefetchRecorder{Device: storage.NewMemDevice(3072), reads: map[int]int{}, declined: map[int]bool{}}
	dev := groupedRecorder{rec, starts}
	fs, err := Mkfs(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var inos []Inum
	for i := 0; i < 9; i++ {
		ino, err := fs.WriteFile(ctx, fmt.Sprintf("/f%d", i), randBytes(int64(i), (10+i)*BlockSize), 0644)
		if err != nil {
			t.Fatal(err)
		}
		inos = append(inos, ino)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if fs, err = Mount(ctx, dev, nil, Options{}); err != nil { // cold cache
		t.Fatal(err)
	}
	v := fs.ActiveView()
	var batch []BlockNo
	for i, ino := range inos {
		for fbn := uint32(0); fbn < uint32(10+i); fbn++ {
			pbn, err := v.BlockAt(ctx, ino, fbn)
			if err != nil || pbn == 0 {
				t.Fatalf("file %d block %d: pbn %d, err %v", i, fbn, pbn, err)
			}
			batch = append(batch, pbn)
		}
	}
	rec.prefetched = nil
	v.Prefetch(ctx, batch)

	group := func(bno int) int { return bno / 1024 }
	perGroup := make([][]int, len(starts))
	for _, bno := range rec.prefetched {
		perGroup[group(bno)] = append(perGroup[group(bno)], bno)
	}
	shortest := len(rec.prefetched)
	for g, sweep := range perGroup {
		if !slices.IsSorted(sweep) {
			t.Errorf("group %d was not swept in ascending order: %v", g, sweep)
		}
		shortest = min(shortest, len(sweep))
	}
	if shortest < 20 {
		t.Fatalf("blocks prefetched per group: %d, %d, %d: the files did not spread", len(perGroup[0]), len(perGroup[1]), len(perGroup[2]))
	}
	for i, bno := range rec.prefetched[:len(starts)*shortest] {
		if group(bno) != i%len(starts) {
			t.Fatalf("prefetch %d went to group %d, want the groups in turn: %v", i, group(bno), rec.prefetched[:i+1])
		}
	}
	want := slices.Clone(batch)
	slices.Sort(want)
	got := slices.Clone(rec.prefetched)
	slices.Sort(got)
	for i := range got {
		if BlockNo(got[i]) != want[i] {
			t.Fatalf("prefetched set differs from the batch at %d: %d, want %d", i, got[i], want[i])
		}
	}
}
