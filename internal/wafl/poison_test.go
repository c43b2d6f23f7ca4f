package wafl

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// TestDoubleIndirectSecondLevels round-trips a file whose tree has three
// second-level pointer blocks through a cold mount, so that fsck and the
// first write walk the whole tree from disk: the first level is read
// once and the second-level reads follow from it.
func TestDoubleIndirectSecondLevels(t *testing.T) {
	dev := storage.NewMemDevice(8192)
	fs, err := Mkfs(ctx, dev, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tweaked(fs)
	data := randBytes(6, (NDirect+3*PtrsPerBlock+50)*BlockSize)
	ino, err := fs.WriteFile(ctx, "/huge", data, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	if fs, err = Mount(ctx, dev, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	tweaked(fs)
	check(t, fs)
	tail := randBytes(7, BlockSize+100)
	if err := fs.Write(ctx, ino, uint64(len(data)), tail); err != nil {
		t.Fatal(err)
	}
	if err := fs.CP(ctx); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, "/huge")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(data, tail...)) {
		t.Fatal("file with three second-level pointer blocks corrupted")
	}
	check(t, fs)
}

// TestTinyPoisonedCache reruns the package's content tests — the random
// operations against a model with crashes and replays, the big-file,
// hole, truncate, directory, snapshot and revert round trips, the
// grouped-volume bodies — over a cache of two or three blocks whose
// every displaced buffer is scribbled over before it is reused. With so few frames a buffer is
// recycled by the very next miss, so code that holds a readBlock slice
// across another read, or that takes a recycled buffer for a zeroed
// one, reads garbage and fails the body's own assertions. The tests
// that assert hit rates are left out; nothing else is.
func TestTinyPoisonedCache(t *testing.T) {
	defer func() { tweakFS = nil }()
	for _, blocks := range []int{2, 3} {
		tweakFS = func(fs *FS) {
			fs.poison = true
			fs.opts.CacheBlocks = blocks // RevertToSnapshot rebuilds the cache from it
			fs.cache = newBlockCache(blocks)
			// No buffer the filesystem takes starts out zeroed.
			for len(fs.bufs) < 8 {
				fs.giveBuf(make([]byte, BlockSize))
			}
		}
		for _, body := range []struct {
			name string
			run  func(*testing.T)
		}{
			{"RandomOpsAgainstModel", TestRandomOpsAgainstModel},
			{"DoubleIndirectSecondLevels", TestDoubleIndirectSecondLevels},
			{"HugeFileDoubleIndirect", TestHugeFileDoubleIndirect},
			{"LargeFileIndirect", TestLargeFileIndirect},
			{"SparseFileHoles", TestSparseFileHoles},
			{"OverwriteIsCopyOnWrite", TestOverwriteIsCopyOnWrite},
			{"TruncateGrowShrink", TestTruncateGrowShrink},
			{"WriteAtArbitraryOffsets", TestWriteAtArbitraryOffsets},
			{"ManyFilesInDirectory", TestManyFilesInDirectory},
			{"RenameDirectoryRewiresDotDot", TestRenameDirectoryRewiresDotDot},
			{"ManySmallFilesAcrossManyCPs", TestManySmallFilesAcrossManyCPs},
			{"SnapshotPreservesOldContents", TestSnapshotPreservesOldContents},
			{"SnapshotFreedBlocksReuseReadsNewData", TestSnapshotFreedBlocksReuseReadsNewData},
			{"BlockMapPlanesMatchPaperSemantics", TestBlockMapPlanesMatchPaperSemantics},
			{"RevertToSnapshotRestoresTree", TestRevertToSnapshotRestoresTree},
			{"RevertedSnapshotSurvivesNewChurn", TestRevertedSnapshotSurvivesNewChurn},
			{"CheckCleanOnHealthyChurn", TestCheckCleanOnHealthyChurn},
			{"GroupedVolumeSpreadsFiles", TestGroupedVolumeSpreadsFiles},
			{"GroupedVolumeSpills", TestGroupedVolumeSpills},
			{"GroupedVolumeCrashReplay", TestGroupedVolumeCrashReplay},
			{"GroupedVolumeCheckAndRevert", TestGroupedVolumeCheckAndRevert},
		} {
			t.Run(fmt.Sprintf("%s/cache%d", body.name, blocks), body.run)
		}
	}
}
