package wafl

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/nvram"
	"repro/internal/sim"
	"repro/internal/storage"
)

// writerRig is one filesystem on the virtual clock with the default
// CPU cost model and the default NVRAM, over an untimed device: the
// only modelled time is the two stations the filesystem lock must not
// be held across.
type writerRig struct {
	env *sim.Env
	cpu *sim.Station
	log *nvram.Log
	dev *storage.MemDevice
	fs  *FS
}

func newWriterRig(t *testing.T) *writerRig {
	t.Helper()
	r := &writerRig{env: sim.NewEnv(), dev: storage.NewMemDevice(8192)}
	r.cpu = sim.NewStation(r.env, "cpu", 0)
	r.log = nvram.New(r.env, nvram.DefaultParams())
	costs := DefaultCosts()
	costs.CPU = r.cpu
	var err error
	if r.fs, err = Mkfs(ctx, r.dev, r.log, Options{Costs: costs, Env: r.env}); err != nil {
		t.Fatal(err)
	}
	return r
}

// restoreLike is what one restore stream does to the filesystem, for
// files first..first+n of one flat directory: create, one 64 KiB
// write, setattr. It returns the inode numbers it was given.
func (r *writerRig) restoreLike(c context.Context, first, n int) (map[string]Inum, error) {
	inos := make(map[string]Inum)
	mtime := int64(1999)
	for i := first; i < first+n; i++ {
		name := fmt.Sprintf("f%03d", i)
		ino, err := r.fs.Create(c, RootIno, name, 0644, 0, 0)
		if err != nil {
			return nil, err
		}
		inos[name] = ino
		if err := r.fs.Write(c, ino, 0, randBytes(int64(i), 64<<10)); err != nil {
			return nil, err
		}
		if err := r.fs.SetAttr(c, ino, Attr{Mtime: &mtime}); err != nil {
			return nil, err
		}
	}
	return inos, nil
}

// TestConcurrentWritersOverlapCPUAndNVRAM: 24 files (1.5 MiB, far from
// a consistency point) restored by one process take exactly CPU-busy +
// NVRAM-busy — every operation is acknowledged only after its own log
// entry's commit, so one stream is a strict chain. Split over three
// processes the same work must overlap one stream's CPU with another's
// commit, and the NVRAM must still do all of it.
//
// Recorded, one → three writers (CPU 106.0 ms + NVRAM 143.9 ms): when
// create and setattr queued on the NVRAM station with the lock held,
// 249.8 → 248.2 ms, no overlap at all; with the lock covering staging
// only, 249.8 → 186.5 ms. What is left is the FIFO CPU station: a
// 25 µs setattr still queues behind a sibling write's 3.8 ms lump.
func TestConcurrentWritersOverlapCPUAndNVRAM(t *testing.T) {
	const files = 24
	type outcome struct {
		elapsed, cpu, nvram time.Duration
		appends             int64
	}
	run := func(writers int) outcome {
		r := newWriterRig(t)
		base := r.log.Appends()
		for w := 0; w < writers; w++ {
			first := w * files / writers
			r.env.Spawn(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
				if _, err := r.restoreLike(sim.WithProc(ctx, p), first, files/writers); err != nil {
					t.Error(err)
				}
			})
		}
		r.env.Run()
		if got := r.fs.CPCount(); got != 1 {
			t.Fatalf("%d consistency points in the window, want none after mkfs's", got-1)
		}
		return outcome{r.env.Now(), r.cpu.Busy(), r.log.Station().Busy(), r.log.Appends() - base}
	}
	one, three := run(1), run(3)
	t.Logf("one writer:    elapsed %v  cpu %v  nvram %v  appends %d", one.elapsed, one.cpu, one.nvram, one.appends)
	t.Logf("three writers: elapsed %v  cpu %v  nvram %v  appends %d", three.elapsed, three.cpu, three.nvram, three.appends)

	if one.elapsed < one.cpu+one.nvram {
		t.Errorf("one writer finished in %v, before its CPU %v + NVRAM %v: an operation returned ahead of its commit",
			one.elapsed, one.cpu, one.nvram)
	}
	if three.appends != one.appends || three.nvram != one.nvram || three.cpu != one.cpu {
		t.Errorf("three writers did different work: appends %d, nvram %v, cpu %v; one writer %d, %v, %v",
			three.appends, three.nvram, three.cpu, one.appends, one.nvram, one.cpu)
	}
	if limit := (three.cpu + three.nvram) * 4 / 5; three.elapsed > limit {
		t.Errorf("three writers took %v, want under %v (4/5 of CPU %v + NVRAM %v): the streams did not overlap",
			three.elapsed, limit, three.cpu, three.nvram)
	}
}

// TestInterleavedWritersReplayInOperationOrder: the log must hold
// operations in the order they were staged, whichever process paid for
// its commit first, or replay hands out different inode numbers than
// the live run did (ErrCrossed).
func TestInterleavedWritersReplayInOperationOrder(t *testing.T) {
	r := newWriterRig(t)
	live := make(map[string]Inum)
	for w := 0; w < 2; w++ {
		first := w * 8
		r.env.Spawn(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
			inos, err := r.restoreLike(sim.WithProc(ctx, p), first, 8)
			if err != nil {
				t.Error(err)
			}
			for name, ino := range inos {
				live[name] = ino
			}
		})
	}
	r.env.Run()
	// The two writers really did interleave: neither got a contiguous
	// run of inode numbers.
	if live["f007"] < live["f008"] {
		t.Fatalf("writers ran back to back (f007 is inode %d, f008 %d): nothing was interleaved", live["f007"], live["f008"])
	}
	r.fs.Crash()

	fs2, err := Mount(ctx, r.dev, r.log, Options{})
	if err != nil {
		t.Fatalf("mount with replay: %v", err)
	}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("f%03d", i)
		ino, err := fs2.ActiveView().Lookup(ctx, RootIno, name)
		if err != nil || ino != live[name] {
			t.Fatalf("%s: replayed as inode %d (%v), live run made it %d", name, ino, err, live[name])
		}
		got, err := fs2.ActiveView().ReadFile(ctx, name)
		if err != nil || !bytes.Equal(got, randBytes(int64(i), 64<<10)) {
			t.Fatalf("%s: contents differ after replay (%v)", name, err)
		}
		if st, _ := fs2.GetInode(ctx, ino); st.Mtime != 1999 {
			t.Fatalf("%s: mtime %d after replay, want 1999", name, st.Mtime)
		}
	}
	check(t, fs2)
}

// TestNestedLockPaysOnce: Rename over an existing destination calls
// Remove under its own lock. Both operations' CPU and both log entries'
// commits are owed to the outermost unlock, once: the rename takes
// exactly the CPU and NVRAM time it added to the stations.
func TestNestedLockPaysOnce(t *testing.T) {
	r := newWriterRig(t)
	if _, err := r.restoreLike(ctx, 0, 2); err != nil { // untimed set-up
		t.Fatal(err)
	}
	appends := r.log.Appends()
	r.env.Spawn("rename", func(p *sim.Proc) {
		if err := r.fs.Rename(sim.WithProc(ctx, p), RootIno, "f000", RootIno, "f001"); err != nil {
			t.Error(err)
		}
	})
	r.env.Run()
	if got := r.log.Appends() - appends; got != 2 {
		t.Fatalf("rename over a destination logged %d entries, want remove + rename", got)
	}
	if busy := r.cpu.Busy() + r.log.Station().Busy(); busy == 0 || r.env.Now() != busy {
		t.Fatalf("rename took %v, its CPU + NVRAM time is %v", r.env.Now(), busy)
	}
}
