package engine_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

var (
	ctx     = context.Background()
	errLost = errors.New("test: stream lost")
	engines = []catalog.Engine{catalog.Logical, catalog.Image}
)

func isLost(err error) bool { return errors.Is(err, errLost) }

// memSink is one stream in memory. It loses the stream on the write of
// record failAt (negative: never).
type memSink struct {
	recs   [][]byte
	failAt int
}

func (m *memSink) WriteRecord(rec []byte) error {
	if len(m.recs) == m.failAt {
		return errLost
	}
	m.recs = append(m.recs, append([]byte(nil), rec...))
	return nil
}
func (m *memSink) NextVolume() error { return errors.New("test: memory streams have no volumes") }

type memSource struct {
	recs [][]byte
}

func (m *memSource) ReadRecord() ([]byte, error) {
	if len(m.recs) == 0 {
		return nil, io.EOF
	}
	rec := m.recs[0]
	m.recs = m.recs[1:]
	return rec, nil
}

func sourcesOf(sinks []*memSink) []stream.Source {
	out := make([]stream.Source, len(sinks))
	for i, s := range sinks {
		out[i] = &memSource{recs: s.recs}
	}
	return out
}

// fixture is a small filesystem the tests dump: snapshots name its
// states, dates is the logical engine's dump history.
type fixture struct {
	t     *testing.T
	dev   storage.Device
	fs    *wafl.FS
	paths []string
	dates *logical.DumpDates
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dev := storage.NewMemDevice(8192)
	fs, err := wafl.Mkfs(ctx, dev, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := workload.Generate(ctx, fs, workload.Spec{
		Seed: 7, Files: 30, DirFanout: 5, MeanFileSize: 12 << 10, Symlinks: 3, Hardlinks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{t: t, dev: dev, fs: fs, paths: paths, dates: logical.NewDumpDates()}
}

func (f *fixture) snapshot(name string) {
	f.t.Helper()
	if err := f.fs.CreateSnapshot(ctx, name); err != nil {
		f.t.Fatal(err)
	}
}

func (f *fixture) digest(snap string) map[string]workload.Entry {
	f.t.Helper()
	v, err := f.fs.SnapshotView(snap)
	if err != nil {
		f.t.Fatal(err)
	}
	d, err := workload.TreeDigest(ctx, v, "/")
	if err != nil {
		f.t.Fatal(err)
	}
	return d
}

// churn rewrites a third of the files and removes one.
func (f *fixture) churn() {
	f.t.Helper()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < len(f.paths); i += 3 {
		buf := make([]byte, 9<<10)
		rng.Read(buf)
		if _, err := f.fs.WriteFile(ctx, f.paths[i], buf, 0644); err != nil {
			f.t.Fatal(err)
		}
	}
	if err := f.fs.RemovePath(ctx, f.paths[1]); err != nil {
		f.t.Fatal(err)
	}
}

// job dumps snap — incrementally against base when base is set — with
// checkpoints on.
func (f *fixture) job(eng catalog.Engine, snap, base string) *engine.Dump {
	f.t.Helper()
	if eng == catalog.Image {
		return engine.NewImage(physical.DumpOptions{
			FS: f.fs, Vol: f.dev, SnapName: snap, BaseSnapName: base, CheckpointEvery: 16,
		})
	}
	view, err := f.fs.SnapshotView(snap)
	if err != nil {
		f.t.Fatal(err)
	}
	level := 0
	if base != "" {
		level = 1
	}
	return engine.NewLogical(logical.DumpOptions{
		View: view, Level: level, Dates: f.dates, FSID: "vol", Label: snap,
		ReadAhead: 8, CheckpointEvery: 2,
	})
}

// resume drives job with engine.Resume; the first stream is lost at
// record failAt, every later stream is sound.
func resume(job *engine.Dump, failAt int) (streams []*memSink, resumes int, err error) {
	resumes, err = engine.Resume(ctx, job, 4, func(attempt int) (stream.Sink, func(error) error, error) {
		s := &memSink{failAt: -1}
		if attempt == 0 {
			s.failAt = failAt
		}
		streams = append(streams, s)
		return s, nil, nil
	}, isLost)
	return streams, resumes, err
}

// restored applies fn to a fresh target for eng and digests the result.
func restored(t *testing.T, eng catalog.Engine, fn func(engine.Target) error) map[string]workload.Entry {
	t.Helper()
	tgt := engine.Target{Vol: storage.NewMemDevice(8192)}
	var err error
	if eng == catalog.Logical {
		if tgt.FS, err = wafl.Mkfs(ctx, tgt.Vol, nil, wafl.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fn(tgt); err != nil {
		t.Fatal(err)
	}
	if eng == catalog.Image {
		if tgt.FS, err = wafl.Mount(ctx, tgt.Vol, nil, wafl.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := workload.TreeDigest(ctx, tgt.FS.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestResumeLostAtEveryRecord loses the first stream at every record
// index in turn — zero records, inside the maps and directories (or the
// image header), mid-file, the last record — for both engines. One
// stream per attempt, and the streams applied in order, all but the
// last salvaged, restore byte-identical every time.
func TestResumeLostAtEveryRecord(t *testing.T) {
	for _, eng := range engines {
		f := newFixture(t)
		f.snapshot("s0")
		want := f.digest("s0")
		for failAt := 0; ; failAt++ {
			streams, resumes, err := resume(f.job(eng, "s0", ""), failAt)
			if err != nil {
				t.Fatalf("%s lost at record %d: %v", eng, failAt, err)
			}
			if len(streams) != resumes+1 {
				t.Fatalf("%s lost at record %d: %d streams for %d resumes", eng, failAt, len(streams), resumes)
			}
			got := restored(t, eng, func(tgt engine.Target) error {
				_, err := engine.RestoreSet(ctx, eng, tgt, sourcesOf(streams), false)
				return err
			})
			if diffs := workload.DiffDigests(want, got); len(diffs) > 0 {
				t.Fatalf("%s lost at record %d: restore differs: %v", eng, failAt, diffs)
			}
			if resumes == 0 {
				if failAt < 4 {
					t.Fatalf("%s: stream has only %d records; the sweep proved nothing", eng, failAt)
				}
				break // failAt is past the stream's last record
			}
			if resumes != 1 {
				t.Fatalf("%s lost at record %d: %d resumes, want 1", eng, failAt, resumes)
			}
		}
	}
}

// TestResumeStopsOnOtherErrors: an error lost does not accept is
// returned at once, with no second stream opened.
func TestResumeStopsOnOtherErrors(t *testing.T) {
	f := newFixture(t)
	f.snapshot("s0")
	boom := errors.New("test: not a lost stream")
	opens := 0
	_, err := engine.Resume(ctx, f.job(catalog.Logical, "s0", ""), 4, func(int) (stream.Sink, func(error) error, error) {
		opens++
		return &memSink{failAt: 3}, func(error) error { return boom }, nil
	}, isLost)
	if !errors.Is(err, boom) || opens != 1 {
		t.Fatalf("err %v after %d opens, want the finish error after 1", err, opens)
	}
}

// TestResumeBoundedByMaxResumes: a stream that is lost every time ends
// the job after maxResumes resumes, with the last loss in the error.
func TestResumeBoundedByMaxResumes(t *testing.T) {
	f := newFixture(t)
	f.snapshot("s0")
	for _, eng := range engines {
		opens := 0
		resumes, err := engine.Resume(ctx, f.job(eng, "s0", ""), 2, func(int) (stream.Sink, func(error) error, error) {
			opens++
			return &memSink{failAt: 1}, nil, nil
		}, isLost)
		if !isLost(err) || opens != 3 || resumes != 2 {
			t.Fatalf("%s: err %v after %d opens and %d resumes, want a lost stream after 3 and 2", eng, err, opens, resumes)
		}
	}
}

// TestResumeFinishDecides: finish sees the attempt's own error, and its
// verdict replaces it — a close that loses the session after a complete
// dump costs a resume, and the set still restores.
func TestResumeFinishDecides(t *testing.T) {
	for _, eng := range engines {
		f := newFixture(t)
		f.snapshot("s0")
		var streams []*memSink
		var seen []error
		resumes, err := engine.Resume(ctx, f.job(eng, "s0", ""), 4, func(attempt int) (stream.Sink, func(error) error, error) {
			s := &memSink{failAt: -1}
			streams = append(streams, s)
			return s, func(err error) error {
				seen = append(seen, err)
				if attempt == 0 {
					return fmt.Errorf("closing: %w", errLost)
				}
				return err
			}, nil
		}, isLost)
		if err != nil || resumes != 1 || len(seen) != 2 || seen[0] != nil || seen[1] != nil {
			t.Fatalf("%s: err %v, %d resumes, finish saw %v; want one resume after two clean dumps", eng, err, resumes, seen)
		}
		got := restored(t, eng, func(tgt engine.Target) error {
			_, err := engine.RestoreSet(ctx, eng, tgt, sourcesOf(streams), false)
			return err
		})
		if diffs := workload.DiffDigests(f.digest("s0"), got); len(diffs) > 0 {
			t.Fatalf("%s: restore differs: %v", eng, diffs)
		}
	}
}

// TestRecoverResumedSets executes real plans over sets that took a
// resume to complete, whichever engine wrote them: a plan whose single
// step is a two-stream resumed full, and a full followed by a resumed
// incremental. A resumed set's streams are one step — the step decides
// base or incremental, each stream but the last is salvaged.
func TestRecoverResumedSets(t *testing.T) {
	for _, eng := range engines {
		f := newFixture(t)
		store := map[string]*memSink{}
		cat, err := catalog.Open(&catalog.MemStore{})
		if err != nil {
			t.Fatal(err)
		}
		// dump journals one set; failAt < 0 completes on the first stream.
		dump := func(snap, base string, failAt int) {
			t.Helper()
			job := f.job(eng, snap, base)
			streams, resumes, err := resume(job, failAt)
			if err != nil {
				t.Fatalf("%s dump of %s: %v", eng, snap, err)
			}
			if want := min(failAt, 0) + 1; resumes != want {
				t.Fatalf("%s dump of %s: %d resumes, want %d", eng, snap, resumes, want)
			}
			ds := job.Set()
			ds.FSID, ds.Snap, ds.Resumed = "vol", snap, resumes > 0
			for i, s := range streams {
				name := fmt.Sprintf("%s.%d", snap, i)
				store[name] = s
				ds.Media = append(ds.Media, catalog.MediaRef{Volume: name})
			}
			if _, err := cat.AppendDumpSet(ds); err != nil {
				t.Fatal(err)
			}
		}
		recoverLatest := func(wantSteps int) map[string]workload.Entry {
			t.Helper()
			plan, err := cat.Plan(catalog.PlanOptions{Engine: eng, FSID: "vol"})
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Steps) != wantSteps || !plan.Steps[wantSteps-1].Resumed || len(plan.Steps[wantSteps-1].Media) != 2 {
				t.Fatalf("%s plan: %s", eng, plan)
			}
			return restored(t, eng, func(tgt engine.Target) error {
				_, err := engine.Recover(ctx, plan, tgt, func(_ context.Context, step catalog.DumpSet, _ func(string, int)) ([]stream.Source, error) {
					var out []stream.Source
					for _, ref := range step.Media {
						out = append(out, &memSource{recs: store[ref.Volume].recs})
					}
					return out, nil
				}, nil)
				return err
			})
		}

		f.snapshot("s0")
		dump("s0", "", 5)
		if diffs := workload.DiffDigests(f.digest("s0"), recoverLatest(1)); len(diffs) > 0 {
			t.Fatalf("%s resumed full: restore differs: %v", eng, diffs)
		}

		// A clean full of the same state supersedes the resumed one as the
		// incremental's base.
		f.snapshot("s1")
		dump("s1", "", -1)
		f.churn()
		f.snapshot("s2")
		dump("s2", "s1", 2)
		if diffs := workload.DiffDigests(f.digest("s2"), recoverLatest(2)); len(diffs) > 0 {
			t.Fatalf("%s full + resumed incremental: restore differs: %v", eng, diffs)
		}
	}
}

// TestEveryPrefixIsTorn cuts one stream of each engine at every record
// boundary. A stream that stops short of its end marker (TS_END, the
// image trailer) is torn whichever record it stops at: it does not
// verify, it does not restore as the set's last stream, and salvaged it
// restores what it has with TornTail set. The whole stream passes all
// three.
func TestEveryPrefixIsTorn(t *testing.T) {
	for _, eng := range engines {
		f := newFixture(t)
		f.snapshot("s0")
		whole := &memSink{failAt: -1}
		if err := f.job(eng, "s0", "").To(ctx, whole); err != nil {
			t.Fatal(err)
		}
		if len(whole.recs) < 8 {
			t.Fatalf("%s: stream has only %d records; the sweep proves nothing", eng, len(whole.recs))
		}
		// salvaged restores the first n records with Salvage on.
		salvaged := func(n int) (torn bool, err error) {
			src := &memSource{recs: whole.recs[:n]}
			vol := storage.NewMemDevice(8192)
			if eng == catalog.Image {
				st, err := physical.Restore(ctx, physical.RestoreOptions{Vol: vol, Source: src, Salvage: true})
				return err == nil && st.TornTail, err
			}
			fs, err := wafl.Mkfs(ctx, vol, nil, wafl.Options{})
			if err != nil {
				t.Fatal(err)
			}
			st, err := logical.Restore(ctx, logical.RestoreOptions{FS: fs, Source: src, KernelIntegrated: true, Salvage: true})
			return err == nil && st.TornTail, err
		}
		last := func(n int) error {
			tgt := engine.Target{Vol: storage.NewMemDevice(8192)}
			if eng == catalog.Logical {
				var err error
				if tgt.FS, err = wafl.Mkfs(ctx, tgt.Vol, nil, wafl.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			_, err := engine.RestoreSet(ctx, eng, tgt, []stream.Source{&memSource{recs: whole.recs[:n]}}, false)
			return err
		}
		for n := 0; n <= len(whole.recs); n++ {
			complete := n == len(whole.recs)
			_, verr := engine.Verify(ctx, eng, &memSource{recs: whole.recs[:n]}, nil)
			rerr := last(n)
			torn, serr := salvaged(n)
			if (verr == nil) != complete || (rerr == nil) != complete || serr != nil || torn == complete {
				t.Errorf("%s, %d of %d records: verify %v, restore %v, salvage torn=%v %v",
					eng, n, len(whole.recs), verr, rerr, torn, serr)
			}
			if eng == catalog.Logical && !complete && !(errors.Is(verr, io.ErrUnexpectedEOF) && errors.Is(rerr, io.ErrUnexpectedEOF)) {
				t.Errorf("logical, %d of %d records: verify %v and restore %v, want io.ErrUnexpectedEOF in both", n, len(whole.recs), verr, rerr)
			}
		}
	}
}
