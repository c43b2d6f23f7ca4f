package main

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dumpfmt"
	"repro/internal/engine"
	"repro/internal/scrub"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// treeDigest mounts a volume image and digests its active tree.
func treeDigest(t *testing.T, vol string) map[string]workload.Entry {
	t.Helper()
	ctx := context.Background()
	dev, err := storage.OpenFileDevice(vol)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	fs, err := wafl.Mount(ctx, dev, nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := workload.TreeDigest(ctx, fs.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// output runs one command with stdout captured.
func output(t *testing.T, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	f.Close()
	out, _ := os.ReadFile(path)
	return string(out), err
}

// health replays the volume's catalog and returns each set's health
// column, in set order.
func health(t *testing.T, vol string) []string {
	t.Helper()
	cat, done, err := openCatalog(vol)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	var out []string
	for _, ds := range cat.Sets() {
		out = append(out, cat.HealthLabel(ds.ID))
	}
	return out
}

// oneWayRig is a filled volume and the helpers the tables below share.
type oneWayRig struct {
	t        *testing.T
	dir, vol string
}

func newOneWayRig(t *testing.T) *oneWayRig {
	r := &oneWayRig{t: t, dir: t.TempDir()}
	r.vol = filepath.Join(r.dir, "home.img")
	r.do("-vol", r.vol, "mkfs", "-blocks", "4096")
	r.do("-vol", r.vol, "fill", "-mb", "1")
	return r
}

func (r *oneWayRig) do(args ...string) {
	r.t.Helper()
	if err := run(args); err != nil {
		r.t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
	}
}

// put writes content to /docs/note on the volume.
func (r *oneWayRig) put(content string) {
	r.t.Helper()
	host := filepath.Join(r.dir, "note.txt")
	if err := os.WriteFile(host, []byte(content), 0644); err != nil {
		r.t.Fatal(err)
	}
	r.do("-vol", r.vol, "put", host, "/docs/note")
}

// TestOneWayBack: whatever a cataloged set is made of — a stream file,
// a manifest over the chunk store, or a chain of both — every reader of
// it goes through the one opener, so scrub and fsck find a healthy set
// healthy, scrub -mark journals nothing, recover rebuilds the dumped
// tree digest-identical and restore -set / imagerestore -set take the
// set by id.
func TestOneWayBack(t *testing.T) {
	for _, kind := range []struct {
		name   string
		engine string
		// dumps are the dump commands' arguments after -vol VOL, with OUT
		// standing for a fresh stream-file path; the volume changes
		// between them.
		dumps [][]string
	}{
		{"stream file", "logical", [][]string{{"dump", "-o", "OUT"}}},
		{"image stream file", "image", [][]string{{"imagedump", "-o", "OUT"}}},
		{"dump -dedup", "logical", [][]string{{"dump", "-dedup"}}},
		{"imagedump -dedup", "image", [][]string{{"imagedump", "-dedup"}}},
		{"level-0 file + level-1 dedup", "logical", [][]string{{"dump", "-o", "OUT"}, {"dump", "-dedup", "-level", "1"}}},
		{"level-0 dedup + level-1 file", "logical", [][]string{{"dump", "-dedup"}, {"dump", "-o", "OUT", "-level", "1"}}},
	} {
		t.Run(kind.name, func(t *testing.T) {
			r := newOneWayRig(t)
			for i, dump := range kind.dumps {
				r.put("state " + strconv.Itoa(i))
				args := append([]string{"-vol", r.vol}, dump...)
				for j, a := range args {
					if a == "OUT" {
						args[j] = filepath.Join(r.dir, "stream"+strconv.Itoa(i))
					}
				}
				r.do(args...)
			}
			want := treeDigest(t, r.vol)

			r.do("-vol", r.vol, "scrub")
			r.do("-vol", r.vol, "fsck")
			r.do("-vol", r.vol, "scrub", "-mark")
			for i, h := range health(t, r.vol) {
				if h != "ok" {
					t.Fatalf("scrub -mark of healthy sets left set %d %q", i+1, h)
				}
			}

			// restore -set / imagerestore -set of the full, by id, onto a
			// fresh volume; then each later set on top.
			clone := filepath.Join(r.dir, "clone.img")
			if kind.engine == "image" {
				r.do("-vol", clone, "imagerestore", "-set", "1", "-from", r.vol)
			} else {
				r.do("-vol", clone, "mkfs", "-blocks", "4096")
				for i := range kind.dumps {
					r.do("-vol", clone, "restore", "-set", strconv.Itoa(i+1), "-from", r.vol, "-sync-deletes")
				}
			}
			if diffs := workload.DiffDigests(want, treeDigest(t, clone)); len(diffs) > 0 {
				t.Fatalf("restore -set: tree differs: %v", diffs[0])
			}
			// The wrong engine's command refuses the set instead of
			// feeding it to the wrong parser.
			wrong := []string{"-vol", clone, "imagerestore", "-set", "1", "-from", r.vol}
			if kind.engine == "image" {
				wrong[2] = "restore"
			}
			if err := run(wrong); err == nil {
				t.Fatalf("backupctl %s accepted a %s set", strings.Join(wrong, " "), kind.engine)
			}

			// Disaster, then recovery by catalog.
			r.put("written after the last dump")
			r.do("-vol", r.vol, "rm", "/docs/note")
			if kind.engine == "image" {
				r.do("-vol", r.vol, "recover", "-engine", "image")
			} else {
				r.do("-vol", r.vol, "recover", "-wipe")
			}
			if diffs := workload.DiffDigests(want, treeDigest(t, r.vol)); len(diffs) > 0 {
				t.Fatalf("recover: tree differs: %v", diffs[0])
			}
		})
	}
}

// TestOneWayBackDamage: set 1 is a healthy level 0 in a stream file,
// set 2 a newer level 0 that is then damaged where its bytes live. scrub
// names set 2 in a finding and exits non-zero; scrub -mark journals it
// (and only it) damaged; plan then routes around it to set 1.
func TestOneWayBackDamage(t *testing.T) {
	flip := func(t *testing.T, path string, at func(size int) int) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[at(len(data))] ^= 0xFF
		if err := os.WriteFile(path, data, 0644); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range []struct {
		name   string
		dedup  bool
		damage func(t *testing.T, media string)
		kind   scrub.FindingKind
	}{
		// The header after the stream's leading one: dumpfmt checksums it.
		{"flipped header byte in a stream file", false, func(t *testing.T, media string) {
			flip(t, media, func(int) int { return 4 + dumpfmt.TPBSize + 60 })
		}, scrub.StreamCorrupt},
		{"flipped byte inside a stored chunk", true, func(t *testing.T, media string) {
			flip(t, media, func(size int) int { return size / 2 })
		}, scrub.StreamCorrupt},
		{"missing stream file", false, func(t *testing.T, media string) { os.Remove(media) }, scrub.OrphanSet},
		{"missing chunk store", true, func(t *testing.T, media string) { os.Remove(media) }, scrub.OrphanSet},
	} {
		t.Run(row.name, func(t *testing.T) {
			r := newOneWayRig(t)
			r.do("-vol", r.vol, "dump", "-o", filepath.Join(r.dir, "a"))
			r.put("newer")
			media := filepath.Join(r.dir, "b")
			if row.dedup {
				media = chunkStorePath(r.vol)
				r.do("-vol", r.vol, "dump", "-dedup")
			} else {
				r.do("-vol", r.vol, "dump", "-o", media)
			}
			row.damage(t, media)

			out, err := output(t, "-vol", r.vol, "scrub")
			if err == nil || !strings.Contains(out, row.kind.String()+" set 2") || strings.Contains(out, " set 1") {
				t.Fatalf("scrub: err %v, output:\n%s\nwant a %s finding on set 2 alone", err, out, row.kind)
			}
			if got := health(t, r.vol); got[0] != "ok" || got[1] != "ok" {
				t.Fatalf("scrub without -mark journaled %v", got)
			}
			if _, err := output(t, "-vol", r.vol, "scrub", "-mark"); err == nil {
				t.Fatal("scrub -mark of a damaged set exited zero")
			}
			if got := health(t, r.vol); got[0] != "ok" || got[1] != "damaged" {
				t.Fatalf("after scrub -mark: health %v, want set 2 alone damaged", got)
			}
			out, err = output(t, "-vol", r.vol, "plan")
			if err != nil || !strings.Contains(out, "1. set 1 ") {
				t.Fatalf("plan after the mark: err %v, output:\n%s\nwant the chain routed to set 1", err, out)
			}
			// Its verdict is in: the next pass does not read it again.
			r.do("-vol", r.vol, "scrub")
		})
	}
}

// TestRecoverLooksBeforeItWipes: a plan naming media that cannot be
// opened fails before the volume is reformatted or a stream applied —
// the tree is as it was, not an empty filesystem.
func TestRecoverLooksBeforeItWipes(t *testing.T) {
	for _, dedup := range []bool{false, true} {
		r := newOneWayRig(t)
		r.do("-vol", r.vol, "dump", "-o", filepath.Join(r.dir, "l0"))
		r.put("changed")
		lost := filepath.Join(r.dir, "l1")
		if dedup {
			lost = chunkStorePath(r.vol)
			r.do("-vol", r.vol, "dump", "-dedup", "-level", "1")
		} else {
			r.do("-vol", r.vol, "dump", "-o", lost, "-level", "1")
		}
		before := treeDigest(t, r.vol)
		if err := os.Remove(lost); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-vol", r.vol, "recover", "-wipe"})
		if err == nil || !strings.Contains(err.Error(), lost) {
			t.Fatalf("recover -wipe without %s: %v", lost, err)
		}
		if diffs := workload.DiffDigests(before, treeDigest(t, r.vol)); len(diffs) > 0 {
			t.Fatalf("dedup=%v: a recover that could not open its plan changed the volume: %v", dedup, diffs[0])
		}
		if _, err := os.Stat(lost); err == nil {
			t.Fatalf("the failed open created %s", lost)
		}
	}
}

// FuzzStreamFile writes arbitrary bytes as a stream file and lands it
// as each engine's set, the way every dump and push is cataloged —
// journaled, opened through the opener and read back: no panic, a
// damage verdict, no record buffer larger than the file, and the file
// closed afterwards.
func FuzzStreamFile(f *testing.F) {
	dir := f.TempDir()
	vol := filepath.Join(dir, "home.img")
	for _, args := range [][]string{
		{"-vol", vol, "mkfs", "-blocks", "1024"},
		{"-vol", vol, "fill", "-mb", "1"},
		{"-vol", vol, "dump", "-o", filepath.Join(dir, "d0")},
		{"-vol", vol, "imagedump", "-o", filepath.Join(dir, "i0")},
	} {
		if err := run(args); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []string{"d0", "i0"} {
		data, err := os.ReadFile(filepath.Join(dir, seed))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:min(len(data), 12<<10)]) // a record and a bit: the fuzzer minimises what it keeps
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x03}) // a length prefix asking for 64 MiB, and no payload
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "landed")
		if err := os.WriteFile(path, data, 0644); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, eng := range []catalog.Engine{catalog.Logical, catalog.Image} {
			cat, err := catalog.Open(&catalog.MemStore{})
			if err != nil {
				t.Fatal(err)
			}
			var streams []stream.Source
			open := func(ctx context.Context, ds catalog.DumpSet, damaged func(string, int)) ([]stream.Source, error) {
				streams, err = (&setOpener{cat: cat}).open(ctx, ds, damaged)
				return streams, err
			}
			// The framing costs four bytes a record, so no file carries
			// the stream bytes this record claims: a finding either way.
			ds := catalog.DumpSet{Engine: eng, Bytes: int64(len(data)), Media: []catalog.MediaRef{{Volume: path}}}
			if _, damage, err := engine.Land(ctx, cat, ds, nil, open); err != nil || damage == "" {
				t.Fatalf("%s: %d bytes of file landed as %d bytes of stream: damage %q, %v", eng, len(data), ds.Bytes, damage, err)
			}
			if len(streams) != 1 {
				t.Fatalf("open: %d streams", len(streams))
			}
			file := streams[0].(*fileSource)
			// Every record the file can yield fits in the file.
			for probe, _ := openStream(path); ; {
				rec, err := probe.ReadRecord()
				if err != nil {
					probe.Close()
					break
				}
				if len(rec) > len(data) {
					t.Fatalf("a %d-byte file yielded a %d-byte record", len(data), len(rec))
				}
			}
			if _, err := file.f.Seek(0, io.SeekCurrent); !errors.Is(err, os.ErrClosed) {
				t.Fatalf("%s: stream file still open after verification: %v", eng, err)
			}
		}
	})
}
