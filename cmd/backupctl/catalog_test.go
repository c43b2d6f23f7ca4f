package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/dumpfmt"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/ndmp"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// readVol mounts a volume image and reads one file from its active view.
func readVol(t *testing.T, vol, path string) ([]byte, error) {
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
	return fs.ActiveView().ReadFile(ctx, path)
}

// volSets replays the volume's catalog journal.
func volSets(t *testing.T, vol string) []catalog.DumpSet {
	t.Helper()
	store, err := catalog.OpenFileStore(catalogPath(vol))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cat, err := catalog.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return cat.Sets()
}

// TestCatalogRecoverCLI is the acceptance flow: a level-0 dump and two
// incrementals are recorded in <vol>.catalog as a side effect of
// dumping, and recover selects and executes the right chain for a
// target time and for a single file — no manual media list.
func TestCatalogRecoverCLI(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil { // image -file extraction writes into cwd
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	do := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	mustFail := func(args ...string) {
		t.Helper()
		if err := run(args); err == nil {
			t.Fatalf("backupctl %s succeeded, want error", strings.Join(args, " "))
		}
	}
	put := func(fsPath, content string) {
		t.Helper()
		host := filepath.Join(dir, "stage.txt")
		if err := os.WriteFile(host, []byte(content), 0644); err != nil {
			t.Fatal(err)
		}
		do("-vol", vol, "put", host, fsPath)
	}
	wantFile := func(fsPath, content string) {
		t.Helper()
		data, err := readVol(t, vol, fsPath)
		if err != nil {
			t.Fatalf("read %s: %v", fsPath, err)
		}
		if string(data) != content {
			t.Fatalf("%s = %q, want %q", fsPath, data, content)
		}
	}

	do("-vol", vol, "mkfs", "-blocks", "4096")
	put("/docs/a.txt", "alpha v1")
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "d0"))
	put("/docs/a.txt", "alpha v2")
	put("/docs/b.txt", "beta v1")
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "d1"), "-level", "1")
	do("-vol", vol, "rm", "/docs/b.txt")
	put("/docs/a.txt", "alpha v3")
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "d2"), "-level", "2")

	sets := volSets(t, vol)
	if len(sets) != 3 {
		t.Fatalf("catalog has %d sets, want 3", len(sets))
	}
	for i, wantLevel := range []int32{0, 1, 2} {
		if sets[i].Engine != catalog.Logical || sets[i].Level != wantLevel {
			t.Fatalf("set %d: engine %v level %d, want logical level %d",
				i, sets[i].Engine, sets[i].Level, wantLevel)
		}
	}
	if !(sets[0].Date < sets[1].Date && sets[1].Date < sets[2].Date) {
		t.Fatalf("dates not increasing: %d %d %d", sets[0].Date, sets[1].Date, sets[2].Date)
	}

	// Recover the mid-chain state by time: full + level 1, no level 2.
	midAt := strconv.FormatInt(sets[1].Date, 10)
	do("-vol", vol, "plan", "-at", midAt)
	do("-vol", vol, "recover", "-at", midAt)
	wantFile("/docs/a.txt", "alpha v2")
	wantFile("/docs/b.txt", "beta v1")

	// Recover the latest state: the level-2 incremental's deletions apply.
	do("-vol", vol, "recover")
	wantFile("/docs/a.txt", "alpha v3")
	if _, err := readVol(t, vol, "/docs/b.txt"); err == nil {
		t.Fatal("/docs/b.txt survived recovery past its deletion")
	}

	// -wipe reformats first (disaster recovery), then replays the chain.
	do("-vol", vol, "recover", "-wipe")
	wantFile("/docs/a.txt", "alpha v3")

	// Single-file recovery from an earlier time prunes the chain to the
	// one set holding the file, leaving everything else alone.
	do("-vol", vol, "recover", "-at", midAt, "-file", "docs/a.txt")
	wantFile("/docs/a.txt", "alpha v2")

	// Image engine: full + incremental, recovered by generation.
	do("-vol", vol, "imagedump", "-o", filepath.Join(dir, "i0"), "-snap", "s0")
	put("/docs/a.txt", "alpha v4")
	do("-vol", vol, "imagedump", "-o", filepath.Join(dir, "i1"), "-snap", "s1", "-base", "s0")
	sets = volSets(t, vol)
	img := sets[len(sets)-2:]
	if img[0].Engine != catalog.Image || img[1].Engine != catalog.Image {
		t.Fatalf("tail sets not image: %+v", img)
	}
	if img[1].BaseGen != img[0].Gen {
		t.Fatalf("incremental base gen %d, want %d", img[1].BaseGen, img[0].Gen)
	}

	put("/docs/a.txt", "alpha v5") // never dumped; image recovery discards it
	do("-vol", vol, "recover", "-engine", "image")
	wantFile("/docs/a.txt", "alpha v4")

	// Image single-file recovery extracts offline, touching no volume.
	do("-vol", vol, "recover", "-engine", "image", "-file", "/docs/a.txt")
	data, err := os.ReadFile(filepath.Join(dir, "docs_a.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "alpha v4" {
		t.Fatalf("extracted %q, want %q", data, "alpha v4")
	}

	// Retention: expiring the full breaks the logical chain until the
	// operator explicitly reaches for expired media.
	do("-vol", vol, "catalog", "-expire", "1", "-now", "99")
	mustFail("-vol", vol, "plan", "-at", midAt)
	do("-vol", vol, "plan", "-at", midAt, "-expired")
	do("-vol", vol, "recover", "-at", midAt, "-expired")
	wantFile("/docs/a.txt", "alpha v2")

	// The catalog listing and help surfaces work.
	do("-vol", vol, "catalog")
	do("-vol", vol, "catalog", "-media")
	do("-vol", vol, "catalog", "-files", "2")
	do("help")
	do("help", "recover")
	mustFail("help", "nosuchcommand")
	mustFail("-vol", vol, "plan", "-engine", "bogus")
	mustFail("plan") // no -vol
}

// dyingSink loses its stream after left records, as a push's link does.
type dyingSink struct {
	stream.Sink
	left int
}

var errLinkDied = errors.New("test: link died")

func (d *dyingSink) WriteRecord(rec []byte) error {
	if d.left == 0 {
		return errLinkDied
	}
	d.left--
	return d.Sink.WriteRecord(rec)
}

// pushResumed dumps vol with eng the way a push that lost its stream
// once lands: the first stream file (base) dies partway, past a
// checkpoint, and the engine resumes onto a second (base.s1). It
// returns the two landed streams, as the host hands them to serve.
func pushResumed(t *testing.T, vol, base string, eng catalog.Engine) []ndmp.StreamEnd {
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
	hello, left := ndmp.Hello{Kind: ndmp.KindLogical, FSID: vol}, 30
	var job *engine.Dump
	if eng == catalog.Logical {
		var release func()
		if job, release, err = logicalJob(ctx, fs, "s0", logical.DumpOptions{FSID: vol, CheckpointEvery: 8}); err != nil {
			t.Fatal(err)
		}
		defer release()
	} else {
		if err := fs.CreateSnapshot(ctx, "s0"); err != nil {
			t.Fatal(err)
		}
		job = engine.NewImage(physical.DumpOptions{FS: fs, Vol: dev, SnapName: "s0", CheckpointEvery: 64})
		hello, left = ndmp.Hello{Kind: ndmp.KindImage, FSID: vol, Level: -1}, 6
	}
	var landed []ndmp.StreamEnd
	resumes, err := engine.Resume(ctx, job, 2, func(attempt int) (stream.Sink, func(error) error, error) {
		path := streamPath(base, attempt)
		file, err := createStream(path, os.O_TRUNC)
		if err != nil {
			return nil, nil, err
		}
		hello.Stream = attempt
		landed = append(landed, ndmp.StreamEnd{Hello: hello, Sink: file})
		var sink stream.Sink = file
		if attempt == 0 {
			sink = &dyingSink{Sink: file, left: left}
		}
		return sink, func(err error) error {
			file.Close()
			return err
		}, nil
	}, func(err error) bool { return errors.Is(err, errLinkDied) })
	if err != nil || resumes != 1 {
		t.Fatalf("dump: %d resumes, err %v; want one resume", resumes, err)
	}
	return landed
}

// landedAt is the host's record of a stream serve landed in the file
// at path: its Hello, its (closed) stream-file sink and the record bytes
// the session accepted into it.
func landedAt(t *testing.T, hello ndmp.Hello, path string, bytes int64) ndmp.StreamEnd {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	return ndmp.StreamEnd{Hello: hello, Sink: &fileSink{f: f}, Bytes: bytes}
}

// landResumed journals a resumed push's streams through recordReceived
// into vol's catalog, exactly as serve records one, and returns the set:
// one Resumed set over the two stream files.
func landResumed(t *testing.T, vol string, landed []ndmp.StreamEnd) catalog.DumpSet {
	t.Helper()
	if err := recordReceived(context.Background(), vol, landed); err != nil {
		t.Fatal(err)
	}
	sets := volSets(t, vol)
	if len(sets) != 1 || sets[0].Engine != catalog.Engine(landed[0].Hello.Kind) || !sets[0].Resumed || len(sets[0].Media) != 2 {
		t.Fatalf("journaled sets %+v, want one resumed set over two files", sets)
	}
	return sets[0]
}

// TestCatalogRecoverResumedImageSet: an image dump whose first stream
// dies mid-way and is resumed onto a second lands in the catalog as one
// Resumed set over two stream files, exactly as serve records a resumed
// push. recover -engine image must rebuild the volume from it: the torn
// first file salvaged, the second applied on top, one step.
func TestCatalogRecoverResumedImageSet(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	do := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	put := func(content string) {
		t.Helper()
		host := filepath.Join(dir, "stage.txt")
		if err := os.WriteFile(host, []byte(content), 0644); err != nil {
			t.Fatal(err)
		}
		do("-vol", vol, "put", host, "/docs/a.txt")
	}
	do("-vol", vol, "mkfs", "-blocks", "4096")
	do("-vol", vol, "fill", "-mb", "2")
	put("dumped")
	landResumed(t, vol, pushResumed(t, vol, filepath.Join(dir, "img"), catalog.Image))

	put("written after the dump")
	do("-vol", vol, "recover", "-engine", "image")
	data, err := readVol(t, vol, "/docs/a.txt")
	if err != nil || string(data) != "dumped" {
		t.Fatalf("after recover: /docs/a.txt = %q, %v; want the dumped content", data, err)
	}
	do("-vol", vol, "fsck")
}

// TestRestoreSetTakesResumedSet: restore -set and imagerestore -set
// apply a resumed set — one set over two stream files, as serve records
// a resumed push — the way recover does, every stream but the last
// salvaged: the tree they rebuild is the one recover rebuilds from the
// same set, the dumped one.
func TestRestoreSetTakesResumedSet(t *testing.T) {
	for _, eng := range []catalog.Engine{catalog.Logical, catalog.Image} {
		t.Run(eng.String(), func(t *testing.T) {
			r := newOneWayRig(t)
			r.put("dumped")
			landResumed(t, r.vol, pushResumed(t, r.vol, filepath.Join(r.dir, "pushed"), eng))
			want := treeDigest(t, r.vol)

			clone := filepath.Join(r.dir, "clone.img")
			if eng == catalog.Image {
				r.do("-vol", clone, "imagerestore", "-set", "1", "-from", r.vol)
			} else {
				r.do("-vol", clone, "mkfs", "-blocks", "4096")
				r.do("-vol", clone, "restore", "-set", "1", "-from", r.vol)
			}
			r.put("written after the dump")
			if eng == catalog.Image {
				r.do("-vol", r.vol, "recover", "-engine", "image")
			} else {
				r.do("-vol", r.vol, "recover", "-wipe")
			}
			recovered := treeDigest(t, r.vol)
			if diffs := workload.DiffDigests(want, recovered); len(diffs) > 0 {
				t.Fatalf("recover: tree differs from the dumped one: %v", diffs[0])
			}
			if diffs := workload.DiffDigests(recovered, treeDigest(t, clone)); len(diffs) > 0 {
				t.Fatalf("restore -set: tree differs from recover's: %v", diffs[0])
			}
		})
	}
}

// TestRecordReceivedVerifiesResumedSet: a resumed push is read back on
// landing like any other — through its last stream, the one complete
// by construction (the first is torn by design). One flipped byte there
// catalogs the set damaged, for either engine; untouched, it lands
// healthy.
func TestRecordReceivedVerifiesResumedSet(t *testing.T) {
	for _, eng := range []catalog.Engine{catalog.Logical, catalog.Image} {
		for _, flip := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s flipped=%v", eng, flip), func(t *testing.T) {
				r := newOneWayRig(t)
				landed := pushResumed(t, r.vol, filepath.Join(r.dir, "pushed"), eng)
				last := landed[len(landed)-1].Sink.(*fileSink).f.Name()
				data, err := os.ReadFile(last)
				if err != nil {
					t.Fatal(err)
				}
				if flip {
					// Past the leading header ScanSet needs whole: the
					// logical stream's next header, the image stream's middle.
					at := 4 + dumpfmt.TPBSize + 60
					if eng == catalog.Image {
						at = len(data) / 2
					}
					data[at] ^= 0xFF
					if err := os.WriteFile(last, data, 0644); err != nil {
						t.Fatal(err)
					}
				}
				set := landResumed(t, r.vol, landed)
				want := map[bool]string{false: "ok", true: "damaged"}[flip]
				if got := health(t, r.vol); len(got) != 1 || got[0] != want {
					t.Fatalf("resumed set %d cataloged %v, want %s", set.ID, got, want)
				}
			})
		}
	}
}

// TestRecordReceivedRejectsUnknownKind: the stream kind is an
// unvalidated wire byte. A push announcing a kind that names no engine
// must be refused, never journaled: the catalog's decoder rejects the
// engine, so one such record would make every later open of the
// tenant's acknowledged history fail.
func TestRecordReceivedRejectsUnknownKind(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	out := filepath.Join(dir, "d0")
	for _, args := range [][]string{
		{"-vol", vol, "mkfs", "-blocks", "2048"},
		{"-vol", vol, "fill", "-mb", "1"},
		{"-vol", vol, "dump", "-o", out},
	} {
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	base := filepath.Join(dir, "recv")
	for _, kind := range []byte{0, 3} {
		landed := []ndmp.StreamEnd{landedAt(t, ndmp.Hello{Kind: kind, FSID: vol}, out, 0)}
		if err := recordReceived(context.Background(), base, landed); err == nil {
			t.Fatalf("kind %d: journaled a set with no engine", kind)
		}
	}
	landed := []ndmp.StreamEnd{landedAt(t, ndmp.Hello{Kind: ndmp.KindLogical, FSID: vol}, out, 0)}
	if err := recordReceived(context.Background(), base, landed); err != nil {
		t.Fatalf("catalog unusable after the refused kinds: %v", err)
	}
	if sets := volSets(t, base); len(sets) != 1 || sets[0].Engine != catalog.Logical {
		t.Fatalf("journaled sets %+v, want the one logical set", sets)
	}
}

// TestRecordReceivedVerifiesLandedSet: a pushed set is cataloged only
// after this host has read it back. The sender's word — a clean Close,
// the byte count the session accepted — is not enough: a landed file
// that lost its tail mid-record, or carries a flipped byte where the
// format has a checksum over it, is journaled damaged so plan routes
// around it; an intact one is healthy. (An image stream is CRC-covered
// end to end; a logical stream, like BSD dump's, checksums its headers
// and not the file data between them.)
func TestRecordReceivedVerifiesLandedSet(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	dump, image := filepath.Join(dir, "d0"), filepath.Join(dir, "i0")
	for _, args := range [][]string{
		{"-vol", vol, "mkfs", "-blocks", "2048"},
		{"-vol", vol, "fill", "-mb", "1"},
		{"-vol", vol, "dump", "-o", dump},
		{"-vol", vol, "imagedump", "-o", image},
	} {
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	for _, eng := range []struct {
		kind   byte
		file   string
		flipAt func(n int) int
	}{
		// The header after the stream's leading one (which ScanSet
		// needs whole to build the record at all).
		{ndmp.KindLogical, dump, func(int) int { return 4 + dumpfmt.TPBSize + 60 }},
		{ndmp.KindImage, image, func(n int) int { return n / 2 }},
	} {
		whole, err := os.ReadFile(eng.file)
		if err != nil {
			t.Fatal(err)
		}
		// What the session accepted: the records' bytes, without the
		// length prefixes the stream file frames them in.
		var accepted int64
		src, err := openStream(eng.file)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rec, err := src.ReadRecord()
			if err != nil {
				break
			}
			accepted += int64(len(rec))
		}
		flipped := append([]byte(nil), whole...)
		flipped[eng.flipAt(len(flipped))] ^= 0xFF

		base := filepath.Join(dir, fmt.Sprintf("recv%d", eng.kind))
		for i, c := range []struct {
			name   string
			landed []byte
			health string
		}{
			{"intact", whole, "ok"},
			{"truncated mid-record", whole[:len(whole)*2/3+1], "damaged"},
			{"flipped byte", flipped, "damaged"},
		} {
			name := fmt.Sprintf("%s %s", catalog.Engine(eng.kind), c.name)
			path := fmt.Sprintf("%s.landed%d", base, i)
			if err := os.WriteFile(path, c.landed, 0644); err != nil {
				t.Fatal(err)
			}
			landed := []ndmp.StreamEnd{landedAt(t, ndmp.Hello{Kind: eng.kind, FSID: vol}, path, accepted)}
			if err := recordReceived(context.Background(), base, landed); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			store, err := catalog.OpenFileStore(catalogPath(base))
			if err != nil {
				t.Fatal(err)
			}
			cat, err := catalog.Open(store)
			store.Close()
			if err != nil {
				t.Fatal(err)
			}
			sets := cat.Sets()
			if len(sets) != i+1 {
				t.Fatalf("%s: %d sets journaled, want %d (a damaged set is recorded, not dropped)", name, len(sets), i+1)
			}
			reason, _ := cat.Damaged(sets[i].ID)
			if got := cat.HealthLabel(sets[i].ID); got != c.health {
				t.Fatalf("%s: cataloged %q (%s), want %q", name, got, reason, c.health)
			}
			if c.health == "damaged" && !strings.HasPrefix(reason, "ingest: ") {
				t.Fatalf("%s: damage reason %q does not say where it was found", name, reason)
			}
		}
	}
}
