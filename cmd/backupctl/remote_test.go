package main

import (
	"context"
	"crypto/sha256"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wafl"
	"repro/internal/workload"
)

// serveOnce runs serve in-process on an ephemeral port, writing what it
// receives to out, until one session closes cleanly and is cataloged;
// wait blocks until then.
func serveOnce(t *testing.T, out string) (addr string, wait func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		defer l.Close()
		done <- serveOn(l, out, "", true, 5*time.Second, nil, nil)
	}()
	return l.Addr().String(), func() {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("serve did not finish")
		}
	}
}

// TestTransportServePush runs the remote backup path end to end over
// real TCP on the loopback interface: a serve process receives both a
// logical and an image push, and the stream files it writes verify
// and restore exactly like locally-dumped ones.
func TestTransportServePush(t *testing.T) {
	dir := t.TempDir()
	// The space is deliberate: the volume path is the FSID in the wire
	// Hello, the catalog and the .dumpdates history.
	vol := filepath.Join(dir, "home vol.img")
	clone := filepath.Join(dir, "clone.img")
	hostFile := filepath.Join(dir, "payload.txt")
	payload := []byte("remote backup payload\n")
	if err := os.WriteFile(hostFile, payload, 0644); err != nil {
		t.Fatal(err)
	}

	do := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}

	do("-vol", vol, "mkfs", "-blocks", "4096")
	do("-vol", vol, "fill", "-mb", "2")
	do("-vol", vol, "put", hostFile, "/docs/payload.txt")

	// Logical push: the received stream verifies against the live tree
	// and restores a deleted file.
	remoteDump := filepath.Join(dir, "remote.dump")
	addr, wait := serveOnce(t, remoteDump)
	do("-vol", vol, "push", "-to", addr)
	wait()
	do("-vol", vol, "verify", "-i", remoteDump)
	do("-vol", vol, "rm", "/docs/payload.txt")
	do("-vol", vol, "restore", "-i", remoteDump, "-file", "docs/payload.txt")
	do("-vol", vol, "cat", "/docs/payload.txt")

	// Push records its own dump dates beside the volume.
	if _, err := os.Stat(vol + ".dumpdates"); err != nil {
		t.Fatalf("push did not persist dump dates: %v", err)
	}

	// A level-1 push bases itself on that file alone — push has no
	// catalog to fall back on — so it must send only the churn since
	// the level 0, and record itself beside it.
	do("-vol", vol, "put", hostFile, "/docs/second.txt")
	remoteIncr := filepath.Join(dir, "remote.l1.dump")
	addr, wait = serveOnce(t, remoteIncr)
	do("-vol", vol, "push", "-to", addr, "-level", "1")
	wait()
	full, err := os.Stat(remoteDump)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := os.Stat(remoteIncr)
	if err != nil {
		t.Fatal(err)
	}
	if incr.Size()*4 > full.Size() {
		t.Fatalf("level-1 push sent %d bytes against a %d-byte level 0: not an incremental", incr.Size(), full.Size())
	}
	dates, _ := loadDates(vol)
	if es := dates.Entries(); len(es) != 2 || es[0].Level != 0 || es[1].Level != 1 || es[1].Date <= es[0].Date {
		t.Fatalf("dump dates after level 0 + level 1: %+v", es)
	}

	// The server catalogs the received stream from the wire Hello and
	// the stream's own header: engine, fsid, level and dump date.
	logSets := volSets(t, remoteDump)
	if len(logSets) != 1 {
		t.Fatalf("server catalog has %d sets, want 1", len(logSets))
	}
	if logSets[0].Engine != catalog.Logical || logSets[0].FSID != vol ||
		logSets[0].Level != 0 || logSets[0].Date == 0 {
		t.Fatalf("server-side set %+v", logSets[0])
	}
	if len(logSets[0].Media) != 1 || logSets[0].Media[0].Volume != remoteDump {
		t.Fatalf("server-side media %+v", logSets[0].Media)
	}

	// Image push: the received stream verifies offline and restores to
	// a byte-equivalent clone volume.
	remoteImg := filepath.Join(dir, "remote.stream")
	addr, wait = serveOnce(t, remoteImg)
	do("-vol", vol, "push", "-to", addr, "-kind", "image")
	wait()
	do("imageverify", "-i", remoteImg)
	do("-vol", clone, "imagerestore", "-i", remoteImg)
	do("-vol", clone, "fsck")
	do("-vol", clone, "cat", "/docs/payload.txt")

	imgSets := volSets(t, remoteImg)
	if len(imgSets) != 1 || imgSets[0].Engine != catalog.Image ||
		imgSets[0].Gen == 0 || imgSets[0].NBlocks == 0 {
		t.Fatalf("server-side image sets %+v", imgSets)
	}

	// Error paths.
	if err := run([]string{"-vol", vol, "push"}); err == nil {
		t.Fatal("push without -to succeeded")
	}
	if err := run([]string{"-vol", vol, "push", "-to", addr, "-kind", "nope"}); err == nil {
		t.Fatal("push with bad -kind succeeded")
	}
	if err := run([]string{"serve"}); err == nil {
		t.Fatal("serve without -o succeeded")
	}
}

// TestDumpDatesPerDestination: a local dump and a push keep separate
// dump-date histories, so an incremental to one destination never
// bases itself on a dump that only the other received. Either order,
// the first incremental each destination sees is a full dump, and its
// catalog plans a chain from what it holds.
func TestDumpDatesPerDestination(t *testing.T) {
	dir := t.TempDir()
	do := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	newVol := func(name string) string {
		vol := filepath.Join(dir, name)
		do("-vol", vol, "mkfs", "-blocks", "2048")
		do("-vol", vol, "fill", "-mb", "1")
		return vol
	}
	// full checks the one set in the catalog beside base is a full dump
	// of vol, and that the catalog plans vol's chain.
	full := func(base, vol string) {
		t.Helper()
		sets := volSets(t, base)
		if len(sets) != 1 || sets[0].BaseDate != 0 {
			t.Fatalf("catalog beside %s: %+v, want one set with base date 0", filepath.Base(base), sets)
		}
		cat, done, err := openCatalog(base)
		if err != nil {
			t.Fatal(err)
		}
		defer done()
		if _, err := cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: vol}); err != nil {
			t.Fatalf("plan from the catalog beside %s: %v", filepath.Base(base), err)
		}
	}

	// A level-0 push, then a local level-1 dump: the local catalog has
	// no level 0 to base on.
	vol := newVol("pushed.img")
	addr, wait := serveOnce(t, filepath.Join(dir, "pushed.l0.dump"))
	do("-vol", vol, "push", "-to", addr, "-level", "0")
	wait()
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "pushed.l1.dump"), "-level", "1")
	full(vol, vol)

	// A local level-0 dump, then a level-1 push: the host never
	// received that level 0.
	vol = newVol("dumped.img")
	do("-vol", vol, "dump", "-o", filepath.Join(dir, "dumped.l0.dump"), "-level", "0")
	remote := filepath.Join(dir, "dumped.l1.dump")
	addr, wait = serveOnce(t, remote)
	do("-vol", vol, "push", "-to", addr, "-level", "1")
	wait()
	full(remote, vol)
	if _, err := os.Stat(vol + ".dumpdates"); err != nil {
		t.Fatalf("push did not record its own dump dates: %v", err)
	}
}

// TestTransportPushDeadReceiver points a push at a listener that
// accepts and then black-holes every byte: the session must declare
// the peer dead within its configured deadline and surface a typed
// error instead of hanging.
func TestTransportPushDeadReceiver(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	if err := run([]string{"-vol", vol, "mkfs", "-blocks", "2048"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-vol", vol, "fill", "-mb", "1"}); err != nil {
		t.Fatal(err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// Read and discard so the client's sends succeed, but never
			// answer — the hello itself goes unacknowledged.
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	start := time.Now()
	err = run([]string{"-vol", vol, "push", "-to", l.Addr().String(),
		"-dead", "500ms", "-max-resumes", "0"})
	if err == nil {
		t.Fatal("push to a mute receiver succeeded")
	}
	if elapsed := time.Since(start); elapsed > 25*time.Second {
		t.Fatalf("dead receiver took %v to surface", elapsed)
	}
	t.Logf("push failed as expected after %v: %v", time.Since(start), err)
}

// TestServeIndexesPushedChain: a pushed logical set lands with the file
// index its stream yields, so a single-file plan over a serve catalog
// prunes a pushed chain the way it prunes a local one. A level 0 and two
// incrementals are pushed over TCP, the file changing only before the
// second incremental: the plan for it is that one set, and recovering
// it through the catalog's opener gives the pushed content back. Each
// push lands in a stream file of its own, so the whole chain recovers
// to the volume's tree too (when each session's first stream took the
// -o path, the level 0's file held the level 2's stream).
func TestServeIndexesPushedChain(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	do := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	put := func(path string, seed int64) []byte {
		t.Helper()
		content := make([]byte, 20<<10)
		rand.New(rand.NewSource(seed)).Read(content)
		host := filepath.Join(dir, "stage")
		if err := os.WriteFile(host, content, 0644); err != nil {
			t.Fatal(err)
		}
		do("-vol", vol, "put", host, path)
		return content
	}
	do("-vol", vol, "mkfs", "-blocks", "4096")
	do("-vol", vol, "fill", "-mb", "2")
	put("/docs/f.txt", 1)
	base := filepath.Join(dir, "recv.dump")
	var want []byte
	for level, change := range []func(){
		func() {},
		func() { put("/docs/g.txt", 2) },
		func() { want = put("/docs/f.txt", 3) },
	} {
		change()
		addr, wait := serveOnce(t, base)
		do("-vol", vol, "push", "-to", addr, "-level", strconv.Itoa(level))
		wait()
	}

	cat, done, err := openCatalog(base)
	if err != nil {
		t.Fatal(err)
	}
	defer done()
	plan, err := cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: vol, File: "/docs/f.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if sets := cat.Sets(); len(plan.Steps) != 1 || len(sets) != 3 || plan.Steps[0].ID != sets[2].ID {
		t.Fatalf("plan for one file over a pushed chain of %d sets:\n%s", len(cat.Sets()), plan)
	}
	fs, err := wafl.Mkfs(ctx, storage.NewMemDevice(4096), nil, wafl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opener := &setOpener{cat: cat, vol: base}
	defer opener.Close()
	if _, err := engine.Recover(ctx, plan, engine.Target{FS: fs}, opener.open, nil); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ActiveView().ReadFile(ctx, "/docs/f.txt")
	if err != nil || sha256.Sum256(got) != sha256.Sum256(want) {
		t.Fatalf("recovered /docs/f.txt: %d bytes, %v; want the %d bytes pushed last", len(got), err, len(want))
	}

	full, err := cat.Plan(catalog.PlanOptions{Engine: catalog.Logical, FSID: vol})
	if err != nil || len(full.Steps) != 3 {
		t.Fatalf("plan of the whole chain: %v, %v", full, err)
	}
	if fs, err = wafl.Mkfs(ctx, storage.NewMemDevice(4096), nil, wafl.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Recover(ctx, full, engine.Target{FS: fs}, opener.open, nil); err != nil {
		t.Fatalf("recovering the pushed chain: %v", err)
	}
	tree, err := workload.TreeDigest(ctx, fs.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if diffs := workload.DiffDigests(treeDigest(t, vol), tree); len(diffs) > 0 {
		t.Fatalf("the recovered chain differs from the volume in %d paths: %v", len(diffs), diffs[:min(len(diffs), 5)])
	}
}

// TestPushedSetUnits: a pushed set is cataloged with its size, read off
// the landed stream — the files a logical stream holds, the blocks an
// image stream carries — and it is the size a local -o dump of the same
// snapshot catalogs.
func TestPushedSetUnits(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	do := func(args ...string) {
		t.Helper()
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	do("-vol", vol, "mkfs", "-blocks", "4096")
	do("-vol", vol, "fill", "-mb", "2")
	do("-vol", vol, "snap", "create", "nightly")
	for _, kind := range []struct{ name, dump, snap string }{
		{"logical", "dump", ""}, // a logical dump snapshots the tree itself
		{"image", "imagedump", "nightly"},
	} {
		local, pushed := filepath.Join(dir, kind.name+".local"), filepath.Join(dir, kind.name+".pushed")
		args := []string{"-vol", vol, "push", "-kind", kind.name}
		if kind.snap != "" {
			do("-vol", vol, kind.dump, "-snap", kind.snap, "-o", local)
			args = append(args, "-snap", kind.snap)
		} else {
			do("-vol", vol, kind.dump, "-o", local)
		}
		sets := volSets(t, vol)
		addr, wait := serveOnce(t, pushed)
		do(append(args, "-to", addr)...)
		wait()
		want, got := sets[len(sets)-1], volSets(t, pushed)
		if len(got) != 1 || want.Units == 0 || got[0].Units != want.Units {
			t.Fatalf("%s: pushed sets %+v, want one of %d units like the local dump", kind.name, got, want.Units)
		}
	}
}
