package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ndmp"
	"repro/internal/sched"
	"repro/internal/transport"
)

// mkVol creates a small volume with one known file under dir.
func mkVol(t *testing.T, dir, name, payload string) string {
	t.Helper()
	vol := filepath.Join(dir, name+".img")
	hostFile := filepath.Join(dir, name+".txt")
	if err := os.WriteFile(hostFile, []byte(payload), 0644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-vol", vol, "mkfs", "-blocks", "2048"},
		{"-vol", vol, "fill", "-mb", "1"},
		{"-vol", vol, "put", hostFile, "/docs/" + name + ".txt"},
	} {
		if err := run(args); err != nil {
			t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
		}
	}
	return vol
}

// TestTransportServeConcurrentPushes runs two tenants' pushes at the
// same time against a single serve on a two-drive pool: both must
// complete, land in tenant-separated stream files and catalogs, and
// verify against their own volumes. Run under -race this doubles as
// the registry's data-race proof: two connection goroutines mutate
// shared host state throughout.
func TestTransportServeConcurrentPushes(t *testing.T) {
	dir := t.TempDir()
	volA := mkVol(t, dir, "alpha", "tenant alpha payload\n")
	volB := mkVol(t, dir, "beta", "tenant beta payload\n")
	base := filepath.Join(dir, "landing.dump")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewDrivePool(sched.DrivePoolConfig{Drives: 2})
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serveOn(l, base, "", false, 5*time.Second, nil, pool)
	}()

	var wg sync.WaitGroup
	pushErr := make([]error, 2)
	for i, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func(i int, tenant, vol string) {
			defer wg.Done()
			pushErr[i] = run([]string{"-vol", vol, "push",
				"-to", l.Addr().String(), "-tenant", tenant})
		}(i, tenant, map[int]string{0: volA, 1: volB}[i])
	}
	wg.Wait()
	for i, err := range pushErr {
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	l.Close()
	select {
	case <-serveDone: // accept error from the closed listener
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after listener close")
	}

	// Each tenant's stream landed in its own namespace and restores
	// that tenant's data — cross-tenant bleed would fail verify.
	for _, c := range []struct{ tenant, vol, file string }{
		{"alpha", volA, "docs/alpha.txt"},
		{"beta", volB, "docs/beta.txt"},
	} {
		landed := base + "@" + c.tenant
		if _, err := os.Stat(landed); err != nil {
			t.Fatalf("tenant %s stream file: %v", c.tenant, err)
		}
		for _, args := range [][]string{
			{"-vol", c.vol, "verify", "-i", landed},
			{"-vol", c.vol, "rm", "/" + c.file},
			{"-vol", c.vol, "restore", "-i", landed, "-file", c.file},
			{"-vol", c.vol, "cat", "/" + c.file},
		} {
			if err := run(args); err != nil {
				t.Fatalf("backupctl %s: %v", strings.Join(args, " "), err)
			}
		}
		sets := volSets(t, landed)
		if len(sets) != 1 || sets[0].FSID != c.vol {
			t.Fatalf("tenant %s catalog: %d sets, %+v", c.tenant, len(sets), sets)
		}
	}
	if st := pool.Stats(); st.Granted != 2 || st.Released != 2 {
		t.Fatalf("drive pool stats %+v, want 2 granted / 2 released", st)
	}
}

// TestTransportServeAbortedSessionNotCataloged drops one client's
// connection mid-session (no MsgClose) and then completes a second
// client's push cleanly. Only the clean session's streams may be
// cataloged: the aborted session's partial stream file must never
// ride another client's close into the catalog as a completed dump.
func TestTransportServeAbortedSessionNotCataloged(t *testing.T) {
	dir := t.TempDir()
	vol := mkVol(t, dir, "clean", "surviving payload\n")
	base := filepath.Join(dir, "landing.dump")

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- serveOn(l, base, "", true, 5*time.Second, nil, nil)
	}()

	// Client 1: hello + a few durable records, then the TCP connection
	// dies with the session still open. As the tenant's first session
	// it owns the plain base path.
	var raw net.Conn
	dial := func() (transport.Conn, error) {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		raw = c
		return transport.NewNetConn(c), nil
	}
	sess, err := ndmp.Dial(dial, ndmp.Config{
		Kind: ndmp.KindLogical, Session: 0xAB0F7, Window: 4,
		DeadAfter: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sess.WriteRecord([]byte(fmt.Sprintf("aborted record %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Sync(); err != nil {
		t.Fatal(err)
	}
	raw.Close() // mid-session drop: no Close, no CloseAck

	// Client 2: a full push that closes cleanly and, in -once mode,
	// lets the serve return after cataloging.
	if err := run([]string{"-vol", vol, "push", "-to", l.Addr().String()}); err != nil {
		t.Fatalf("clean push: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not finish after the clean close")
	}

	// The aborted session's partial file exists (owning the plain base
	// path) but the catalog records exactly the clean session's stream,
	// which landed beside it under an .x<session> disambiguator.
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("aborted partial stream file: %v", err)
	}
	sets := volSets(t, base)
	if len(sets) != 1 {
		t.Fatalf("catalog has %d sets, want only the clean session's", len(sets))
	}
	if len(sets[0].Media) != 1 || sets[0].Media[0].Volume == base ||
		!strings.HasPrefix(sets[0].Media[0].Volume, base+".x") {
		t.Fatalf("cataloged media %+v points at the aborted stream", sets[0].Media)
	}
	if sets[0].FSID != vol {
		t.Fatalf("cataloged set %+v", sets[0])
	}
}
