package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ndmp"
	"repro/internal/transport"
)

// pushTo runs one serve session on base — mirrored to standby unless it
// is "" — and pushes vol into it with the extra push flags args.
func pushTo(t *testing.T, vol, base, standby string, args ...string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() { served <- serveOn(l, base, standby, true, 5*time.Second, nil, nil) }()
	if err := run(append([]string{"-vol", vol, "push", "-to", l.Addr().String()}, args...)); err != nil {
		t.Fatalf("push %v: %v", args, err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not finish")
	}
}

// flipByte xors one byte of the file at path.
func flipByte(t *testing.T, path string, at int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[at] ^= 0xFF
	if err := os.WriteFile(path, buf, 0644); err != nil {
		t.Fatal(err)
	}
}

// listedSets runs `catalog` on base and returns its set lines.
func listedSets(t *testing.T, base string) []string {
	t.Helper()
	out, err := output(t, "-vol", base, "catalog")
	if err != nil {
		t.Fatalf("catalog: %v\n%s", err, out)
	}
	var sets []string
	for _, line := range strings.Split(out, "\n") {
		if line != "" && line[0] >= '0' && line[0] <= '9' {
			sets = append(sets, line)
		}
	}
	return sets
}

// TestCondemnationSurvivesLosingEitherCopy: a verdict journaled on a
// serve base by a command other than serve — scrub -mark condemning a
// set whose landed stream rotted, or catalog -expire retiring one —
// lands in both copies of the mirrored pair, so losing either journal
// file afterwards, restarting serve without -standby and pushing again
// leaves the set condemned (expired). When those commands opened the
// primary alone, losing it brought the set back as healthy.
func TestCondemnationSurvivesLosingEitherCopy(t *testing.T) {
	for _, verdict := range []struct {
		name  string
		args  []string
		label string // what the set's catalog line must then show
	}{
		{"scrub -mark", []string{"scrub", "-mark"}, "damaged"},
		{"catalog -expire", []string{"catalog", "-expire", "1", "-now", "50"}, "expired@50"},
	} {
		for _, victim := range []string{"primary", "standby"} {
			t.Run(verdict.name+", "+victim+" lost", func(t *testing.T) {
				dir := t.TempDir()
				vol := mkVol(t, dir, "home", "condemned payload\n")
				base, standby := filepath.Join(dir, "recv.dump"), filepath.Join(dir, "sb.catalog")
				pushTo(t, vol, base, standby)
				if verdict.label == "damaged" {
					flipByte(t, base, 100) // inside the stream's first header
				}
				if err := run(append([]string{"-vol", base}, verdict.args...)); (err != nil) != (verdict.label == "damaged") {
					t.Fatalf("%s: %v", verdict.name, err)
				}
				lost := catalogPath(base)
				if victim == "standby" {
					lost = standby
				}
				if err := os.Rename(lost, lost+".lost"); err != nil {
					t.Fatal(err)
				}
				pushTo(t, vol, base, "", "-level", "1") // a serve restarted without -standby

				sets := listedSets(t, base)
				if len(sets) != 2 || !slices.Contains(strings.Fields(sets[0]), verdict.label) {
					t.Fatalf("catalog after losing the %s and pushing again:\n%s\nwant set 1 %s and set 2",
						victim, strings.Join(sets, "\n"), verdict.label)
				}
				a, _ := os.ReadFile(catalogPath(base))
				b, _ := os.ReadFile(standby)
				if len(a) == 0 || !bytes.Equal(a, b) {
					t.Fatalf("journals after the second push: primary %d bytes, standby %d bytes, want equal", len(a), len(b))
				}
			})
		}
	}
}

// TestRecordedBaseOpensFromStandby: every command on a base with a
// recorded standby opens the pair. Two dumps journal into it; then, with
// the primary's first frame flipped (nothing of it valid), scrub,
// catalog and plan each work from the standby and see both sets. With
// the primary file gone, fsck still cross-checks the catalog and finds
// the stream file removed with it.
func TestRecordedBaseOpensFromStandby(t *testing.T) {
	dir := t.TempDir()
	vol := mkVol(t, dir, "home", "mirrored payload\n")
	standby := filepath.Join(dir, "sb.catalog")
	if err := bindStandby(vol, standby); err != nil {
		t.Fatal(err)
	}
	d0, d1 := filepath.Join(dir, "d0"), filepath.Join(dir, "d1")
	for _, args := range [][]string{{"dump", "-o", d0}, {"dump", "-o", d1, "-level", "1"}} {
		if err := run(append([]string{"-vol", vol}, args...)); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}
	acked, err := os.ReadFile(catalogPath(vol))
	if err != nil {
		t.Fatal(err)
	}
	if sb, _ := os.ReadFile(standby); !bytes.Equal(sb, acked) {
		t.Fatalf("dump journaled %d bytes into the primary, %d into the standby", len(acked), len(sb))
	}
	flipped := bytes.Clone(acked)
	flipped[20] ^= 0xFF
	for _, c := range []struct {
		cmd  []string
		seen func(out string) bool
	}{
		{[]string{"scrub"}, func(out string) bool { return strings.Contains(out, "scrub clean: 2 sets") }},
		{[]string{"catalog"}, func(out string) bool { return strings.Count(out, " logical ") == 2 }},
		{[]string{"plan"}, func(out string) bool { return strings.Contains(out, fmt.Sprintf("media: %s %s\n", d0, d1)) }},
	} {
		if err := os.WriteFile(catalogPath(vol), flipped, 0644); err != nil {
			t.Fatal(err)
		}
		out, err := output(t, append([]string{"-vol", vol}, c.cmd...)...)
		if err != nil || !c.seen(out) {
			t.Fatalf("%s with the primary's first frame flipped: %v\n%s", c.cmd[0], err, out)
		}
	}

	if err := os.Remove(catalogPath(vol)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(d0); err != nil {
		t.Fatal(err)
	}
	out, err := output(t, "-vol", vol, "fsck")
	if err == nil || !strings.Contains(out, d0) {
		t.Fatalf("fsck with the primary journal and d0 lost: %v\n%s", err, out)
	}
}

// TestServeRefusesConflictingStandby: a serve whose -standby is not the
// file recorded beside its base fails before it accepts a connection,
// and leaves both journals as they were (and the named file uncreated);
// a tenant base's conflicting record refuses that tenant's Hello
// before any stream file of it is created.
func TestServeRefusesConflictingStandby(t *testing.T) {
	dir := t.TempDir()
	vol := mkVol(t, dir, "home", "payload\n")
	base, y, x := filepath.Join(dir, "recv.dump"), filepath.Join(dir, "y.catalog"), filepath.Join(dir, "x.catalog")
	pushTo(t, vol, base, y)
	primary, _ := os.ReadFile(catalogPath(base))
	standby, _ := os.ReadFile(y)
	if len(primary) == 0 || !bytes.Equal(primary, standby) {
		t.Fatalf("journals after the push: %d and %d bytes", len(primary), len(standby))
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- serveOn(l, base, x, true, time.Second, nil, nil) }()
	select {
	case err = <-served:
	case <-time.After(10 * time.Second):
		l.Close()
		<-served
		t.Fatal("serve with a conflicting -standby went on serving")
	}
	l.Close()
	if err == nil || !strings.Contains(err.Error(), y) {
		t.Fatalf("serve -standby %s on a base recorded with %s: %v", x, y, err)
	}
	if p, _ := os.ReadFile(catalogPath(base)); !bytes.Equal(p, primary) {
		t.Fatal("the refused serve changed the primary journal")
	}
	if s, _ := os.ReadFile(y); !bytes.Equal(s, standby) {
		t.Fatal("the refused serve changed the standby journal")
	}
	if _, err := os.Stat(x); err == nil {
		t.Fatal("the refused serve created its -standby file")
	}

	if err := bindStandby(tenantPath(base, "alpha"), filepath.Join(dir, "z.catalog")); err != nil {
		t.Fatal(err)
	}
	l, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { served <- serveOn(l, base, y, false, 5*time.Second, nil, nil) }()
	err = run([]string{"-vol", vol, "push", "-to", l.Addr().String(), "-tenant", "alpha", "-max-resumes", "0"})
	l.Close()
	<-served
	if err == nil || !strings.Contains(err.Error(), "z.catalog") {
		t.Fatalf("push as tenant alpha, recorded with another standby: %v", err)
	}
	if _, err := os.Stat(tenantPath(base, "alpha")); err == nil {
		t.Fatal("the refused tenant's stream file was created")
	}
}

// TestServeTenantNamespaces: a tenant's files never alias another
// namespace's. Tenant "catalog" pushes first, then the default tenant:
// both sets land and scrub clean (when tenant files were <base>.<tenant>,
// the tenant's stream was <base>.catalog, the default tenant's journal,
// which serve then truncated as torn). A Hello whose tenant is not 1-64
// of [A-Za-z0-9_-] is refused, and no file is created for it.
func TestServeTenantNamespaces(t *testing.T) {
	dir := t.TempDir()
	vol := mkVol(t, dir, "home", "tenant payload\n")
	base := filepath.Join(dir, "recv.dump")
	pushTo(t, vol, base, "", "-tenant", "catalog")
	pushTo(t, vol, base, "")
	for _, b := range []string{tenantPath(base, "catalog"), base} {
		if got := len(volSets(t, b)); got != 1 {
			t.Fatalf("%s: %d sets, want 1", b, got)
		}
		if err := run([]string{"-vol", b, "scrub"}); err != nil {
			t.Fatalf("scrub %s: %v", b, err)
		}
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- serveOn(l, base, "", false, 5*time.Second, nil, nil) }()
	before, _ := filepath.Glob(filepath.Join(dir, "*"))
	for i, tenant := range []string{"../x", "a.b", "a/b", strings.Repeat("t", 65)} {
		dial := func() (transport.Conn, error) {
			c, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				return nil, err
			}
			return transport.NewNetConn(c), nil
		}
		sess, err := ndmp.Dial(dial, ndmp.Config{
			Kind: ndmp.KindLogical, Session: uint64(i + 1), Tenant: tenant, DeadAfter: 2 * time.Second,
		})
		if err == nil {
			sess.Close()
			t.Fatalf("tenant %q: Hello accepted", tenant)
		}
	}
	l.Close()
	<-served
	if after, _ := filepath.Glob(filepath.Join(dir, "*")); !slices.Equal(before, after) {
		t.Fatalf("refused tenants left files: before %v, after %v", before, after)
	}
}
