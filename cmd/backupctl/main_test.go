package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIWalkthrough drives every backupctl command against real
// volume files in a temp directory — the README's workflow end to end.
func TestCLIWalkthrough(t *testing.T) {
	dir := t.TempDir()
	vol := filepath.Join(dir, "home.img")
	clone := filepath.Join(dir, "clone.img")
	dump0 := filepath.Join(dir, "l0.dump")
	dump1 := filepath.Join(dir, "l1.dump")
	img := filepath.Join(dir, "vol.stream")
	hostFile := filepath.Join(dir, "payload.txt")
	payload := []byte("the quick brown fox, archived\n")
	if err := os.WriteFile(hostFile, payload, 0644); err != nil {
		t.Fatal(err)
	}
	cwd, _ := os.Getwd()
	if err := os.Chdir(dir); err != nil { // extract writes into cwd
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

	do("-vol", vol, "mkfs", "-blocks", "4096")
	do("-vol", vol, "put", hostFile, "/docs/payload.txt")
	do("-vol", vol, "ls", "/docs")
	do("-vol", vol, "snap", "create", "nightly")
	do("-vol", vol, "snap", "ls")
	do("-vol", vol, "df")
	do("-vol", vol, "fsck")

	// Logical cycle with verification.
	do("-vol", vol, "dump", "-o", dump0)
	do("-vol", vol, "verify", "-i", dump0)
	do("-vol", vol, "rm", "/docs/payload.txt")
	mustFail("-vol", vol, "verify", "-i", dump0) // tape no longer matches
	do("-vol", vol, "restore", "-i", dump0, "-file", "docs/payload.txt")
	do("-vol", vol, "cat", "/docs/payload.txt")

	// Incremental level 1 picks up a new file.
	second := filepath.Join(dir, "second.txt")
	os.WriteFile(second, []byte("second file"), 0644)
	do("-vol", vol, "put", second, "/docs/second.txt")
	do("-vol", vol, "dump", "-o", dump1, "-level", "1")
	// Its dates live in the catalog; .dumpdates is push's history alone.
	if _, err := os.Stat(vol + ".dumpdates"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("dump wrote %s.dumpdates (stat: %v)", filepath.Base(vol), err)
	}

	// Physical cycle: image dump, verify, restore to a new volume,
	// offline extraction.
	do("-vol", vol, "imagedump", "-o", img)
	do("imageverify", "-i", img)
	do("-vol", clone, "imagerestore", "-i", img)
	do("-vol", clone, "fsck")
	do("-vol", clone, "cat", "/docs/payload.txt")
	do("extract", "-i", img, "/docs/payload.txt")
	extracted, err := os.ReadFile(filepath.Join(dir, "docs_payload.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(extracted) != string(payload) {
		t.Fatalf("extracted %q", extracted)
	}

	// Fill and age a scratch volume, then back it up both ways.
	scratch := filepath.Join(dir, "scratch.img")
	do("-vol", scratch, "mkfs", "-blocks", "8192")
	do("-vol", scratch, "fill", "-mb", "4")
	do("-vol", scratch, "age", "-rounds", "2")
	do("-vol", scratch, "fsck")
	do("-vol", scratch, "dump", "-o", filepath.Join(dir, "scratch.dump"))
	do("-vol", scratch, "verify", "-i", filepath.Join(dir, "scratch.dump"))
	mustFail("-vol", vol+"x", "age") // missing volume

	// Snapshot revert: wreck a file, rewind to the snapshot.
	do("-vol", vol, "rm", "/docs/payload.txt")
	do("-vol", vol, "snap", "revert", "nightly")
	do("-vol", vol, "cat", "/docs/payload.txt")
	do("-vol", vol, "fsck")

	// Error paths.
	mustFail("-vol", vol, "nosuchcommand")
	mustFail("-vol", vol, "bench") // retired: benchmark/ and cmd/benchtables measure
	mustFail("-vol", filepath.Join(dir, "missing.img"), "ls")
	mustFail("mkfs") // no -vol
	mustFail("-vol", vol, "restore")
	mustFail("-vol", vol, "dump")
}
