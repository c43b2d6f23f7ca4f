package wafl

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestListingLendsUntilNextFill: a Listing lists what Readdir does, a
// directory of several blocks included, and a name kept past the next
// fill reads the poison, not a name of the directory listed next.
func TestListingLendsUntilNextFill(t *testing.T) {
	fs := newFS(t, 2048)
	big, err := fs.Mkdir(ctx, RootIno, "big", 0755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := fs.Create(ctx, big, fmt.Sprintf("file-with-a-long-name-%03d", i), 0644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	small, err := fs.Mkdir(ctx, RootIno, "small", 0755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(ctx, small, "x", 0644, 0, 0); err != nil {
		t.Fatal(err)
	}
	v := fs.ActiveView()
	if ino, _ := v.GetInode(ctx, big); ino.Blocks() < 3 {
		t.Fatalf("the big directory spans %d blocks, want several", ino.Blocks())
	}

	var l Listing
	for _, dir := range []Inum{small, big, small, big} {
		want, err := v.Readdir(ctx, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Fill(ctx, v, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("listing of directory %d differs from its Readdir", dir)
		}
	}
	kept := strings.Clone(l.ents[2].Name)
	lent := l.ents[2].Name // kept past the next fill, against the rule
	fresh, err := v.Readdir(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fill(ctx, v, small); err != nil {
		t.Fatal(err)
	}
	if lent != strings.Repeat("\xa5", len(kept)) {
		t.Fatalf("a name kept past the next fill reads %q, want the poison", lent)
	}
	if fresh[2].Name != kept {
		t.Fatalf("Readdir's names changed under a Listing's refill: %q, want %q", fresh[2].Name, kept)
	}
}

// TestRmdirLooksPastTheFirstBlock: dirIsEmpty scans every block, so a
// directory whose only entry is in a later block is not empty, and one
// emptied entry by entry is.
func TestRmdirLooksPastTheFirstBlock(t *testing.T) {
	fs := newFS(t, 2048)
	d, err := fs.Mkdir(ctx, RootIno, "d", 0755, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 200; i++ {
		names = append(names, fmt.Sprintf("entry-with-a-long-name-%03d", i))
		if _, err := fs.Create(ctx, d, names[i], 0644, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if ino, _ := fs.GetInode(ctx, d); ino.Blocks() < 2 {
		t.Fatalf("directory spans %d blocks, want several", ino.Blocks())
	}
	last := names[len(names)-1]
	for _, n := range names[:len(names)-1] {
		if err := fs.Remove(ctx, d, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rmdir(ctx, RootIno, "d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir with one entry left in a later block: %v, want %v", err, ErrNotEmpty)
	}
	if err := fs.Remove(ctx, d, last); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir(ctx, RootIno, "d"); err != nil {
		t.Fatalf("rmdir of an emptied directory: %v", err)
	}
	check(t, fs)
}
