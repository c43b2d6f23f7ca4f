package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestByteStreamMatchesRandRead holds byteStream to the function it
// replaces: two generators from one seed, one read through r.Read and
// the other through a byteStream, with Intn draws between reads, must
// yield the same bytes for every length, short, odd or past 64 KiB.
func TestByteStreamMatchesRandRead(t *testing.T) {
	const seed = 42
	want := rand.New(rand.NewSource(seed))
	got := rand.New(rand.NewSource(seed))
	s := byteStream{r: got}
	steer := rand.New(rand.NewSource(seed + 1)) // picks lengths; shared by neither side
	a := make([]byte, 70<<10)
	b := make([]byte, 70<<10)
	for step := 0; step < 20000; step++ {
		n := steer.Intn(301)
		if step%500 == 0 {
			n = 64<<10 + steer.Intn(6<<10)
		}
		want.Read(a[:n])
		s.Read(b[:n])
		if !bytes.Equal(a[:n], b[:n]) {
			t.Fatalf("step %d: %d bytes differ from rand.Read", step, n)
		}
		for k := steer.Intn(3); k > 0; k-- {
			bound := 1 + steer.Intn(1000)
			if x, y := want.Intn(bound), got.Intn(bound); x != y {
				t.Fatalf("step %d: Intn(%d) = %d after rand.Read, %d after byteStream", step, bound, x, y)
			}
		}
	}
}

// generatePinned is the SHA-256, over the sorted TreeDigest, of
// Generate(DefaultSpec()) followed by two rounds of Age: every byte
// and name the generator writes. It moves only when the generator's
// output does, and every golden stream digest moves with it.
const generatePinned = "45b50eda2eb83e19ff511d0805302421e360b78c5c27ffe0b7f8be8c0531967d"

func TestGeneratePinned(t *testing.T) {
	fs := newFS(t, 16384)
	paths, err := Generate(ctx, fs, DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Age(ctx, fs, paths, AgeSpec{Seed: 2, Rounds: 2, ChurnPerRound: 60, MeanFileSize: 24 << 10}); err != nil {
		t.Fatal(err)
	}
	d, err := TreeDigest(ctx, fs.ActiveView(), "/")
	if err != nil {
		t.Fatal(err)
	}
	names := keys(d)
	sort.Strings(names)
	h := sha256.New()
	for _, p := range names {
		e := d[p]
		fmt.Fprintf(h, "%s %o %o %d %d %d %x\n", p, e.Type, e.Mode, e.UID, e.GID, e.Size, e.Digest)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatePinned {
		t.Fatalf("generated tree digest %s, pinned %s", got, generatePinned)
	}
}
