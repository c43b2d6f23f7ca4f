package nvram

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestAppendAndEntries(t *testing.T) {
	ctx := context.Background()
	l := New(nil, Params{Size: 1024})
	ops := [][]byte{[]byte("create /a"), []byte("write /a 100"), []byte("remove /b")}
	for _, op := range ops {
		if err := l.Append(ctx, op); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Entries()
	if len(got) != len(ops) {
		t.Fatalf("entries = %d, want %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i], ops[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if l.Appends() != 3 {
		t.Fatalf("Appends = %d, want 3", l.Appends())
	}
}

func TestEntriesAreIsolated(t *testing.T) {
	ctx := context.Background()
	l := New(nil, Params{Size: 1024})
	op := []byte("abc")
	l.Append(ctx, op)
	op[0] = 'z' // caller mutates after append
	e := l.Entries()
	if e[0][0] != 'a' {
		t.Fatal("log aliased caller buffer")
	}
	e[0][0] = 'q' // reader mutates returned copy
	if l.Entries()[0][0] != 'a' {
		t.Fatal("log aliased returned entries")
	}
}

// TestEntriesOutliveReset: the log records into one arena and Reset
// keeps it, so the next Records overwrite the bytes the last entries
// were in. Entries taken before must not see that.
func TestEntriesOutliveReset(t *testing.T) {
	ctx := context.Background()
	l := New(nil, Params{Size: 1024})
	for _, op := range []string{"create /a", "write /a 100"} {
		if err := l.Append(ctx, []byte(op)); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Entries()
	l.Reset()
	for _, op := range []string{"remove /b", "write /c 7", "rename /c /d"} {
		if err := l.Append(ctx, []byte(op)); err != nil {
			t.Fatal(err)
		}
	}
	if string(before[0]) != "create /a" || string(before[1]) != "write /a 100" {
		t.Fatalf("entries taken before Reset now read %q", before)
	}
	after := l.Entries()
	if len(after) != 3 || string(after[0]) != "remove /b" || string(after[2]) != "rename /c /d" || l.Used() != 31 {
		t.Fatalf("entries after Reset: %q, %d bytes", after, l.Used())
	}
	after[0] = append(after[0], "!!"...) // an entry's room ends where it does
	if string(after[1]) != "write /c 7" {
		t.Fatalf("growing one returned entry overwrote the next: %q", after[1])
	}
}

func TestHighWaterMark(t *testing.T) {
	ctx := context.Background()
	l := New(nil, Params{Size: 100})
	if l.NeedCP() {
		t.Fatal("empty log wants CP")
	}
	l.Append(ctx, make([]byte, 49))
	if l.NeedCP() {
		t.Fatal("49/100 wants CP")
	}
	l.Append(ctx, make([]byte, 1))
	if !l.NeedCP() {
		t.Fatal("50/100 does not want CP")
	}
	l.Reset()
	if l.NeedCP() || l.Used() != 0 || len(l.Entries()) != 0 {
		t.Fatal("reset did not clear log")
	}
}

func TestFull(t *testing.T) {
	ctx := context.Background()
	l := New(nil, Params{Size: 100})
	if err := l.Append(ctx, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(ctx, []byte{1}); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
}

func TestUnlimitedSize(t *testing.T) {
	ctx := context.Background()
	l := New(nil, Params{Size: 0})
	for i := 0; i < 100; i++ {
		if err := l.Append(ctx, make([]byte, 1<<10)); err != nil {
			t.Fatal(err)
		}
	}
	if l.NeedCP() {
		t.Fatal("unlimited log reported NeedCP")
	}
}

func TestTimingCharged(t *testing.T) {
	env := sim.NewEnv()
	p := Params{Size: 1 << 20, PerOp: time.Millisecond, PerByte: time.Microsecond}
	l := New(env, p)
	env.Spawn("w", func(pr *sim.Proc) {
		ctx := sim.WithProc(context.Background(), pr)
		l.Append(ctx, make([]byte, 100))
	})
	env.Run()
	want := time.Millisecond + 100*time.Microsecond
	if env.Now() != want {
		t.Fatalf("append took %v, want %v", env.Now(), want)
	}
}

func TestUntimedContextNoCharge(t *testing.T) {
	env := sim.NewEnv()
	l := New(env, DefaultParams())
	// Append without a proc in the context: bytes logged, no time.
	if err := l.Append(context.Background(), []byte("op")); err != nil {
		t.Fatal(err)
	}
	if l.Station().Busy() != 0 {
		t.Fatal("untimed append charged station time")
	}
}

// entry is n bytes of a pattern that tells entry seed apart from its
// neighbours.
func entry(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i)
	}
	return b
}

// TestRecordJoinsHeadAndData: an entry is its head followed by its
// data, each copied, and is charged for both.
func TestRecordJoinsHeadAndData(t *testing.T) {
	l := New(nil, Params{Size: 1024, PerOp: time.Millisecond, PerByte: time.Microsecond})
	head, data := []byte("write 7 "), []byte("payload")
	svc, err := l.Record(head, data)
	if err != nil {
		t.Fatal(err)
	}
	head[0], data[0] = 'X', 'X'
	if got := l.Entries(); len(got) != 1 || string(got[0]) != "write 7 payload" {
		t.Fatalf("entries %q, want [\"write 7 payload\"]", got)
	}
	if want := time.Millisecond + 15*time.Microsecond; svc != want || l.Used() != 15 {
		t.Fatalf("charged %v for %d bytes, want %v for 15", svc, l.Used(), want)
	}
}

// TestChunkedArena records entries around the arena's chunk boundaries:
// one that would span the end of a chunk, one larger than a chunk, and
// small ones on either side. Each must read back whole, in order, and
// Used must count entry bytes, not the room a chunk left unused.
func TestChunkedArena(t *testing.T) {
	l := New(nil, Params{Size: 8 * chunkSize})
	sizes := []int{chunkSize - 100, 60, 80, 3 * chunkSize, 5, chunkSize, 1}
	total := 0
	for i, n := range sizes {
		e := entry(i, n)
		if _, err := l.Record(e[:n/2], e[n/2:]); err != nil {
			t.Fatalf("entry %d (%d bytes): %v", i, n, err)
		}
		total += n
	}
	if l.Used() != total {
		t.Fatalf("Used = %d, want %d", l.Used(), total)
	}
	got := l.Entries()
	if len(got) != len(sizes) {
		t.Fatalf("%d entries, want %d", len(got), len(sizes))
	}
	for i, n := range sizes {
		if !bytes.Equal(got[i], entry(i, n)) {
			t.Fatalf("entry %d (%d bytes) reads back wrong", i, n)
		}
	}
	// [first, 60] [80] [3 chunks] [5] [chunk] [1]: the 80-byte entry
	// would span the first chunk's end, the large one fills its own.
	if l.inUse != 6 {
		t.Fatalf("%d chunks in use, want 6", l.inUse)
	}

	// After Reset the first chunk kept is too small for a large entry.
	l.Reset()
	big := entry(9, 2*chunkSize)
	if _, err := l.Record(big[:17], big[17:]); err != nil {
		t.Fatal(err)
	}
	if got := l.Entries(); len(got) != 1 || !bytes.Equal(got[0], big) || l.Used() != len(big) {
		t.Fatal("an entry larger than the kept chunk reads back wrong")
	}
}

// TestFullAtExactlySize: entries may fill the log to exactly Size,
// counting head and data, and not one byte past it.
func TestFullAtExactlySize(t *testing.T) {
	const size = 2*chunkSize + 10
	l := New(nil, Params{Size: size})
	if _, err := l.Record(entry(1, chunkSize), entry(2, chunkSize)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Record(entry(3, 4), entry(4, 7)); !errors.Is(err, ErrFull) {
		t.Fatalf("11 bytes into 10 left: err = %v, want ErrFull", err)
	}
	if _, err := l.Record(entry(3, 4), entry(4, 6)); err != nil {
		t.Fatalf("10 bytes into 10 left: %v", err)
	}
	if _, err := l.Record(nil, []byte{1}); !errors.Is(err, ErrFull) || l.Used() != size || len(l.Entries()) != 2 {
		t.Fatalf("one byte past Size: err = %v, %d bytes in %d entries", err, l.Used(), len(l.Entries()))
	}
}

// TestEntriesOutliveRecords: Entries returns copies, so entries
// recorded after it, into the same chunk or a new one, leave them be.
func TestEntriesOutliveRecords(t *testing.T) {
	l := New(nil, Params{Size: 4 * chunkSize})
	l.Record(entry(1, 10), nil)
	l.Record(entry(2, 20), nil)
	before := l.Entries()
	before[0] = append(before[0], "!!"...) // an entry's room ends where it does
	l.Record(entry(3, 30), nil)
	l.Record(entry(4, chunkSize), nil)
	if !bytes.Equal(before[0][:10], entry(1, 10)) || !bytes.Equal(before[1], entry(2, 20)) {
		t.Fatal("later Records changed entries taken before them")
	}
	if got := l.Entries(); !bytes.Equal(got[1], entry(2, 20)) || !bytes.Equal(got[2], entry(3, 30)) {
		t.Fatal("growing a returned entry reached into the log")
	}
}

// TestRecordAfterResetAllocatesNothing: Reset keeps the arena's chunks
// and the entry list, so refilling the log to where it was allocates
// nothing, large entries included.
func TestRecordAfterResetAllocatesNothing(t *testing.T) {
	l := New(nil, Params{Size: 8 * chunkSize})
	head := entry(1, 17)
	datas := [][]byte{entry(2, 64<<10), entry(3, chunkSize-50), entry(4, 2*chunkSize), entry(5, 100)}
	fill := func() {
		l.Reset()
		for _, d := range datas {
			if _, err := l.Record(head, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	if n := testing.AllocsPerRun(50, fill); n != 0 {
		t.Fatalf("refilling after Reset: %v allocs, want 0", n)
	}
	if got := l.Entries(); len(got) != len(datas) || !bytes.Equal(got[2][17:], datas[2]) {
		t.Fatal("refilled log reads back wrong")
	}
}
