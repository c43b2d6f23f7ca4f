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
