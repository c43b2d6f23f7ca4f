package chunk

import (
	"bytes"
	"math/rand"
	"testing"
)

// split runs data through a fresh splitter in writeSize slices and
// returns the chunks (copied).
func split(t testing.TB, p Params, data []byte, writeSize int) [][]byte {
	t.Helper()
	s := NewSplitter(p)
	defer s.Close()
	var chunks [][]byte
	emit := func(c []byte) error {
		chunks = append(chunks, append([]byte(nil), c...))
		return nil
	}
	for off := 0; off < len(data); off += writeSize {
		end := off + writeSize
		if end > len(data) {
			end = len(data)
		}
		if err := s.Write(data[off:end], emit); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(emit); err != nil {
		t.Fatal(err)
	}
	return chunks
}

func TestSplitterReassembly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 1<<20)
	rng.Read(data)
	p := DefaultParams()
	chunks := split(t, p, data, 10240)

	var joined []byte
	for i, c := range chunks {
		if len(c) > p.Max {
			t.Fatalf("chunk %d: %d bytes exceeds max %d", i, len(c), p.Max)
		}
		if len(c) < p.Min && i != len(chunks)-1 {
			t.Fatalf("chunk %d: %d bytes under min %d (only the final chunk may be short)", i, len(c), p.Min)
		}
		joined = append(joined, c...)
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("chunks do not reassemble the input")
	}

	// The mean should land in the neighborhood of Avg — this is a
	// distribution property, so the bound is loose but catches a mask
	// off by orders of magnitude.
	mean := len(data) / len(chunks)
	if mean < p.Min || mean > 3*p.Avg {
		t.Fatalf("mean chunk %d bytes; want within [%d, %d]", mean, p.Min, 3*p.Avg)
	}
}

// TestSplitterWriteSizeIndependence: chunk boundaries are a property
// of the content, not of how the stream is sliced into Write calls —
// the contract that makes dedup work across engines whose record
// sizes differ.
func TestSplitterWriteSizeIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 512<<10)
	rng.Read(data)
	want := split(t, Params{}, data, len(data))
	for _, ws := range []int{1, 37, 1024, 10240, 65536} {
		got := split(t, Params{}, data, ws)
		if len(got) != len(want) {
			t.Fatalf("write size %d: %d chunks, want %d", ws, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("write size %d: chunk %d differs", ws, i)
			}
		}
	}
}

// TestSplitterShiftResistance: inserting bytes near the front of the
// stream must disturb only nearby boundaries; the bulk of the chunks
// re-align and dedup. (A fixed-block splitter would share none.)
func TestSplitterShiftResistance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 1<<20)
	rng.Read(data)
	shifted := append(append([]byte{}, []byte("insertion at the front")...), data...)

	base := split(t, Params{}, data, 10240)
	moved := split(t, Params{}, shifted, 10240)

	seen := make(map[Hash]bool, len(base))
	for _, c := range base {
		seen[Sum(c)] = true
	}
	shared := 0
	for _, c := range moved {
		if seen[Sum(c)] {
			shared++
		}
	}
	if min := len(base) * 9 / 10; shared < min {
		t.Fatalf("only %d/%d chunks survived a front insertion; want >= %d", shared, len(moved), min)
	}
}

// TestSplitterDeterminism: same bytes, same cuts, run to run — the
// gear table is a fixed on-media contract.
func TestSplitterDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	data := make([]byte, 256<<10)
	rng.Read(data)
	a := split(t, Params{}, data, 4096)
	b := split(t, Params{}, data, 4096)
	if len(a) != len(b) {
		t.Fatalf("%d vs %d chunks across runs", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("chunk %d differs across runs", i)
		}
	}
}

func TestSplitterEmptyAndTiny(t *testing.T) {
	if got := split(t, Params{}, nil, 1024); len(got) != 0 {
		t.Fatalf("empty input produced %d chunks", len(got))
	}
	tiny := []byte("shorter than min")
	got := split(t, Params{}, tiny, 1024)
	if len(got) != 1 || !bytes.Equal(got[0], tiny) {
		t.Fatalf("tiny input split wrong: %d chunks", len(got))
	}
}

const benchStreamBytes = 4 << 20

// splitterStep returns one iteration of pushing benchStreamBytes of
// random data through a long-lived splitter in writeSize slices, shared
// by the benchmarks that time it and the test that counts its
// allocations.
func splitterStep(tb testing.TB, seed int64, writeSize int) func() {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, benchStreamBytes)
	rng.Read(data)
	s := NewSplitter(Params{})
	tb.Cleanup(s.Close)
	emit := func(c []byte) error { return nil }
	return func() {
		for off := 0; off < len(data); off += writeSize {
			end := off + writeSize
			if end > len(data) {
				end = len(data)
			}
			if err := s.Write(data[off:end], emit); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

func benchSplitter(b *testing.B, seed int64, writeSize int) {
	step := splitterStep(b, seed, writeSize)
	b.SetBytes(benchStreamBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkSplitter measures raw chunking throughput over large
// buffers: one Write, chunks emitted as subslices (the zero-copy path).
func BenchmarkSplitter(b *testing.B) { benchSplitter(b, 11, benchStreamBytes) }

// BenchmarkSplitterRecords feeds the splitter dump-sized (10 KB)
// records, the shape the dedup sink actually sees.
func BenchmarkSplitterRecords(b *testing.B) { benchSplitter(b, 12, RecordBytes) }

// TestSplitterZeroAlloc pins the splitter's steady state: a live
// splitter allocates nothing in either write shape.
func TestSplitterZeroAlloc(t *testing.T) {
	for name, writeSize := range map[string]int{"one Write": benchStreamBytes, "10 KB records": RecordBytes} {
		if n := testing.AllocsPerRun(4, splitterStep(t, 11, writeSize)); n != 0 {
			t.Errorf("%s: %v allocs per 4 MiB, want 0", name, n)
		}
	}
}
