package chunk_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/chunk"
	"repro/internal/sim"
	"repro/internal/tape"
)

// memIndex is a test chunk index with commit counting.
type memIndex struct {
	m       map[chunk.Hash]chunk.Entry
	commits int
	fail    error // next CommitChunks fails with this
}

func newMemIndex() *memIndex { return &memIndex{m: make(map[chunk.Hash]chunk.Entry)} }

func (ix *memIndex) LookupChunk(h chunk.Hash) (chunk.Entry, bool) {
	e, ok := ix.m[h]
	return e, ok
}

func (ix *memIndex) CommitChunks(es []chunk.Entry) error {
	if ix.fail != nil {
		err := ix.fail
		ix.fail = nil
		return err
	}
	ix.commits++
	for _, e := range es {
		ix.m[e.Hash] = e
	}
	return nil
}

// dedupable builds a stream with internal redundancy and compressible
// regions: draws from a small pool of 64 KB blocks (half random, half
// periodic text), so repeated draws produce spans long enough that
// their interior chunks align and dedup.
func dedupable(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][]byte, 12)
	for i := range pool {
		b := make([]byte, 64<<10)
		if i%2 == 0 {
			rng.Read(b)
		} else {
			phrase := fmt.Sprintf("block %d: the quick brown fox jumps over the lazy dog; ", i)
			for j := range b {
				b[j] = phrase[j%len(phrase)]
			}
		}
		pool[i] = b
	}
	var out []byte
	for len(out) < n {
		out = append(out, pool[rng.Intn(len(pool))]...)
	}
	return out[:n]
}

// writeStream pushes data through a Writer in 10 KB records.
func writeStream(t testing.TB, w *chunk.Writer, data []byte) chunk.Manifest {
	t.Helper()
	for off := 0; off < len(data); off += 10240 {
		end := off + 10240
		if end > len(data) {
			end = len(data)
		}
		if err := w.WriteRecord(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	m, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// readStream drains a Reader back into one buffer.
func readStream(t *testing.T, r *chunk.Reader) []byte {
	t.Helper()
	var out []byte
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(rec) > chunk.RecordBytes || len(rec) == 0 {
			t.Fatalf("record of %d bytes", len(rec))
		}
		out = append(out, rec...)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	ix := newMemIndex()
	media := chunk.NewMemMedia("m0")
	data := dedupable(1, 1<<20)

	w, err := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media})
	if err != nil {
		t.Fatal(err)
	}
	m := writeStream(t, w, data)

	if m.RawBytes != int64(len(data)) {
		t.Fatalf("manifest raw %d, want %d", m.RawBytes, len(data))
	}
	st := w.Stats()
	if st.Hits == 0 {
		t.Fatal("redundant stream produced no dedup hits")
	}
	if st.CompressedChunks == 0 || st.RawChunks == 0 {
		t.Fatalf("want both compressed and raw-stored chunks, got %d/%d", st.CompressedChunks, st.RawChunks)
	}
	if m.StoredBytes >= int64(len(data)) {
		t.Fatalf("dedup+compression stored %d of %d raw bytes", m.StoredBytes, len(data))
	}
	if media.StoredBytes() != m.StoredBytes {
		t.Fatalf("media holds %d bytes, manifest claims %d", media.StoredBytes(), m.StoredBytes)
	}

	got := readStream(t, chunk.NewReader(ix, media, m))
	if !bytes.Equal(got, data) {
		t.Fatal("restored stream differs from input")
	}
}

// TestDedupAcrossStreams: a second, mostly-identical stream must skip
// nearly all media writes — the "hits skip tape writes" contract.
func TestDedupAcrossStreams(t *testing.T) {
	ix := newMemIndex()
	media := chunk.NewMemMedia("m0")
	data := dedupable(2, 1<<20)

	w1, _ := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media})
	writeStream(t, w1, data)

	// Day two: a small edit in the middle.
	edited := append([]byte(nil), data...)
	copy(edited[500_000:], []byte("a few changed bytes in one file"))

	before := media.StoredBytes()
	w2, _ := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media})
	m2 := writeStream(t, w2, edited)
	added := media.StoredBytes() - before

	if ratio := float64(len(edited)) / float64(added+1); ratio < 10 {
		t.Fatalf("second full stored %d of %d bytes (ratio %.1f); dedup broken", added, len(edited), ratio)
	}
	st := w2.Stats()
	if st.Rewrites != 0 {
		t.Fatalf("forward mode performed %d rewrites", st.Rewrites)
	}

	got := readStream(t, chunk.NewReader(ix, media, m2))
	if !bytes.Equal(got, edited) {
		t.Fatal("second stream restored wrong")
	}
}

// TestReverseDedup: in reverse mode the new stream's chunks all land
// on current media (rewrites instead of references), the index is
// redirected, and BOTH streams still restore byte-identical.
func TestReverseDedup(t *testing.T) {
	ix := newMemIndex()
	old := chunk.NewMemMedia("day1")
	data := dedupable(3, 512<<10)

	w1, _ := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: old})
	m1 := writeStream(t, w1, data)

	// Day two, reverse mode, on fresh media.
	cur := chunk.NewMemMedia("day2")
	edited := append([]byte(nil), data...)
	copy(edited[100_000:], []byte("reverse-mode edit"))
	w2, _ := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: cur, Reverse: true})
	m2 := writeStream(t, w2, edited)

	st := w2.Stats()
	if st.Rewrites == 0 {
		t.Fatal("reverse mode rewrote nothing")
	}
	if st.Hits == 0 {
		t.Fatal("within-stream duplicates should still hit")
	}
	// Every cross-set chunk was superseded: the index must point every
	// one of the new manifest's refs at current media.
	for _, ref := range m2.Refs {
		e, ok := ix.LookupChunk(ref.Hash)
		if !ok {
			t.Fatalf("ref %s missing from index", ref.Hash)
		}
		if e.Loc.Volume != "day2" {
			t.Fatalf("ref %s still points at %s; reverse dedup must keep the newest stream contiguous", ref.Hash, e.Loc.Volume)
		}
	}

	// The new stream reads back from current media alone...
	got2 := readStream(t, chunk.NewReader(ix, cur, m2))
	if !bytes.Equal(got2, edited) {
		t.Fatal("latest stream restored wrong")
	}
	// ...and the OLD manifest transparently redirects to the new
	// copies for shared chunks (its unique chunks stay on old media).
	both := fanoutMedia{"day1": old, "day2": cur}
	got1 := readStream(t, chunk.NewReader(ix, both, m1))
	if !bytes.Equal(got1, data) {
		t.Fatal("old stream restored wrong after reverse dedup redirected it")
	}
}

// fanoutMedia routes reads by volume label (restore across media
// generations).
type fanoutMedia map[string]*chunk.MemMedia

func (f fanoutMedia) Append(data []byte) (chunk.Loc, error) {
	return chunk.Loc{}, errors.New("read-only")
}

func (f fanoutMedia) ReadAt(loc chunk.Loc) ([]byte, error) {
	m, ok := f[loc.Volume]
	if !ok {
		return nil, errors.New("no such volume: " + loc.Volume)
	}
	return m.ReadAt(loc)
}

// TestSyncStagesEntries: entries become visible to other writers only
// after Sync (the checkpoint hook) or Close journals them.
func TestSyncStagesEntries(t *testing.T) {
	ix := newMemIndex()
	media := chunk.NewMemMedia("m0")
	w, _ := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media})

	data := dedupable(4, 256<<10)
	for off := 0; off < len(data); off += 10240 {
		end := off + 10240
		if end > len(data) {
			end = len(data)
		}
		if err := w.WriteRecord(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if ix.commits != 0 {
		t.Fatal("entries journaled before any Sync")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if ix.commits != 1 || len(ix.m) == 0 {
		t.Fatalf("Sync journaled nothing (%d commits, %d entries)", ix.commits, len(ix.m))
	}
	mid := len(ix.m)
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ix.m) < mid {
		t.Fatal("Close lost entries")
	}
}

// TestReaderDetectsCorruption: a flipped bit on media must surface as
// a hash mismatch, never as silently wrong bytes.
func TestReaderDetectsCorruption(t *testing.T) {
	ix := newMemIndex()
	media := chunk.NewMemMedia("m0")
	data := dedupable(5, 128<<10)
	w, _ := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media})
	m := writeStream(t, w, data)

	// Corrupt one stored chunk via the index's own entry.
	var victim chunk.Entry
	for _, e := range ix.m {
		victim = e
		break
	}
	stored, err := media.ReadAt(victim.Loc)
	if err != nil {
		t.Fatal(err)
	}
	raw := bytes.Clone(stored) // ReadAt lends its bytes read-only
	raw[0] ^= 0xff
	if err := media.Erase(victim.Loc); err != nil {
		t.Fatal(err)
	}
	// Re-append corrupted bytes and redirect the index entry at them.
	loc, err := media.Append(raw)
	if err != nil {
		t.Fatal(err)
	}
	victim.Loc = loc
	ix.m[victim.Hash] = victim

	r := chunk.NewReader(ix, media, m)
	for {
		_, err := r.ReadRecord()
		if err == io.EOF {
			t.Fatal("corrupt chunk restored without error")
		}
		if err != nil {
			return // detected — good
		}
	}
}

// TestWriterMediaFailure: a failing media append surfaces to the
// engine as a write error (which the engines turn into a checkpointed
// failure), and entries staged before the failure are still
// committable by Sync.
func TestWriterMediaFailure(t *testing.T) {
	ix := newMemIndex()
	media := chunk.NewMemMedia("m0")
	media.FailAfter = 10
	w, _ := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media})

	data := dedupable(6, 1<<20)
	var werr error
	for off := 0; off < len(data) && werr == nil; off += 10240 {
		end := off + 10240
		if end > len(data) {
			end = len(data)
		}
		werr = w.WriteRecord(data[off:end])
	}
	if werr == nil {
		t.Fatal("media failure never surfaced")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(ix.m) == 0 {
		t.Fatal("pre-failure chunks were not committable")
	}
}

// TestWriterForwardsBindProc: a Writer over drive media rebinds the
// media's process (a multi-sink dump shard writes from its own), and
// over media with nothing to bind it is a no-op.
func TestWriterForwardsBindProc(t *testing.T) {
	media := chunk.NewDriveMedia(nil, nil)
	w, err := chunk.NewWriter(chunk.WriterOptions{Index: newMemIndex(), Media: media})
	if err != nil {
		t.Fatal(err)
	}
	bound := false
	env := sim.NewEnv()
	env.Spawn("p", func(p *sim.Proc) {
		bound = true
		if old := w.BindProc(p); old != nil || media.Proc != p {
			t.Errorf("bind: previous %v, media bound to %v", old, media.Proc)
		}
		if old := w.BindProc(nil); old != p || media.Proc != nil {
			t.Errorf("restore: previous %v, media bound to %v", old, media.Proc)
		}
	})
	env.Run()
	if !bound {
		t.Fatal("simulated process never ran")
	}
	plain, _ := chunk.NewWriter(chunk.WriterOptions{Index: newMemIndex(), Media: chunk.NewMemMedia("m")})
	if old := plain.BindProc(nil); old != nil {
		t.Errorf("mem media had a binding: %v", old)
	}
}

const hitsStreamBytes = 4 << 20

// writerHitsStep primes an index with hitsStreamBytes of random data
// and returns one iteration of dumping the same bytes again: full
// writer overhead (split + hash + lookup) on an all-hits stream, the
// dedup path that skips media entirely. The benchmark times it; the
// test pins its allocation count.
func writerHitsStep(tb testing.TB) func() {
	data := make([]byte, hitsStreamBytes)
	rand.New(rand.NewSource(42)).Read(data)
	opts := chunk.WriterOptions{Index: newMemIndex(), Media: chunk.NewMemMedia("bench")}
	step := func() {
		w, err := chunk.NewWriter(opts)
		if err != nil {
			tb.Fatal(err)
		}
		writeStream(tb, w, data)
	}
	step() // prime: every later pass is all hits
	return step
}

func BenchmarkWriterHits(b *testing.B) {
	step := writerHitsStep(b)
	b.SetBytes(hitsStreamBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestWriterHitsAllocs pins the all-hits dump at its measured 27
// allocations per 4 MiB stream (writer, splitter, manifest growth), so
// work on the dedup path has a deterministic before-number.
func TestWriterHitsAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("pooled buffers are not allocation-free under the race detector")
	}
	if n := testing.AllocsPerRun(4, writerHitsStep(t)); n > 27 {
		t.Fatalf("all-hits writer: %v allocs per 4 MiB stream, want <= 27", n)
	}
}

// TestDriveMediaRidesOutTransientReads: a dedup'd set restored off tape
// survives the marginal reads the plain tape path retries — ReadAt sits
// on the drive's one read loop — and the retry costs the fault-free
// ReadAt nothing: no allocation, the record is the drive's lent buffer.
func TestDriveMediaRidesOutTransientReads(t *testing.T) {
	drive := tape.NewDrive(nil, "d", tape.DefaultParams())
	drive.AddCartridges(tape.NewCartridge("c0"))
	media := chunk.NewDriveMedia(drive, nil)
	ix := newMemIndex()
	w, err := chunk.NewWriter(chunk.WriterOptions{Index: ix, Media: media})
	if err != nil {
		t.Fatal(err)
	}
	data := dedupable(9, 256<<10)
	m := writeStream(t, w, data)

	drive.FailNextRead(true) // the first chunk fetch
	drive.InjectFaults(tape.FaultConfig{Seed: 5, ReadFault: 0.3, ReadTransient: 1})
	if got := readStream(t, chunk.NewReader(ix, media, m)); !bytes.Equal(got, data) {
		t.Fatal("restored stream differs from input")
	}
	if drive.MediaErrors() < 2 {
		t.Fatalf("%d read faults fired; raise ReadFault", drive.MediaErrors())
	}

	// A fault that outlives the retry budget still surfaces.
	for i := 0; i < 8; i++ {
		drive.FailNextRead(true)
	}
	e, _ := ix.LookupChunk(m.Refs[0].Hash)
	if _, err := media.ReadAt(e.Loc); !tape.IsTransientMedia(err) {
		t.Fatalf("unhealed transient fault: got %v", err)
	}

	if bufpool.RaceEnabled {
		return
	}
	drive.InjectFaults(tape.FaultConfig{})
	if n := testing.AllocsPerRun(20, func() {
		if _, err := media.ReadAt(e.Loc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("fault-free ReadAt: %v allocations, want 0", n)
	}
}
