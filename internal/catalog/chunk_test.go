package catalog

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/chunk"
)

// sampleChunkEntries builds a deterministic batch of chunk-index
// entries on volume vol.
func sampleChunkEntries(vol string, seed int64) []chunk.Entry {
	mk := func(i int) chunk.Entry {
		var h chunk.Hash
		h[0] = byte(seed)
		h[1] = byte(i)
		h[31] = 0xab
		return chunk.Entry{
			Hash:       h,
			RawLen:     uint32(1000 + i),
			StoredLen:  uint32(500 + i),
			Compressed: i%2 == 0,
			Loc:        chunk.Loc{Volume: vol, Index: int64(i)},
		}
	}
	return []chunk.Entry{mk(1), mk(2), mk(3)}
}

// sampleManifest references the first two sampleChunkEntries hashes
// (leaving the third a zero-ref sweep victim).
func sampleManifest(vol string, seed int64) chunk.Manifest {
	es := sampleChunkEntries(vol, seed)
	m := chunk.Manifest{}
	for _, e := range es[:2] {
		m.Refs = append(m.Refs, chunk.Ref{Hash: e.Hash, RawLen: e.RawLen})
		m.RawBytes += int64(e.RawLen)
		m.StoredBytes += int64(e.StoredLen)
	}
	return m
}

func TestChunkJournalRoundTrip(t *testing.T) {
	store := &MemStore{}
	c, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	entries := sampleChunkEntries("t0", 1)
	if err := c.CommitChunks(entries); err != nil {
		t.Fatal(err)
	}
	id, err := c.AppendDumpSet(sampleSet(Logical, "vol0", 0, 100, 0, 0, 0, MediaRef{Volume: "t0"}))
	if err != nil {
		t.Fatal(err)
	}
	man := sampleManifest("t0", 1)
	if err := c.AppendManifest(id, man); err != nil {
		t.Fatal(err)
	}

	// Replay from the journal bytes and compare state.
	c2, err := Open(&MemStore{Buf: store.Buf})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		got, ok := c2.LookupChunk(e.Hash)
		if !ok || got != e {
			t.Fatalf("entry %s lost or changed in replay: %+v vs %+v", e.Hash, got, e)
		}
	}
	m2, ok := c2.Manifest(id)
	if !ok || len(m2.Refs) != len(man.Refs) || m2.RawBytes != man.RawBytes || m2.StoredBytes != man.StoredBytes {
		t.Fatalf("manifest lost in replay: %+v", m2)
	}
	n, stored, dead := c2.ChunkStats()
	if n != 3 || stored != 501+502+503 || dead != 0 {
		t.Fatalf("chunk stats %d/%d/%d after replay", n, stored, dead)
	}

	// Superseding an entry (reverse dedup) moves the old copy to dead
	// bytes and redirects lookups, including after another replay.
	sup := entries[0]
	sup.Loc = chunk.Loc{Volume: "t9", Index: 42}
	sup.StoredLen = 400
	if err := c2.CommitChunks([]chunk.Entry{sup}); err != nil {
		t.Fatal(err)
	}
	if got, _ := c2.LookupChunk(sup.Hash); got.Loc.Volume != "t9" {
		t.Fatalf("superseding entry did not win: %+v", got)
	}
	if _, stored, dead := c2.ChunkStats(); stored != 400+502+503 || dead != 501 {
		t.Fatalf("supersede accounting wrong: stored %d dead %d", stored, dead)
	}
	if !c2.ChunkVolumes()["t9"] || !c2.ChunkVolumes()["t0"] {
		t.Fatalf("chunk volumes wrong: %v", c2.ChunkVolumes())
	}
}

func TestChunkRefcountsAndSweep(t *testing.T) {
	store := &MemStore{}
	c, _ := Open(store)
	if err := c.CommitChunks(sampleChunkEntries("t0", 2)); err != nil {
		t.Fatal(err)
	}
	id, _ := c.AppendDumpSet(sampleSet(Logical, "vol0", 0, 100, 0, 0, 0, MediaRef{Volume: "t0"}))
	if err := c.AppendManifest(id, sampleManifest("t0", 2)); err != nil {
		t.Fatal(err)
	}

	refs := c.ChunkRefcounts()
	es := sampleChunkEntries("t0", 2)
	if refs[es[0].Hash] != 1 || refs[es[1].Hash] != 1 || refs[es[2].Hash] != 0 {
		t.Fatalf("refcounts wrong: %v", refs)
	}

	// Sweep erases only the zero-ref chunk, and survives replay.
	var erased []chunk.Entry
	swept, err := c.SweepChunks(func(e chunk.Entry) error { erased = append(erased, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 1 || swept[0].Hash != es[2].Hash || len(erased) != 1 {
		t.Fatalf("sweep took %d chunks, want exactly the orphan", len(swept))
	}
	if _, ok := c.LookupChunk(es[2].Hash); ok {
		t.Fatal("swept chunk still in index")
	}
	if _, ok := c.LookupChunk(es[0].Hash); !ok {
		t.Fatal("referenced chunk swept")
	}

	// Expire the set: its refs die, the sweep may now take the rest.
	if err := c.Expire(id, 999); err != nil {
		t.Fatal(err)
	}
	swept, err = c.SweepChunks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(swept) != 2 {
		t.Fatalf("post-expiry sweep took %d chunks, want 2", len(swept))
	}
	c2, err := Open(&MemStore{Buf: store.Buf})
	if err != nil {
		t.Fatal(err)
	}
	if n, stored, _ := c2.ChunkStats(); n != 0 || stored != 0 {
		t.Fatalf("replayed index not empty after sweep: %d entries, %d bytes", n, stored)
	}
}

// TestChunkRecoveryTornTail is the satellite property test for the new
// record kinds: a journal whose FINAL record is a chunk-index,
// manifest or chunk-erase record, torn or corrupted at every byte
// offset, must recover to exactly the pre-record state.
func TestChunkRecoveryTornTail(t *testing.T) {
	builders := []struct {
		name string
		last func(c *Catalog, id uint64) error
	}{
		{"chunk-index", func(c *Catalog, id uint64) error {
			return c.CommitChunks(sampleChunkEntries("t7", 7))
		}},
		{"manifest", func(c *Catalog, id uint64) error {
			return c.AppendManifest(id, sampleManifest("t0", 3))
		}},
		{"chunk-erase", func(c *Catalog, id uint64) error {
			_, err := c.SweepChunks(nil)
			return err
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			store := &MemStore{}
			c, _ := Open(store)
			if err := c.CommitChunks(sampleChunkEntries("t0", 3)); err != nil {
				t.Fatal(err)
			}
			id, _ := c.AppendDumpSet(sampleSet(Logical, "vol0", 0, 100, 0, 0, 0, MediaRef{Volume: "t0"}))
			if b.name == "chunk-erase" {
				// Give the sweep victims: expire the set so every chunk
				// is zero-ref.
				if err := c.AppendManifest(id, sampleManifest("t0", 3)); err != nil {
					t.Fatal(err)
				}
				if err := c.Expire(id, 500); err != nil {
					t.Fatal(err)
				}
			}
			lastFrame := len(store.Buf)
			if err := b.last(c, id); err != nil {
				t.Fatal(err)
			}
			buf := append([]byte(nil), store.Buf...)
			wantEntries, wantStored, _ := openAt(t, buf[:lastFrame]).ChunkStats()

			for cut := lastFrame; cut < len(buf); cut++ {
				torn := append([]byte(nil), buf[:cut]...)
				st := &MemStore{Buf: torn}
				rc, err := Open(st)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if n, stored, _ := rc.ChunkStats(); n != wantEntries || stored != wantStored {
					t.Fatalf("cut %d: chunk state leaked from torn record (%d/%d vs %d/%d)",
						cut, n, stored, wantEntries, wantStored)
				}
				if len(st.Buf) != lastFrame {
					t.Fatalf("cut %d: not truncated to valid prefix", cut)
				}
			}
			for off := lastFrame; off < len(buf); off++ {
				bad := append([]byte(nil), buf...)
				bad[off] ^= 0xff
				st := &MemStore{Buf: bad}
				rc, err := Open(st)
				if err != nil {
					t.Fatalf("corrupt %d: %v", off, err)
				}
				if rc.TornBytes == 0 {
					t.Fatalf("corrupt %d: accepted", off)
				}
			}
		})
	}
}

func openAt(t *testing.T, buf []byte) *Catalog {
	t.Helper()
	c, err := Open(&MemStore{Buf: append([]byte(nil), buf...)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzDecodeChunkIndex fuzzes the chunk-index record decoder: never
// panic, and any accepted payload re-encodes canonically — except a
// version-1 record, which the encoder no longer writes: its entries
// all read at Off 0, and their re-encoding decodes to the same record.
func FuzzDecodeChunkIndex(f *testing.F) {
	for i := int64(0); i < 3; i++ {
		r := chunkIndexRecord{Entries: sampleChunkEntries(fmt.Sprintf("t%d", i), i)}
		f.Add(encodeChunkIndex(&r))
	}
	r := chunkIndexRecord{}
	f.Add(encodeChunkIndex(&r))
	f.Add(encodeChunkIndex(&chunkIndexRecord{Entries: packedChunkEntries()}))
	legacy, _ := hex.DecodeString(legacyChunkIndexHex)
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		ci, ok := rec.(chunkIndexRecord)
		if !ok {
			return
		}
		enc := encodeChunkIndex(&ci)
		if data[1] == chunkIndexPacked {
			if !bytes.Equal(enc, data) {
				t.Fatalf("decode/encode not canonical: %x -> %x", data, enc)
			}
			return
		}
		for _, e := range ci.Entries {
			if e.Loc.Off != 0 {
				t.Fatalf("version-1 entry %s read at Off %d", e.Hash, e.Loc.Off)
			}
		}
		if again, err := DecodeRecord(enc); err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("version-1 record %x re-encodes to %x, which decodes to %+v, %v", data, enc, again, err)
		}
	})
}

// FuzzDecodeManifest fuzzes the set-manifest record decoder.
func FuzzDecodeManifest(f *testing.F) {
	for i := int64(0); i < 3; i++ {
		r := chunkManifestRecord{SetID: uint64(i + 1), M: sampleManifest("t0", i)}
		f.Add(encodeChunkManifest(&r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		switch r := rec.(type) {
		case chunkManifestRecord:
			if enc := encodeChunkManifest(&r); !bytes.Equal(enc, data) {
				t.Fatalf("decode/encode not canonical: %x -> %x", data, enc)
			}
		case chunkEraseRecord:
			if enc := encodeChunkErase(&r); !bytes.Equal(enc, data) {
				t.Fatalf("decode/encode not canonical: %x -> %x", data, enc)
			}
		}
	})
}

// unpackedStream is the stream of day 1 or 2 in testdata's unpacked
// store: 192 KiB drawn from six 16 KiB blocks, half random and half
// text, with a small edit on day two.
func unpackedStream(day int) []byte {
	rng := rand.New(rand.NewSource(60))
	pool := make([][]byte, 6)
	for i := range pool {
		pool[i] = make([]byte, 16<<10)
		if i%2 == 0 {
			rng.Read(pool[i])
		} else {
			phrase := fmt.Sprintf("block %d: one chunk per record; ", i)
			for j := range pool[i] {
				pool[i][j] = phrase[j%len(phrase)]
			}
		}
	}
	var out []byte
	for len(out) < 192<<10 {
		out = append(out, pool[rng.Intn(len(pool))]...)
	}
	out = out[:192<<10]
	if day == 2 {
		copy(out[100_000:], "day two's edit")
	}
	return out
}

// TestUnpackedStoreRestores: testdata/unpacked.chunkstore and its
// journal were written before chunks were packed into containers — one
// chunk per record, chunk-index records of version 1 — by two forward
// dedup dumps of unpackedStream. Both sets still restore
// byte-identical, every entry read at Off 0.
func TestUnpackedStoreRestores(t *testing.T) {
	journal, err := os.ReadFile("testdata/unpacked.catalog")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(&MemStore{Buf: journal})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile("testdata/unpacked.chunkstore")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/unpacked.chunkstore"
	if err := os.WriteFile(path, stored, 0o644); err != nil {
		t.Fatal(err)
	}
	media, err := chunk.OpenFileMedia(path, "store")
	if err != nil {
		t.Fatal(err)
	}
	defer media.Close()
	for day := 1; day <= 2; day++ {
		m, ok := c.Manifest(uint64(day))
		if !ok {
			t.Fatalf("set %d has no manifest", day)
		}
		for _, ref := range m.Refs {
			if e, _ := c.LookupChunk(ref.Hash); e.Loc.Off != 0 {
				t.Fatalf("set %d: chunk %s read at Off %d", day, ref.Hash, e.Loc.Off)
			}
		}
		var got []byte
		for r := chunk.NewReader(c, media, m); ; {
			rec, err := r.ReadRecord()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("set %d: %v", day, err)
			}
			got = append(got, rec...)
		}
		if !bytes.Equal(got, unpackedStream(day)) {
			t.Fatalf("set %d restored %d bytes that differ from its stream", day, len(got))
		}
	}
}
