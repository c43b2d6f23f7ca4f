package catalog

import (
	"bytes"
	"testing"
)

// FuzzDecodeJournal throws arbitrary bytes at the journal scanner and
// record decoder — the untrusted-input boundary of the catalog. The
// invariants: never panic, never allocate unboundedly, and for any
// input Open either succeeds (with the tail truncated to a valid
// prefix) or reports corruption of acknowledged history; a successful
// Open's surviving records re-encode into a journal that replays to
// the same state.
func FuzzDecodeJournal(f *testing.F) {
	// Seed with a real journal, its truncations, and point corruptions.
	store := &MemStore{}
	c, _ := Open(store)
	id, _ := c.AppendDumpSet(DumpSet{
		Engine: Logical, FSID: "vol0", Snap: "s", Level: 3,
		Date: 200, BaseDate: 100, Bytes: 2048, Units: 3,
		Media: []MediaRef{{Volume: "t0", Start: 7}},
	})
	_ = c.AppendFileIndex(id, []FileIndexEntry{{Path: "a/b", Ino: 9, Unit: 4}})
	_ = c.Expire(id, 300)
	_ = c.AppendMediaEvent(MediaEvent{Kind: MediaActivate, Volume: "t0", Pool: "main", Time: 250})
	_ = c.MarkDamaged(id, 260, "scrub: unreadable record")
	appendRepaired(f, c, id, 270)
	_ = c.AppendMediaEvent(MediaEvent{Kind: MediaQuarantine, Volume: "t0", Pool: "main", Time: 280})
	_ = c.CommitChunks(sampleChunkEntries("t0", 0))
	id2, _ := c.AppendDumpSet(DumpSet{Engine: Logical, FSID: "vol0", Snap: "s2",
		Date: 400, Bytes: 4096, Units: 1, Media: []MediaRef{{Volume: "t0"}}})
	_ = c.AppendManifest(id2, sampleManifest("t0", 0))
	_, _ = c.SweepChunks(nil)
	whole := append([]byte(nil), store.Buf...)
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(whole[:len(whole)-3])
	mangled := append([]byte(nil), whole...)
	mangled[len(mangled)/3] ^= 0x40
	f.Add(mangled)
	f.Add([]byte{})
	f.Add([]byte{0x31, 0x54, 0x41, 0x43, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// A boolean byte other than 0 or 1 (here Resumed, the byte before
	// the empty media list's count) would decode to a set that
	// re-encodes differently: it must be refused.
	odd := encodeDumpSet(&DumpSet{ID: 1, Engine: Logical, Resumed: true})
	odd[len(odd)-5] = 2
	f.Add(odd)

	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeRecord on the raw bytes: error or record, never panic.
		if rec, err := DecodeRecord(data); err == nil {
			// A decodable payload must re-encode to the same bytes
			// (canonical encoding is what makes the journal replayable).
			var enc []byte
			switch r := rec.(type) {
			case DumpSet:
				enc = encodeDumpSet(&r)
			case fileIndexRecord:
				enc = encodeFileIndex(&r)
			case Expiry:
				enc = encodeExpiry(&r)
			case MediaEvent:
				enc = encodeMediaEvent(&r)
			case SetHealth:
				enc = encodeSetHealth(&r)
			case chunkIndexRecord:
				enc = encodeChunkIndex(&r)
			case chunkManifestRecord:
				enc = encodeChunkManifest(&r)
			case chunkEraseRecord:
				enc = encodeChunkErase(&r)
			}
			if !bytes.Equal(enc, data) {
				t.Fatalf("decode/encode not canonical: %x -> %x", data, enc)
			}
		}

		// Open on the bytes as a journal.
		buf := append([]byte(nil), data...)
		store := &MemStore{Buf: buf}
		c, err := Open(store)
		if err != nil {
			return // corruption of an intact frame: a legal outcome
		}
		if int64(len(store.Buf))+c.TornBytes != int64(len(data)) {
			t.Fatalf("prefix %d + torn %d != input %d", len(store.Buf), c.TornBytes, len(data))
		}
		// The surviving prefix must replay cleanly and identically.
		c2, err := Open(&MemStore{Buf: store.Buf})
		if err != nil {
			t.Fatalf("valid prefix failed to replay: %v", err)
		}
		if c2.TornBytes != 0 {
			t.Fatalf("valid prefix reported torn bytes")
		}
		if len(c2.Sets()) != len(c.Sets()) {
			t.Fatalf("replay drift: %d vs %d sets", len(c2.Sets()), len(c.Sets()))
		}
	})
}
