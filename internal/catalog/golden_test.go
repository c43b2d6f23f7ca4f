package catalog

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"repro/internal/chunk"
)

// goldenRecords is one encoded payload of every journal record kind,
// with the hex the encoder produced before the record codec became a
// shared package: the journal's bytes are a durable format, and a
// refactor of the codec must not move one of them. A row without a
// payload is a format the encoder no longer writes but every journal
// that holds it must still decode.
var goldenRecords = []struct {
	name    string
	payload []byte
	hex     string
}{
	{"dump-set", encodeDumpSet(&DumpSet{
		ID: 7, Engine: Image, FSID: "vol0", Snap: "nightly", Level: 2,
		Date: 200, BaseDate: 100, Gen: 9, BaseGen: 8, NBlocks: 4096,
		Bytes: 1 << 20, Units: 33, Resumed: true,
		Media: []MediaRef{{Volume: "t0", Start: 7}, {Volume: "t1"}},
	}),
		"010107000000000000000204000000766f6c30070000006e696768746c7902000000c800000000000000640000000000" +
			"000009000000000000000800000000000000001000000000000000001000000000002100000000000000010200000002" +
			"000000743007000000000000000200000074310000000000000000"},
	{"file-index", encodeFileIndex(&fileIndexRecord{SetID: 7,
		Entries: []FileIndexEntry{{Path: "a/b", Ino: 9, Unit: 4}, {Path: "c", Ino: 10, Unit: -1}}}),
		"020107000000000000000200000003000000612f6209000000040000000000000001000000630a000000ffffffffffff" +
			"ffff"},
	{"expiry", encodeExpiry(&Expiry{SetID: 7, Time: 300}),
		"030107000000000000002c01000000000000"},
	{"media-event", encodeMediaEvent(&MediaEvent{Kind: MediaQuarantine, Volume: "t0", Pool: "main", Time: 280}),
		"040104020000007430040000006d61696e1801000000000000"},
	{"set-health", encodeSetHealth(&SetHealth{SetID: 7, State: HealthDamaged, Time: 260, Reason: "scrub: unreadable record"}),
		"060107000000000000000104010000000000001800000073637275623a20756e7265616461626c65207265636f7264"},
	{"chunk-index v1", nil, legacyChunkIndexHex},
	{"chunk-index", encodeChunkIndex(&chunkIndexRecord{Entries: packedChunkEntries()}),
		"07020300000003010000000000000000000000000000000000000000000000000000000000abe9030000f50100000002" +
			"000000743004000000000000000000000003020000000000000000000000000000000000000000000000000000000000" +
			"abea030000f6010000010200000074300400000000000000f50100000303000000000000000000000000000000000000" +
			"0000000000000000000000abeb030000f7010000000200000074300400000000000000eb030000"},
	{"chunk-manifest", encodeChunkManifest(&chunkManifestRecord{SetID: 7, M: sampleManifest("t0", 3)}),
		"08010700000000000000d307000000000000eb0300000000000002000000030100000000000000000000000000000000" +
			"00000000000000000000000000abe9030000030200000000000000000000000000000000000000000000000000000000" +
			"00abea030000"},
	{"chunk-erase", encodeChunkErase(&chunkEraseRecord{Hashes: []chunk.Hash{{1, 2, 3}, {4, 5, 6}}}),
		"090102000000010203000000000000000000000000000000000000000000000000000000000004050600000000000000" +
			"00000000000000000000000000000000000000000000"},
}

// legacyChunkIndexHex is sampleChunkEntries("t0", 3) as chunk-index
// records were journaled before chunks were packed into containers
// (version 1, no Loc.Off).
const legacyChunkIndexHex = "07010300000003010000000000000000000000000000000000000000000000000000000000abe9030000f50100000002" +
	"0000007430010000000000000003020000000000000000000000000000000000000000000000000000000000abea0300" +
	"00f601000001020000007430020000000000000003030000000000000000000000000000000000000000000000000000" +
	"000000abeb030000f7010000000200000074300300000000000000"

// packedChunkEntries is sampleChunkEntries("t0", 3) packed back to
// back into record 4.
func packedChunkEntries() []chunk.Entry {
	es := sampleChunkEntries("t0", 3)
	off := uint32(0)
	for i := range es {
		es[i].Loc.Index, es[i].Loc.Off = 4, off
		off += es[i].StoredLen
	}
	return es
}

func TestGoldenRecordBytes(t *testing.T) {
	for _, g := range goldenRecords {
		if got := hex.EncodeToString(g.payload); g.payload != nil && got != g.hex {
			t.Errorf("%s encodes to\n%s, want\n%s", g.name, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		if _, err := DecodeRecord(want); err != nil {
			t.Errorf("%s: golden bytes do not decode: %v", g.name, err)
		}
		// Truncated and trailing-byte payloads are refused, and inside
		// an intact frame ahead of another they are corruption of
		// acknowledged history, reported with both error identities.
		for _, bad := range [][]byte{want[:len(want)-1], append(append([]byte(nil), want...), 0)} {
			if _, err := DecodeRecord(bad); err == nil {
				t.Errorf("%s: a %d-byte payload decoded (golden is %d)", g.name, len(bad), len(want))
			}
			journal := append(frame(bad), frame(want)...)
			_, err := Open(&MemStore{Buf: journal})
			var ce *CorruptError
			if !errors.Is(err, ErrCorrupt) || !errors.As(err, &ce) || ce.Offset != 0 || ce.Kind != want[0] {
				t.Errorf("%s: open over a bad payload: %v", g.name, err)
			}
		}
	}
	// An old chunk-index record reads as one chunk per record: Off 0.
	legacy, _ := hex.DecodeString(legacyChunkIndexHex)
	if rec, err := DecodeRecord(legacy); err != nil || !reflect.DeepEqual(rec, chunkIndexRecord{Entries: sampleChunkEntries("t0", 3)}) {
		t.Errorf("version-1 chunk index decodes to %+v, %v", rec, err)
	}

	// Kind 5 is reserved: a record of that kind, as the push-stream
	// checkpoint once encoded it, is refused rather than replayed.
	reserved, _ := hex.DecodeString("05010500000000000000020000004d000000000000002201000000000000")
	if _, err := DecodeRecord(reserved); err == nil {
		t.Error("a kind-5 record decoded")
	}
	// A string length past MaxRecord is refused before it is believed.
	if _, err := DecodeRecord([]byte{kindMedia, 1, 4, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Error("an over-long string length decoded")
	}
}
