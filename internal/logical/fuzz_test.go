package logical

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/wafl"
)

// FuzzDecodeDirEnts hammers the directory-record decoder with
// arbitrary bytes. It must never panic, and anything it accepts must
// survive a re-encode/re-decode round trip unchanged — the property
// restore depends on when it replays directory records from tape.
//
// The same bytes, cut in two at cut, then go through the arena a
// restore stream keeps its directories in, between two good
// directories: every blob must decode there exactly as it does alone,
// and one that does not decode is dropped alone.
func FuzzDecodeDirEnts(f *testing.F) {
	// Seed with real encodings, including the edge shapes: empty list,
	// empty name, long name, high inode numbers, every type byte.
	f.Add([]byte{}, uint16(0))
	f.Add(appendDirEnts(nil, []wafl.DirEnt{
		{Ino: 2, Type: wafl.ModeDir, Name: "."},
		{Ino: 2, Type: wafl.ModeDir, Name: ".."},
		{Ino: 7, Type: wafl.ModeReg, Name: "file0001.dat"},
	}), uint16(9))
	f.Add(appendDirEnts(nil, []wafl.DirEnt{
		{Ino: 1<<32 - 1, Type: wafl.ModeSymlink, Name: string(bytes.Repeat([]byte("n"), 255))},
		{Ino: 0, Type: 0, Name: ""},
	}), uint16(262))
	// A real record with a truncated tail, as a torn tape would leave.
	whole := appendDirEnts(nil, []wafl.DirEnt{{Ino: 9, Type: wafl.ModeReg, Name: "victim"}})
	f.Add(whole[:len(whole)-3], uint16(4))

	good := appendDirEnts(nil, []wafl.DirEnt{
		{Ino: 3, Type: wafl.ModeDir, Name: "."},
		{Ino: 2, Type: wafl.ModeDir, Name: ".."},
		{Ino: 11, Type: wafl.ModeReg, Name: "kept"},
	})
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		if ents, err := DecodeDirEnts(data); err == nil {
			again, err := DecodeDirEnts(appendDirEnts(nil, ents))
			if err != nil {
				t.Fatalf("re-decode of accepted input failed: %v", err)
			}
			if len(again) != len(ents) {
				t.Fatalf("round trip changed entry count: %d -> %d", len(ents), len(again))
			}
			for i := range ents {
				if again[i] != ents[i] {
					t.Fatalf("round trip changed entry %d: %+v -> %+v", i, ents[i], again[i])
				}
			}
		}

		k := min(int(cut), len(data))
		blobs := [][]byte{good, data[:k], data[k:], good}
		var a dirArena
		want := map[wafl.Inum][]wafl.DirEnt{}
		for i, blob := range blobs {
			ino := wafl.Inum(100 + i)
			mark := len(a.buf)
			a.buf = append(a.buf, blob...)
			alone, err := DecodeDirEnts(blob)
			if kept := a.keep(ino, mark); kept != (err == nil) {
				t.Fatalf("blob %d: arena kept it %v, alone it decodes with %v", i, kept, err)
			}
			if err == nil {
				want[ino] = alone
			}
		}
		got := a.entries()
		if len(got) != len(want) {
			t.Fatalf("arena holds %d directories, want %d", len(got), len(want))
		}
		for ino, ents := range want {
			if g := got[ino]; !reflect.DeepEqual(g, ents) {
				t.Fatalf("directory %d from the arena: %+v, alone %+v", ino, g, ents)
			}
			if g := got[ino]; cap(g) != len(g) {
				t.Fatalf("directory %d: %d entries in a slice of capacity %d", ino, len(g), cap(g))
			}
		}
	})
}
