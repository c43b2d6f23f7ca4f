package engine_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/dumpfmt"
	"repro/internal/engine"
	"repro/internal/media"
	"repro/internal/stream"
)

// fixtureIndex is the SHA-256 of the file index ("path ino unit" lines)
// the logical dump of the fixture's s0 handed its FileIndex callback
// when the dump engine still spelled the index itself: 33 files, two
// hard links and three symlinks among them. Land derives it from the
// landed stream and must give the same.
const fixtureIndex = "2fc65290cd5211aaa98cd45ff236fad8a721f1c87d1c44cda6ffaa30ef33b59f"

func indexDigest(idx []catalog.FileIndexEntry) string {
	var b bytes.Buffer
	for _, e := range idx {
		fmt.Fprintf(&b, "%s %d %d\n", e.Path, e.Ino, e.Unit)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
}

// TestLand: every way a landing can go, through the one landing step.
// A clean set is healthy — a logical one with the index its stream
// yields, an image one with none; a flipped header byte is cataloged
// damaged with what was found and no index; a dedup'd set's manifest is
// in the catalog before the opener is asked for it; media the opener
// cannot produce leaves the set damaged and is an error.
func TestLand(t *testing.T) {
	for _, tc := range []struct {
		name   string
		eng    catalog.Engine
		dedup  bool
		flip   bool // flip a byte of the stream's second header
		absent bool // the opener cannot produce the media
		// want: the set's health label, a non-empty damage detail, an
		// error, the index digest ("" = no index).
		health string
		damage bool
		err    bool
		index  string
	}{
		{name: "clean logical", eng: catalog.Logical, health: "ok", index: fixtureIndex},
		{name: "clean image", eng: catalog.Image, health: "ok"},
		{name: "flipped header byte", eng: catalog.Logical, flip: true, health: "damaged", damage: true},
		{name: "dedup'd logical", eng: catalog.Logical, dedup: true, health: "ok", index: fixtureIndex},
		{name: "unopenable media", eng: catalog.Logical, absent: true, health: "damaged", err: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.snapshot("s0")
			cat, err := catalog.Open(&catalog.MemStore{})
			if err != nil {
				t.Fatal(err)
			}
			job := f.job(tc.eng, "s0", "")
			sink := &memSink{failAt: -1}
			store := chunk.NewMemMedia("store")
			var m *chunk.Manifest
			if tc.dedup {
				w, err := chunk.NewWriter(chunk.WriterOptions{Index: cat, Media: store, Engine: tc.eng.String()})
				if err != nil {
					t.Fatal(err)
				}
				if err := job.To(ctx, w); err != nil {
					t.Fatal(err)
				}
				manifest, err := w.Close()
				if err != nil {
					t.Fatal(err)
				}
				m = &manifest
			} else if err := job.To(ctx, sink); err != nil {
				t.Fatal(err)
			}
			if tc.flip {
				rec := bytes.Clone(sink.recs[0])
				rec[dumpfmt.TPBSize+60] ^= 0xFF
				sink.recs[0] = rec
			}
			ds := job.Set()
			ds.FSID, ds.Snap, ds.Media = "vol", "s0", []catalog.MediaRef{{Volume: "t0"}}
			if m != nil {
				ds.Bytes = m.RawBytes
			}

			open := func(_ context.Context, ds catalog.DumpSet, _ func(string, int)) ([]stream.Source, error) {
				switch {
				case tc.absent:
					return nil, media.Unmountable{"t0"}
				case tc.dedup:
					m, ok := cat.Manifest(ds.ID)
					if !ok {
						return nil, fmt.Errorf("set %d has no manifest journaled yet", ds.ID)
					}
					return []stream.Source{chunk.NewReader(cat, store, m)}, nil
				}
				return []stream.Source{&memSource{recs: sink.recs}}, nil
			}
			id, damage, err := engine.Land(ctx, cat, ds, m, open)
			if (err != nil) != tc.err || (damage != "") != tc.damage {
				t.Fatalf("Land: damage %q, err %v", damage, err)
			}
			if tc.absent && !errors.As(err, new(media.Unmountable)) {
				t.Fatalf("Land: %v, want the opener's error", err)
			}
			if got, ok := cat.Set(id); !ok || got.Snap != "s0" {
				t.Fatalf("set %d not journaled: %+v", id, got)
			}
			reason, _ := cat.Damaged(id)
			if got := cat.HealthLabel(id); got != tc.health {
				t.Fatalf("set %d cataloged %q (%s), want %q", id, got, reason, tc.health)
			}
			if tc.health == "damaged" && !strings.HasPrefix(reason, "ingest: ") {
				t.Fatalf("damage reason %q does not say it was found landing", reason)
			}
			idx := cat.FileIndex(id)
			if tc.index == "" && idx != nil {
				t.Fatalf("%d index entries, want none", len(idx))
			}
			if tc.index != "" && indexDigest(idx) != tc.index {
				t.Fatalf("index of %d entries, digest %s, want %s", len(idx), indexDigest(idx), tc.index)
			}
			if _, ok := cat.Manifest(id); ok != tc.dedup {
				t.Fatalf("manifest journaled %v, want %v", ok, tc.dedup)
			}
		})
	}
}
