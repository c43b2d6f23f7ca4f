package scrub_test

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/dumpfmt"
	"repro/internal/engine"
	"repro/internal/media"
	"repro/internal/scrub"
	"repro/internal/stream"
	"repro/internal/tape"
)

// driveSink adapts a bare drive to the stream sink shape, untimed.
type driveSink struct{ d *tape.Drive }

func (s driveSink) WriteRecord(data []byte) error { return s.d.WriteRecord(nil, data) }
func (s driveSink) NextVolume() error             { return s.d.Load(nil) }

// rig is one cartridge holding one logical dump set, with its catalog
// and pool.
type rig struct {
	cat   *catalog.Catalog
	store *catalog.MemStore
	pool  *media.Pool
	cart  *tape.Cartridge
	setID uint64
	start int      // raw index of the set's first record
	recs  [][]byte // the records the stream occupies, as written
}

// recordSink copies every record it is handed to a list and on to its
// sink.
type recordSink struct {
	driveSink
	recs [][]byte
}

func (s *recordSink) WriteRecord(data []byte) error {
	s.recs = append(s.recs, bytes.Clone(data))
	return s.driveSink.WriteRecord(data)
}

// newRig writes a small valid logical dump stream onto a cartridge and
// catalogs it, keeping a copy of the records for stream-level checks.
func newRig(t *testing.T) *rig {
	t.Helper()
	cart := tape.NewCartridge("vol0")
	drive := tape.NewDrive(nil, "rig", tape.Params{Rate: 1 << 20})
	drive.AddCartridges(cart)
	if err := drive.Load(nil); err != nil {
		t.Fatal(err)
	}
	capture := &recordSink{driveSink: driveSink{drive}}
	start := cart.Index()
	w, err := dumpfmt.NewWriter(capture, "rig", 1000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	seg := make([]byte, dumpfmt.TPBSize)
	for i := range seg {
		seg[i] = byte(i)
	}
	for f := 0; f < 4; f++ {
		if err := w.WriteHeader(&dumpfmt.Header{Type: dumpfmt.TSInode,
			Inumber: uint32(10 + f), Count: 3, Addrs: []byte{1, 1, 1}}); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if err := w.WriteSegment(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	store := &catalog.MemStore{}
	cat, err := catalog.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	id, err := cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "fs", Snap: "s0", Level: 0, Date: 1000,
		Bytes: w.Written(), Units: 4,
		Media: []catalog.MediaRef{{Volume: "vol0", Start: int64(start)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pool := media.NewPool("p", cat)
	if err := pool.Register("vol0", cart, 0); err != nil {
		t.Fatal(err)
	}
	if err := pool.CommitSet(id, []string{"vol0"}, 1000); err != nil {
		t.Fatal(err)
	}
	return &rig{cat: cat, store: store, pool: pool, cart: cart,
		setID: id, start: start, recs: capture.recs}
}

func (r *rig) scrubber(t *testing.T) *scrub.Scrubber {
	t.Helper()
	s, err := scrub.New(scrub.Config{Catalog: r.cat, Pool: r.pool,
		Open: r.pool.Opener(tape.NewDrive(nil, "scrub/maint", tape.DefaultParams()))})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScrubCleanPass(t *testing.T) {
	r := newRig(t)
	rep, err := r.scrubber(t).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sets != 1 || rep.BytesScanned == 0 {
		t.Fatalf("scanned %d sets, %d bytes", rep.Sets, rep.BytesScanned)
	}
	if len(rep.Findings)+len(rep.Damaged)+len(rep.Quarantined) != 0 {
		t.Fatalf("clean media produced findings: %+v", rep)
	}
}

// TestScrubDegradesWithoutReplica: damage has one verdict, whatever
// found it. A latched read fault (the drive's ECC notices, at a spot)
// and a silent bit flip (only the stream's own checksums notice, with
// no spot to name) both mark the set damaged and quarantine its media:
// the volume the fault names, or — for the flip — every volume the set
// touches. The quarantine then freezes the media, and a later pass
// leaves the condemned set alone.
func TestScrubDegradesWithoutReplica(t *testing.T) {
	for _, tc := range []struct {
		name string
		rot  func(r *rig) bool
		// kind is the finding the rot must produce; located, whether it
		// names the volume and record.
		kind    scrub.FindingKind
		located bool
	}{
		{"latent fault", func(r *rig) bool { return r.cart.InjectLatentFault(r.start) }, scrub.MediaFault, true},
		{"silent flip", func(r *rig) bool { return r.cart.CorruptRecord(r.start + 1) }, scrub.StreamCorrupt, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			if !tc.rot(r) {
				t.Fatal("inject failed")
			}
			rep, err := r.scrubber(t).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, f := range rep.Findings {
				if f.SetID != r.setID {
					t.Fatalf("finding off the damaged set: %v", f)
				}
				if f.Kind == tc.kind {
					found = true
					if located := f.Volume != "" && f.Record >= 0; located != tc.located {
						t.Fatalf("%v: located %v, want %v", f, located, tc.located)
					}
				}
			}
			if !found {
				t.Fatalf("no %s finding: %+v", tc.kind, rep)
			}
			if len(rep.Damaged) != 1 || rep.Damaged[0] != r.setID {
				t.Fatalf("set not marked damaged: %+v", rep)
			}
			ds, _ := r.cat.Set(r.setID)
			if len(rep.Quarantined) != len(ds.Media) || rep.Quarantined[0] != "vol0" {
				t.Fatalf("quarantined %v, want every volume of %v", rep.Quarantined, ds.Media)
			}
			if _, bad := r.cat.Damaged(r.setID); !bad {
				t.Fatal("catalog does not report the set damaged")
			}
			v, _ := r.pool.Volume("vol0")
			if v.State != media.Quarantined {
				t.Fatalf("pool state = %s, want quarantined", v.State)
			}
			// Quarantine is frozen: no reclaim, no erase.
			if got, err := r.pool.Reclaim(5000); err != nil || len(got) != 0 {
				t.Fatalf("Reclaim touched quarantined media: %v %v", got, err)
			}
			if err := r.pool.Erase("vol0", 5000); err == nil ||
				!strings.Contains(err.Error(), "quarantined") {
				t.Fatalf("Erase of quarantined volume: %v", err)
			}
			// A second pass skips the already-damaged set.
			rep2, err := r.scrubber(t).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep2.Sets != 0 {
				t.Fatalf("damaged set re-scanned: %+v", rep2)
			}
		})
	}
}

// TestScanReportsWithoutActing: Scan is Run's scan with nothing done
// about it — the same findings, no set marked, no volume quarantined —
// and it passes over a resumed set as Run does. Run over the same
// state then condemns the set on those findings.
func TestScanReportsWithoutActing(t *testing.T) {
	r := newRig(t)
	r.cart.InjectLatentFault(r.start)
	if _, err := r.cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "fs", Snap: "s1", Level: 0, Date: 2000, Resumed: true,
		Media: []catalog.MediaRef{{Volume: "vol0"}, {Volume: "vol0"}},
	}); err != nil {
		t.Fatal(err)
	}
	s := r.scrubber(t)
	rep, err := s.Scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sets != 1 || len(rep.Findings) == 0 {
		t.Fatalf("scan of one latent fault beside a resumed set: %+v", rep)
	}
	for _, f := range rep.Findings {
		if f.SetID != r.setID {
			t.Fatalf("finding off the faulted set: %v", f)
		}
	}
	if len(rep.Damaged)+len(rep.Quarantined) != 0 || r.cart.BadRecords() != 1 {
		t.Fatalf("a report-only pass acted: %+v, %d bad records", rep, r.cart.BadRecords())
	}
	if _, bad := r.cat.Damaged(r.setID); bad {
		t.Fatal("a report-only pass marked the set damaged")
	}
	if v, _ := r.pool.Volume("vol0"); v.State != media.Active {
		t.Fatalf("a report-only pass moved vol0 to %s", v.State)
	}
	// Run over the same state condemns the set on the same findings.
	run, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run.Findings, rep.Findings) {
		t.Fatalf("run found %v, scan %v", run.Findings, rep.Findings)
	}
	if len(run.Damaged) != 1 || run.Damaged[0] != r.setID ||
		len(run.Quarantined) != 1 || run.Quarantined[0] != "vol0" {
		t.Fatalf("run after scan did not condemn set %d: %+v", r.setID, run)
	}
}

// TestScrubQuarantineSurvivesReopen: a scrub's damage and quarantine
// replay from the journal. A set committed to the quarantined volume
// afterwards — a schedule keeps writing to its cartridge — lifts
// nothing: the volume stays quarantined, live and replayed, and
// neither Reclaim nor Erase touches it once every set on it expires.
func TestScrubQuarantineSurvivesReopen(t *testing.T) {
	r := newRig(t)
	r.cart.InjectLatentFault(r.start)
	if _, err := r.scrubber(t).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	later, err := r.cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "fs", Snap: "s1", Level: 0, Date: 2000,
		Bytes: 100, Media: []catalog.MediaRef{{Volume: "vol0", Start: int64(r.cart.Index())}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.pool.CommitSet(later, []string{"vol0"}, 2000); err != nil {
		t.Fatal(err)
	}
	if v, _ := r.pool.Volume("vol0"); v.State != media.Quarantined {
		t.Fatalf("committing set %d lifted the quarantine: vol0 %s", later, v.State)
	}
	for _, id := range []uint64{r.setID, later} {
		if err := r.cat.Expire(id, 3000); err != nil {
			t.Fatal(err)
		}
	}

	// Replay the journal into a fresh catalog + pool: health and
	// quarantine must come back.
	cat2, err := catalog.Open(&catalog.MemStore{Buf: append([]byte(nil), r.store.Buf...)})
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := cat2.Damaged(r.setID); !bad {
		t.Fatal("damage lost across journal replay")
	}
	for _, p := range []struct {
		name string
		pool *media.Pool
	}{{"live", r.pool}, {"replayed", media.NewPool("p", cat2)}} {
		v, ok := p.pool.Volume("vol0")
		if !ok || v.State != media.Quarantined {
			t.Fatalf("%s: quarantine lost: %+v", p.name, v)
		}
		if got, err := p.pool.Reclaim(5000); err != nil || len(got) != 0 {
			t.Fatalf("%s: Reclaim touched quarantined media: %v %v", p.name, got, err)
		}
		if err := p.pool.Erase("vol0", 5000); err == nil ||
			!strings.Contains(err.Error(), "quarantined") {
			t.Fatalf("%s: Erase of quarantined volume: %v", p.name, err)
		}
	}
	if r.cart.Records() == 0 {
		t.Fatal("the quarantined cartridge was erased")
	}
}

func TestFsckFindings(t *testing.T) {
	r := newRig(t)
	// Orphan: a live set naming a volume the pool has never seen.
	orphanID, err := r.cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "fs", Snap: "s1", Level: 0, Date: 2000,
		Bytes: 100, Media: []catalog.MediaRef{{Volume: "ghost"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Missing base: an incremental whose base date matches nothing.
	mbID, err := r.cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "fs", Snap: "s2", Level: 1, Date: 3000,
		BaseDate: 77, Bytes: 100, Media: []catalog.MediaRef{{Volume: "vol0", Start: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Index past extent: a file-index unit beyond the set's stream.
	if err := r.cat.AppendFileIndex(r.setID, []catalog.FileIndexEntry{
		{Path: "/late", Ino: 9, Unit: 1 << 20},
	}); err != nil {
		t.Fatal(err)
	}
	got := map[scrub.FindingKind]int{}
	for _, f := range scrub.Fsck(r.cat, scrub.FsckOptions{Pool: r.pool}) {
		got[f.Kind]++
	}
	if got[scrub.OrphanSet] == 0 {
		t.Fatalf("orphan set %d not found: %v", orphanID, got)
	}
	if got[scrub.MissingBase] == 0 {
		t.Fatalf("missing base of set %d not found: %v", mbID, got)
	}
	if got[scrub.IndexPastExtent] == 0 {
		t.Fatalf("index-past-extent not found: %v", got)
	}

	// File-backed volumes: a stream file shorter than its set is a
	// finding; the chunk store behind a manifest set is shared and
	// compressed, and its size says nothing about one set.
	chunkedID, err := r.cat.AppendDumpSet(catalog.DumpSet{
		Engine: catalog.Logical, FSID: "other", Snap: "s3", Level: 0, Date: 4000,
		Bytes: 1 << 20, Media: []catalog.MediaRef{{Volume: "fs.chunkstore"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	small := scrub.FsckOptions{HaveVolume: func(string) (int64, bool) { return 1000, true }}
	short := func() (sets []uint64) {
		for _, f := range scrub.Fsck(r.cat, small) {
			if f.Kind == scrub.IndexPastExtent && f.Volume != "" {
				sets = append(sets, f.SetID)
			}
		}
		return sets
	}
	if got := short(); len(got) != 2 || got[0] != r.setID || got[1] != chunkedID {
		t.Fatalf("sets larger than their 1000-byte files: %v, want %d and %d", got, r.setID, chunkedID)
	}
	if err := r.cat.AppendManifest(chunkedID, chunk.Manifest{RawBytes: 1 << 20, StoredBytes: 900}); err != nil {
		t.Fatal(err)
	}
	if got := short(); len(got) != 1 || got[0] != r.setID {
		t.Fatalf("with a manifest on set %d: short sets %v, want only %d", chunkedID, got, r.setID)
	}

	// Pool mismatch: erase the cartridge behind the pool's back.
	r.cart.Erase()
	found := false
	for _, f := range scrub.Fsck(r.cat, scrub.FsckOptions{Pool: r.pool}) {
		if f.Kind == scrub.PoolStateMismatch && f.Volume == "vol0" {
			found = true
		}
	}
	if !found {
		t.Fatal("blank active media not reported as pool-state-mismatch")
	}
}

// memSource replays a record list, io.EOF at the end.
type memSource struct {
	recs [][]byte
	i    int
}

func (m *memSource) ReadRecord() ([]byte, error) {
	if m.i >= len(m.recs) {
		return nil, io.EOF
	}
	r := m.recs[m.i]
	m.i++
	return r, nil
}

// TestVerifySetStream: the set-level check a scan runs — the one a set
// lands through, engine.CheckSet — passes the stream as written and
// fails a corrupted or truncated copy of it.
func TestVerifySetStream(t *testing.T) {
	r := newRig(t)
	ds, _ := r.cat.Set(r.setID)
	recs := r.recs
	if fs, _, _ := engine.CheckSet(context.Background(), ds, []stream.Source{&memSource{recs: recs}}); len(fs) != 0 {
		t.Fatalf("clean stream produced findings: %v", fs)
	}
	// Corrupt one record copy: the stream check must notice.
	bad := make([][]byte, len(recs))
	copy(bad, recs)
	c := append([]byte(nil), bad[1]...)
	for i := range c {
		c[i] ^= 0xFF
	}
	bad[1] = c
	if fs, _, _ := engine.CheckSet(context.Background(), ds, []stream.Source{&memSource{recs: bad}}); len(fs) == 0 {
		t.Fatal("corrupted stream passed verification")
	}
	// Truncated stream: fewer bytes than the catalog recorded.
	if fs, _, _ := engine.CheckSet(context.Background(), ds, []stream.Source{&memSource{recs: recs[:1]}}); len(fs) == 0 {
		t.Fatal("truncated stream passed verification")
	}
}
