package catalog

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logical"
)

func sampleSet(engine Engine, fsid string, level int32, date, baseDate int64, gen, baseGen uint64, media ...MediaRef) DumpSet {
	return DumpSet{
		Engine:   engine,
		FSID:     fsid,
		Snap:     "snap",
		Level:    level,
		Date:     date,
		BaseDate: baseDate,
		Gen:      gen,
		BaseGen:  baseGen,
		NBlocks:  1000,
		Bytes:    4096,
		Units:    7,
		Media:    media,
	}
}

func TestJournalRoundTrip(t *testing.T) {
	store := &MemStore{}
	c, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	ds := sampleSet(Logical, "vol0", 0, 100, 0, 0, 0,
		MediaRef{Volume: "t0", Start: 0}, MediaRef{Volume: "t1", Start: 0})
	id, err := c.AppendDumpSet(ds)
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Fatalf("first set id = %d, want 1", id)
	}
	idx := []FileIndexEntry{{Path: "a/b", Ino: 5, Unit: 12}, {Path: "c", Ino: 6, Unit: 40}}
	if err := c.AppendFileIndex(id, idx); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendMediaEvent(MediaEvent{Kind: MediaRegister, Volume: "t0", Pool: "main", Time: 50}); err != nil {
		t.Fatal(err)
	}
	if err := c.Expire(id, 200); err != nil {
		t.Fatal(err)
	}
	// Idempotent expiry must not grow the journal.
	before := len(store.Buf)
	if err := c.Expire(id, 300); err != nil {
		t.Fatal(err)
	}
	if len(store.Buf) != before {
		t.Fatal("second Expire of same set grew the journal")
	}

	// Replay from the bytes.
	c2, err := Open(&MemStore{Buf: store.Buf})
	if err != nil {
		t.Fatal(err)
	}
	if c2.TornBytes != 0 {
		t.Fatalf("clean journal reported %d torn bytes", c2.TornBytes)
	}
	sets := c2.Sets()
	if len(sets) != 1 {
		t.Fatalf("replayed %d sets, want 1", len(sets))
	}
	got := sets[0]
	ds.ID = 1
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("replayed set = %+v, want %+v", got, ds)
	}
	if !reflect.DeepEqual(c2.FileIndex(1), idx) {
		t.Fatalf("replayed index = %+v", c2.FileIndex(1))
	}
	if tm, ok := c2.Expired(1); !ok || tm != 200 {
		t.Fatalf("replayed expiry = %d,%v", tm, ok)
	}
	ev := c2.MediaEvents()
	if len(ev) != 1 || ev[0].Volume != "t0" || ev[0].Kind != MediaRegister {
		t.Fatalf("replayed events = %+v", ev)
	}
	if got := c2.Live(); len(got) != 0 {
		t.Fatalf("expired set still live: %+v", got)
	}
	// New appends continue the ID sequence.
	id2, err := c2.AppendDumpSet(sampleSet(Image, "vol0", -1, 150, 0, 9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 2 {
		t.Fatalf("next id = %d, want 2", id2)
	}
}

// TestAppendRefusesWhatOpenRejects: the decoder rejects a set whose
// engine it does not know, so the writer must too — otherwise one bad
// append makes the whole journal unreadable.
func TestAppendRefusesWhatOpenRejects(t *testing.T) {
	store := &MemStore{}
	c, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{0, 3} {
		if _, err := c.AppendDumpSet(sampleSet(eng, "vol0", 0, 100, 0, 0, 0)); err == nil {
			t.Fatalf("engine %d: appended", eng)
		}
	}
	if len(store.Buf) != 0 {
		t.Fatalf("refused appends wrote %d bytes", len(store.Buf))
	}
	if _, err := c.AppendDumpSet(sampleSet(Image, "vol0", -1, 100, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(store); err != nil {
		t.Fatalf("reopen: %v", err)
	}
}

func TestFileStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	s, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendDumpSet(sampleSet(Logical, "fs", 0, 10, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	c2, err := Open(s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Sets()) != 1 {
		t.Fatalf("file journal replayed %d sets", len(c2.Sets()))
	}
}

// TestDumpDatesRoundTrip is the satellite check: the dump-date history
// reconstructed from the journal matches the in-memory one the dumps
// maintained, entry for entry, across a save/load cycle.
func TestDumpDatesRoundTrip(t *testing.T) {
	store := &MemStore{}
	c, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		fsid  string
		level int32
		date  int64
	}
	runs := []run{
		{"vol0", 0, 100},
		{"vol0", 3, 200},
		{"vol0", 2, 300}, // clears level 3
		{"vol1", 0, 150},
		{"vol0", 5, 400},
	}
	live := logical.NewDumpDates()
	for _, r := range runs {
		if _, err := c.AppendDumpSet(sampleSet(Logical, r.fsid, r.level, r.date, 0, 0, 0)); err != nil {
			t.Fatal(err)
		}
		live.Record(r.fsid, int(r.level), r.date)
	}
	// An image set must not disturb logical history.
	if _, err := c.AppendDumpSet(sampleSet(Image, "vol0", -1, 999, 0, 4, 0)); err != nil {
		t.Fatal(err)
	}
	// Expiry frees media, not history.
	if err := c.Expire(1, 500); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(&MemStore{Buf: store.Buf})
	if err != nil {
		t.Fatal(err)
	}
	got := c2.DumpDates().Entries()
	want := live.Entries()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reconstructed dump dates = %+v, want %+v", got, want)
	}
	if base := c2.DumpDates().Base("vol0", 5); base != 300 {
		t.Fatalf("level-5 base = %d, want 300 (the level-2 date)", base)
	}
}

func TestPlanLogicalChain(t *testing.T) {
	c, _ := Open(&MemStore{})
	// Full at 100, level 3 at 200 (base 100), level 5 at 300 (base 200),
	// then level 2 at 400 (base 100) starting a new branch.
	mustAppend(t, c, sampleSet(Logical, "vol0", 0, 100, 0, 0, 0, MediaRef{Volume: "a"}))
	mustAppend(t, c, sampleSet(Logical, "vol0", 3, 200, 100, 0, 0, MediaRef{Volume: "b"}))
	mustAppend(t, c, sampleSet(Logical, "vol0", 5, 300, 200, 0, 0, MediaRef{Volume: "c"}))
	mustAppend(t, c, sampleSet(Logical, "vol0", 2, 400, 100, 0, 0, MediaRef{Volume: "d"}))

	// Latest state: full + level 2.
	p, err := c.Plan(PlanOptions{Engine: Logical, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1, 4}) {
		t.Fatalf("latest chain = %v, want [1 4]", ids)
	}
	if media := p.Media(); !reflect.DeepEqual(media, []string{"a", "d"}) {
		t.Fatalf("media = %v", media)
	}

	// At 300: full + 3 + 5.
	p, err = c.Plan(PlanOptions{Engine: Logical, FSID: "vol0", At: 300})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1, 2, 3}) {
		t.Fatalf("chain at 300 = %v, want [1 2 3]", ids)
	}

	// At 250: full + 3.
	p, err = c.Plan(PlanOptions{Engine: Logical, FSID: "vol0", At: 250})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1, 2}) {
		t.Fatalf("chain at 250 = %v, want [1 2]", ids)
	}

	// Before the full: no plan.
	if _, err := c.Plan(PlanOptions{Engine: Logical, FSID: "vol0", At: 50}); err == nil {
		t.Fatal("plan before any dump succeeded")
	}
	// Unknown filesystem: no plan.
	if _, err := c.Plan(PlanOptions{Engine: Logical, FSID: "nope"}); err == nil {
		t.Fatal("plan of unknown fsid succeeded")
	}
}

func TestPlanImageChain(t *testing.T) {
	c, _ := Open(&MemStore{})
	mustAppend(t, c, sampleSet(Image, "vol0", -1, 100, 0, 4, 0))
	mustAppend(t, c, sampleSet(Image, "vol0", -1, 200, 0, 9, 4))
	mustAppend(t, c, sampleSet(Image, "vol0", -1, 300, 0, 15, 9))

	p, err := c.Plan(PlanOptions{Engine: Image, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1, 2, 3}) {
		t.Fatalf("image chain = %v, want [1 2 3]", ids)
	}
	p, err = c.Plan(PlanOptions{Engine: Image, FSID: "vol0", At: 200})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1, 2}) {
		t.Fatalf("image chain at 200 = %v, want [1 2]", ids)
	}
}

func TestPlanBrokenAndExpiredBase(t *testing.T) {
	c, _ := Open(&MemStore{})
	mustAppend(t, c, sampleSet(Logical, "vol0", 0, 100, 0, 0, 0))
	mustAppend(t, c, sampleSet(Logical, "vol0", 5, 300, 200, 0, 0)) // base never recorded
	if _, err := c.Plan(PlanOptions{Engine: Logical, FSID: "vol0"}); err == nil {
		t.Fatal("plan with missing base succeeded")
	}

	c2, _ := Open(&MemStore{})
	mustAppend(t, c2, sampleSet(Logical, "vol0", 0, 100, 0, 0, 0))
	mustAppend(t, c2, sampleSet(Logical, "vol0", 3, 200, 100, 0, 0))
	if err := c2.Expire(1, 500); err != nil {
		t.Fatal(err)
	}
	// The expired full is still needed by the live incremental.
	if _, err := c2.Plan(PlanOptions{Engine: Logical, FSID: "vol0"}); err == nil {
		t.Fatal("plan through expired base succeeded without IncludeExpired")
	}
	p, err := c2.Plan(PlanOptions{Engine: Logical, FSID: "vol0", IncludeExpired: true})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1, 2}) {
		t.Fatalf("IncludeExpired chain = %v", ids)
	}
}

func TestPlanSingleFile(t *testing.T) {
	c, _ := Open(&MemStore{})
	id1 := mustAppend(t, c, sampleSet(Logical, "vol0", 0, 100, 0, 0, 0))
	if err := c.AppendFileIndex(id1, []FileIndexEntry{{Path: "a", Ino: 4, Unit: 1}, {Path: "b", Ino: 5, Unit: 9}}); err != nil {
		t.Fatal(err)
	}
	id2 := mustAppend(t, c, sampleSet(Logical, "vol0", 3, 200, 100, 0, 0))
	if err := c.AppendFileIndex(id2, []FileIndexEntry{{Path: "b", Ino: 5, Unit: 1}}); err != nil {
		t.Fatal(err)
	}

	// b changed in the incremental: one step, the incremental.
	p, err := c.Plan(PlanOptions{Engine: Logical, FSID: "vol0", File: "/b"})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{2}) {
		t.Fatalf("file plan for b = %v, want [2]", ids)
	}
	// a only exists in the full: one step, the full.
	p, err = c.Plan(PlanOptions{Engine: Logical, FSID: "vol0", File: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1}) {
		t.Fatalf("file plan for a = %v, want [1]", ids)
	}
	// Unknown file: error.
	if _, err := c.Plan(PlanOptions{Engine: Logical, FSID: "vol0", File: "zzz"}); err == nil {
		t.Fatal("plan for unknown file succeeded")
	}
}

// TestPlanRoutesAroundDamage: when the newest chain passes through a
// damaged set, Plan must fall back to the newest chain that does not,
// and only refuse (with a typed error naming every blocked chain) when
// no undamaged chain exists.
func TestPlanRoutesAroundDamage(t *testing.T) {
	store := &MemStore{}
	c, _ := Open(store)
	// Two full+incremental generations of the same filesystem.
	mustAppend(t, c, sampleSet(Logical, "vol0", 0, 100, 0, 0, 0, MediaRef{Volume: "a"}))
	mustAppend(t, c, sampleSet(Logical, "vol0", 3, 200, 100, 0, 0, MediaRef{Volume: "b"}))
	mustAppend(t, c, sampleSet(Logical, "vol0", 0, 300, 0, 0, 0, MediaRef{Volume: "c"}))
	mustAppend(t, c, sampleSet(Logical, "vol0", 3, 400, 300, 0, 0, MediaRef{Volume: "d"}))

	p, err := c.Plan(PlanOptions{Engine: Logical, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{3, 4}) {
		t.Fatalf("baseline plan = %v, want [3 4]", ids)
	}

	// Scrub condemns the newer full: the plan must route to the older
	// generation rather than fail.
	if err := c.MarkDamaged(3, 900, "scrub: unreadable record"); err != nil {
		t.Fatal(err)
	}
	p, err = c.Plan(PlanOptions{Engine: Logical, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{1, 2}) {
		t.Fatalf("routed plan = %v, want [1 2]", ids)
	}

	// Damage to a chain MEMBER (not the target) must also divert: kill
	// the older full too and demand the typed refusal.
	if err := c.MarkDamaged(1, 901, "scrub: stream corrupt"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Plan(PlanOptions{Engine: Logical, FSID: "vol0"})
	var up *UnplannableError
	if !errors.As(err, &up) {
		t.Fatalf("want *UnplannableError, got %v", err)
	}
	if len(up.Blocked) == 0 {
		t.Fatal("UnplannableError names no blocked chains")
	}
	if !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("error does not explain the damage: %v", err)
	}

	// The salvage escape hatch restores the newest chain as-is.
	p, err = c.Plan(PlanOptions{Engine: Logical, FSID: "vol0", IncludeDamaged: true})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{3, 4}) {
		t.Fatalf("IncludeDamaged plan = %v, want [3 4]", ids)
	}

	// A repaired record (an older journal's) clears the block, live and
	// on replay.
	appendRepaired(t, c, 3, 950)
	c2, err := Open(&MemStore{Buf: append([]byte(nil), store.Buf...)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Catalog{c, c2} {
		p, err = c.Plan(PlanOptions{Engine: Logical, FSID: "vol0"})
		if err != nil {
			t.Fatal(err)
		}
		if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{3, 4}) {
			t.Fatalf("post-repair plan = %v, want [3 4]", ids)
		}
	}
}

// TestPlanDamagedBaseBlocksChain: damage mid-chain (the base, not the
// candidate target) diverts to an intact generation.
func TestPlanDamagedBaseBlocksChain(t *testing.T) {
	c, _ := Open(&MemStore{})
	mustAppend(t, c, sampleSet(Image, "vol0", -1, 100, 0, 4, 0))
	mustAppend(t, c, sampleSet(Image, "vol0", -1, 200, 0, 9, 4))
	mustAppend(t, c, sampleSet(Image, "vol0", -1, 300, 0, 15, 0)) // fresh full
	if err := c.MarkDamaged(1, 900, "scrub: unreadable record"); err != nil {
		t.Fatal(err)
	}
	// Newest candidate is 3 (a full): unaffected.
	p, err := c.Plan(PlanOptions{Engine: Image, FSID: "vol0"})
	if err != nil {
		t.Fatal(err)
	}
	if ids := planIDs(p); !reflect.DeepEqual(ids, []uint64{3}) {
		t.Fatalf("plan = %v, want [3]", ids)
	}
	// Point-in-time 200 forces the 1→2 chain, whose base is damaged and
	// has no alternative: typed refusal.
	_, err = c.Plan(PlanOptions{Engine: Image, FSID: "vol0", At: 200})
	var up *UnplannableError
	if !errors.As(err, &up) {
		t.Fatalf("want *UnplannableError, got %v", err)
	}
}

// TestSetHealthJournal: damage/repair records replay across journal
// reopen, idempotently, and surface through the health accessors.
func TestSetHealthJournal(t *testing.T) {
	store := &MemStore{}
	c, _ := Open(store)
	id := mustAppend(t, c, sampleSet(Logical, "vol0", 0, 100, 0, 0, 0, MediaRef{Volume: "a"}))
	if err := c.MarkDamaged(99, 500, "nope"); err == nil {
		t.Fatal("MarkDamaged of unknown set succeeded")
	}
	if err := c.MarkDamaged(id, 500, "scrub: unreadable record"); err != nil {
		t.Fatal(err)
	}
	before := len(store.Buf)
	// Re-damaging a damaged set must not grow the journal.
	if err := c.MarkDamaged(id, 501, "again"); err != nil {
		t.Fatal(err)
	}
	if len(store.Buf) != before {
		t.Fatal("idempotent MarkDamaged appended a record")
	}
	if reason, bad := c.Damaged(id); !bad || !strings.Contains(reason, "unreadable") {
		t.Fatalf("Damaged = %q, %v", reason, bad)
	}
	if got := c.HealthLabel(id); got != "damaged" {
		t.Fatalf("HealthLabel = %q", got)
	}
	if err := c.AppendMediaEvent(MediaEvent{Kind: MediaQuarantine, Volume: "a", Pool: "p", Time: 502}); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Volume("a"); v.State != Quarantined {
		t.Fatalf("volume a is %v after its quarantine", v.State)
	}

	// Replay: state must survive verbatim.
	store2 := &MemStore{Buf: append([]byte(nil), store.Buf...)}
	c2, err := Open(store2)
	if err != nil {
		t.Fatal(err)
	}
	if _, bad := c2.Damaged(id); !bad {
		t.Fatal("damage lost on replay")
	}
	if v, _ := c2.Volume("a"); v.State != Quarantined {
		t.Fatalf("volume a replays %v, want quarantined", v.State)
	}
	if got := c2.HealthLabel(id); got != "quarantined-media" && got != "damaged" {
		t.Fatalf("replayed HealthLabel = %q", got)
	}

	// A repaired record — nothing writes one now, but a journal from
	// before may hold one — flips it back and survives another replay.
	appendRepaired(t, c2, id, 600)
	c3, err := Open(&MemStore{Buf: append([]byte(nil), store2.Buf...)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Catalog{c2, c3} {
		if _, bad := c.Damaged(id); bad {
			t.Fatal("still damaged after repair")
		}
		if ids := c.DamagedSets(); len(ids) != 0 {
			t.Fatalf("DamagedSets after repair = %v", ids)
		}
	}
}

// appendRepaired journals a repaired verdict on a set the way the
// in-place repair of earlier versions did, so the tests keep covering
// journals that hold one.
func appendRepaired(tb testing.TB, c *Catalog, setID uint64, now int64) {
	tb.Helper()
	r := SetHealth{SetID: setID, State: HealthRepaired, Time: now, Reason: "scrub: rewrote from mirror"}
	if err := c.append(r, encodeSetHealth(&r)); err != nil {
		tb.Fatal(err)
	}
}

func mustAppend(t *testing.T, c *Catalog, ds DumpSet) uint64 {
	t.Helper()
	id, err := c.AppendDumpSet(ds)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func planIDs(p *Plan) []uint64 {
	out := make([]uint64, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.ID
	}
	return out
}
