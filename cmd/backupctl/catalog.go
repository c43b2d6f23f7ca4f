// Backup catalog for backupctl: every completed dump/imagedump/push
// is recorded in an append-only journal beside the volume image
// (<vol>.catalog), and the catalog — not the operator — answers "which
// streams, in which order" at restore time:
//
//	backupctl -vol home.img catalog                  # list recorded sets
//	backupctl -vol home.img plan -at 1234            # show the restore chain
//	backupctl -vol home.img recover -at 1234         # execute it
//	backupctl -vol home.img recover -file docs/readme
//	backupctl -vol home.img catalog -expire 3        # retention by hand
//
// The serve side keeps its own catalog (<out>.catalog) of pushed
// streams, built from the session Hello and the stream headers; with
// -standby it is a mirrored pair every command opens, which `replica
// status` inspects.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/ndmp"
	"repro/internal/wafl"
)

// catalogPath names the journal beside a volume image.
func catalogPath(vol string) string { return vol + ".catalog" }

// standbyRecord names the one-line record `serve -standby` leaves beside
// a base: the path of the standby journal mirrored with its catalog.
func standbyRecord(base string) string { return catalogPath(base) + ".standby" }

// bindStandby records standby beside base, or checks that the record
// there names the same file: a different one is refused before either
// journal is opened, since a fresh empty standby beside a lost primary
// would open as an empty catalog.
func bindStandby(base, standby string) error {
	abs, err := filepath.Abs(standby)
	if standby == "" || err != nil {
		return err
	}
	recorded, err := os.ReadFile(standbyRecord(base))
	if len(recorded) == 0 && (err == nil || errors.Is(err, fs.ErrNotExist)) {
		return os.WriteFile(standbyRecord(base), []byte(abs+"\n"), 0644)
	}
	if err == nil && string(recorded) != abs+"\n" {
		err = fmt.Errorf("%s is mirrored to %s, not to -standby %s", catalogPath(base), bytes.TrimSpace(recorded), standby)
	}
	return err
}

// openCatalog opens (creating if absent) the catalog journal beside
// base; the caller runs done when finished with it. Where serve has
// recorded a standby beside base, every command opens the mirrored pair:
// a catalog.Mirror over <base>.catalog and the standby, ideally on
// different media. Opening it keeps the copy with the longest valid
// journal and repairs the other from it, and every append lands in both
// files or fails, so losing either file loses no acknowledged record.
func openCatalog(base string) (cat *catalog.Catalog, done func(), err error) {
	standby, err := os.ReadFile(standbyRecord(base))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, err
	}
	primary, err := catalog.OpenFileStore(catalogPath(base))
	if err != nil {
		return nil, nil, err
	}
	var store catalog.Store = primary
	done = func() { primary.Close() }
	if len(standby) > 0 {
		second, err := catalog.OpenFileStore(strings.TrimSuffix(string(standby), "\n"))
		if err == nil {
			// The mirror has no Close of its own: it only borrows the stores.
			done = func() { primary.Close(); second.Close() }
			store, err = catalog.Mirror(primary, second)
		}
		if err != nil {
			done()
			return nil, nil, err
		}
	}
	if cat, err = catalog.Open(store); err != nil {
		done()
		return nil, nil, err
	}
	if cat.TornBytes > 0 {
		fmt.Fprintf(os.Stderr, "backupctl: catalog: dropped %d torn trailing bytes (crash mid-append)\n", cat.TornBytes)
	}
	return cat, done, nil
}

// replicaCommand is `backupctl replica status`: it compares the two
// journal files of a mirrored pair the way the next open will, by their
// valid prefixes. It only reads — a missing file counts as empty and is
// not created.
func replicaCommand(rest []string) error {
	if len(rest) == 0 {
		return fmt.Errorf("replica: subcommand required (status)")
	}
	if rest[0] != "status" {
		return fmt.Errorf("replica: unknown subcommand %q", rest[0])
	}
	set := newFlagSet("replica status")
	primary := set.String("primary", "", "primary catalog journal (default <vol>.catalog of -o base)")
	standby := set.String("standby", "", "standby catalog journal")
	if err := set.Parse(rest[1:]); err != nil {
		return err
	}
	if *primary == "" || *standby == "" {
		return fmt.Errorf("replica status: -primary and -standby required")
	}
	var bufs [2][]byte
	names, paths := [2]string{"primary", "standby"}, [2]string{*primary, *standby}
	for i, path := range paths {
		buf, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		bufs[i] = buf
	}
	lead, n := catalog.MirrorLead(bufs[0], bufs[1])
	for i, path := range paths {
		cat, err := catalog.Open(&catalog.MemStore{Buf: bufs[i][:n[i]]})
		if err != nil {
			return fmt.Errorf("replica status: %s does not replay: %w", names[i], err)
		}
		fmt.Printf("%s %s: %d bytes (%d valid), %d sets\n", names[i], path, len(bufs[i]), n[i], len(cat.Sets()))
	}
	if bytes.Equal(bufs[0][:n[0]], bufs[1][:n[1]]) {
		fmt.Println("state: in sync")
	} else {
		fmt.Printf("state: %s leads by %d bytes, the other copy is caught up at next open\n",
			names[lead], n[lead]-n[1-lead])
	}
	return nil
}

// catalogDates returns the dump-date history for vol: derived from the
// catalog when it has logical sets (the journal is authoritative),
// otherwise from the legacy <vol>.dumpdates file.
func catalogDates(cat *catalog.Catalog, vol string) *logical.DumpDates {
	d := cat.DumpDates()
	if len(d.Entries()) > 0 {
		return d
	}
	legacy, _ := loadDates(vol)
	return legacy
}

// catalogCommand lists and edits the catalog beside -vol.
func catalogCommand(vol string, rest []string) error {
	set := newFlagSet("catalog")
	media := set.Bool("media", false, "also list media-lifecycle events")
	files := set.Uint64("files", 0, "print the file index of this set id")
	expire := set.Uint64("expire", 0, "mark this set id expired (manual retention)")
	now := set.Int64("now", 0, "timestamp recorded with -expire")
	sweep := set.Bool("sweep", false, "erase zero-ref chunks from <vol>.chunkstore")
	if err := set.Parse(rest); err != nil {
		return err
	}
	if vol == "" {
		return fmt.Errorf("catalog: -vol required")
	}
	cat, done, err := openCatalog(vol)
	if err != nil {
		return err
	}
	defer done()

	if *sweep {
		return sweepChunks(cat, vol)
	}
	if *expire != 0 {
		if err := cat.Expire(*expire, *now); err != nil {
			return err
		}
		fmt.Printf("set %d expired\n", *expire)
		return nil
	}
	if *files != 0 {
		idx := cat.FileIndex(*files)
		if len(idx) == 0 {
			return fmt.Errorf("catalog: set %d has no file index", *files)
		}
		for _, e := range idx {
			fmt.Printf("ino=%-6d unit=%-8d %s\n", e.Ino, e.Unit, e.Path)
		}
		return nil
	}

	sets := cat.Sets()
	if len(sets) == 0 {
		fmt.Println("catalog is empty")
		return nil
	}
	for _, ds := range sets {
		state := "live"
		if when, dead := cat.Expired(ds.ID); dead {
			state = fmt.Sprintf("expired@%d", when)
		}
		health := cat.HealthLabel(ds.ID)
		// Dedup column: raw-to-stored ratio of the set's chunk manifest,
		// "-" for conventional stream sets.
		dd := "-"
		if m, ok := cat.Manifest(ds.ID); ok {
			if m.StoredBytes > 0 {
				dd = fmt.Sprintf("%.1fx", float64(m.RawBytes)/float64(m.StoredBytes))
			} else {
				dd = "inf" // every chunk was a hit; the set stored nothing
			}
		}
		var vols []string
		for _, m := range ds.Media {
			vols = append(vols, m.Volume)
		}
		if ds.Engine == catalog.Image {
			fmt.Printf("%-3d image   gen=%-6d base=%-6d %8d blocks %10d bytes %-12s %-17s dedup=%-5s %s\n",
				ds.ID, ds.Gen, ds.BaseGen, ds.Units, ds.Bytes, state, health, dd, strings.Join(vols, ","))
		} else {
			fmt.Printf("%-3d logical lvl=%-2d date=%-8d base=%-8d %6d files %10d bytes %-12s %-17s dedup=%-5s %s\n",
				ds.ID, ds.Level, ds.Date, ds.BaseDate, ds.Units, ds.Bytes, state, health, dd, strings.Join(vols, ","))
		}
	}
	if entries, stored, dead := cat.ChunkStats(); entries > 0 {
		zero := 0
		for _, n := range cat.ChunkRefcounts() {
			if n == 0 {
				zero++
			}
		}
		fmt.Printf("chunks: %d indexed, %d stored bytes, %d dead bytes, %d zero-ref (catalog -sweep erases them)\n",
			entries, stored, dead, zero)
	}
	if *media {
		for _, ev := range cat.MediaEvents() {
			fmt.Printf("media %-10s %s (pool %s) at %d\n", ev.Kind, ev.Volume, ev.Pool, ev.Time)
		}
	}
	return nil
}

// selectPlan is what plan and recover share: parse the flags that name a
// restore point (the caller has registered its own on set) and return
// the chain the catalog beside vol selects for it, with that catalog —
// recover opens the chain's sets through it — and its closer.
func selectPlan(set *flag.FlagSet, vol string, rest []string) (*catalog.Plan, *catalog.Catalog, func(), error) {
	engine := set.String("engine", "logical", "dump family to plan from: logical or image")
	at := set.Int64("at", 0, "target time: newest state dumped at or before this (0 = latest)")
	file := set.String("file", "", "plan a single-file recovery of this dump-relative path")
	expired := set.Bool("expired", false, "allow expired sets (media not yet reclaimed)")
	damaged := set.Bool("damaged", false, "allow damaged sets (salvage: restore may be partial)")
	if err := set.Parse(rest); err != nil {
		return nil, nil, nil, err
	}
	if vol == "" {
		return nil, nil, nil, fmt.Errorf("%s: -vol required", set.Name())
	}
	eng := catalog.Logical
	switch *engine {
	case "logical":
	case "image":
		eng = catalog.Image
	default:
		return nil, nil, nil, fmt.Errorf("%s: unknown -engine %q (want logical or image)", set.Name(), *engine)
	}
	cat, done, err := openCatalog(vol)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := cat.Plan(catalog.PlanOptions{
		Engine: eng, FSID: vol, At: *at, File: *file,
		IncludeExpired: *expired, IncludeDamaged: *damaged,
	})
	if err != nil {
		done()
		return nil, nil, nil, err
	}
	return plan, cat, done, nil
}

// planCommand prints the restore chain the catalog selects.
func planCommand(vol string, rest []string) error {
	plan, _, done, err := selectPlan(newFlagSet("plan"), vol, rest)
	if err != nil {
		return err
	}
	defer done()
	fmt.Print(plan.String())
	fmt.Printf("media: %s\n", strings.Join(plan.Media(), " "))
	return nil
}

// recoverCommand executes a catalog-selected restore chain: the
// operator names a time (or file), the catalog names the streams.
func recoverCommand(ctx context.Context, vol string, rest []string) error {
	set := newFlagSet("recover")
	target := set.String("target", "/", "directory to graft a logical recovery onto")
	wipe := set.Bool("wipe", false, "reformat the volume before a full logical recovery (frees snapshot-pinned space)")
	plan, cat, done, err := selectPlan(set, vol, rest)
	if err != nil {
		return err
	}
	defer done()
	eng := plan.Engine
	fmt.Print(plan.String())

	// A single-file image plan extracts offline and touches no volume;
	// everything else lands on -vol: a logical chain on its mounted (or,
	// with -wipe, reformatted) filesystem, an image chain on the raw
	// device, sized from the catalog when it has to be created.
	var t engine.Target
	if eng == catalog.Logical || plan.File == "" {
		nblocks := 0
		if eng == catalog.Image {
			nblocks = int(plan.Steps[0].NBlocks)
		}
		dev, err := openOrCreate(vol, nblocks)
		if err != nil {
			return err
		}
		defer dev.Close()
		t = engine.Target{Vol: dev, Dir: *target}
		if eng == catalog.Logical && *wipe && plan.File == "" {
			// Disaster recovery: reformat, once every step has opened, so
			// snapshot-pinned blocks don't starve the restore's allocation.
			t.Wipe = func(ctx context.Context) (*wafl.FS, error) { return wafl.Mkfs(ctx, dev, nil, wafl.Options{}) }
		} else if eng == catalog.Logical {
			if t.FS, err = wafl.Mount(ctx, dev, nil, wafl.Options{}); err != nil {
				return err
			}
		}
	}
	sets := &setOpener{cat: cat, vol: vol}
	defer sets.Close()
	res, err := engine.Recover(ctx, plan, t, sets.open, func(i int, step catalog.DumpSet, r *engine.Restored) {
		if eng == catalog.Image {
			fmt.Printf("step %d/%d: set %d: %d blocks restored (generation %d)\n",
				i+1, len(plan.Steps), step.ID, r.BlocksRestored, r.Gen)
		} else {
			fmt.Printf("step %d/%d: set %d: %d files restored, %d deleted\n",
				i+1, len(plan.Steps), step.ID, r.FilesRestored, r.Deleted)
		}
	})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	return writeExtracted(res.Files)
}

// recordReceived lands a cleanly closed push session in the server's
// own catalog (<base>.catalog, mirrored where serve recorded a standby).
// All streams of a session are one dump — checkpoint resumes add
// streams, not dumps — so they land as a single DumpSet whose Media
// lists the stream files, read off the host's sinks, in replay order.
// Engine and level come off the wire Hello; dump dates and generations
// come from the stream headers, so the server's catalog can plan
// restore chains exactly like the client's.
//
// Nothing is cataloged healthy on the sender's word: engine.Land reads
// the landed files back (of a resumed set, the last) and indexes a
// logical set from them, so `plan -file` prunes a pushed chain; a set
// with findings is journaled damaged, and `plan` routes around it.
func recordReceived(ctx context.Context, base string, ends []ndmp.StreamEnd) error {
	if len(ends) == 0 {
		return nil
	}
	cat, done, err := openCatalog(base)
	if err != nil {
		return err
	}
	defer done()
	// serve's sinks are stream files. Every stream of the set carries
	// the same header values; the last completed, so it surely has one.
	hello, last := ends[0].Hello, ends[len(ends)-1].Sink.(*fileSink).f.Name()
	src, err := openStream(last)
	if err != nil {
		return err
	}
	ds, err := engine.ScanSet(ctx, catalog.Engine(hello.Kind), src)
	src.Close()
	if err != nil {
		return fmt.Errorf("serve: catalog %s: %w", last, err)
	}
	ds.FSID, ds.Level, ds.Resumed = hello.FSID, hello.Level, len(ends) > 1
	for _, e := range ends {
		ds.Bytes += e.Bytes
		ds.Media = append(ds.Media, catalog.MediaRef{Volume: e.Sink.(*fileSink).f.Name()})
	}
	id, damage, err := engine.Land(ctx, cat, ds, nil, (&setOpener{cat: cat}).open)
	if err == nil && damage != "" {
		fmt.Fprintf(os.Stderr, "backupctl: serve: set %d failed verification on landing, cataloged damaged: %s\n", id, damage)
	}
	return err
}

// --- per-command usage (the help subcommand).

type commandDoc struct {
	name     string
	synopsis string
	detail   string
}

// commandDocs drives both `backupctl help` and each flag set's Usage.
var commandDocs = []commandDoc{
	{"mkfs", "mkfs -blocks N", "format -vol as a fresh filesystem"},
	{"put", "put <hostfile> </fs/path>", "copy a host file into the volume"},
	{"cat", "cat </fs/path>", "print a file from the volume"},
	{"ls", "ls [/fs/path]", "list a directory"},
	{"rm", "rm </fs/path>", "remove a file"},
	{"snap", "snap create|delete|ls|revert [name]", "manage snapshots"},
	{"df", "df", "show block and inode usage"},
	{"fsck", "fsck", "check filesystem consistency and cross-check <vol>.catalog"},
	{"fill", "fill -mb N [-seed N]", "generate a synthetic dataset"},
	{"age", "age -rounds N [-seed N]", "churn the dataset to fragment it"},
	{"dump", "dump -o FILE|-dedup [-revdedup] [-level N] [-subtree DIR]", "logical dump; -dedup chunks it into <vol>.chunkstore"},
	{"restore", "restore -i FILE|-set ID [-from VOL] [-file PATH] [-target DIR] [-sync-deletes]", "apply one logical stream file, or any cataloged set (stream files, resumed or not, or dedup-encoded)"},
	{"verify", "verify -i FILE [-subtree DIR]", "compare a logical stream against the volume"},
	{"imagedump", "imagedump -o FILE|-dedup [-revdedup] [-snap NAME] [-base NAME]", "physical image dump; -dedup chunks it into <vol>.chunkstore"},
	{"imagerestore", "imagerestore -i FILE|-set ID [-from VOL] [-incremental]", "apply one image stream file to -vol, or any cataloged set (stream files, resumed or not, or dedup-encoded)"},
	{"imageverify", "imageverify -i FILE", "check an image stream's integrity"},
	{"extract", "extract -i FULL [-incr A,B] PATH...", "pull files out of image streams offline"},
	{"catalog", "catalog [-media] [-files ID] [-expire ID -now T] [-sweep]", "list or edit the backup catalog (health + dedup columns; -sweep erases zero-ref chunks)"},
	{"scrub", "scrub [-mark]", "read back and verify every live set, stream file or dedup-encoded (-mark: record the damaged ones)"},
	{"plan", "plan [-engine E] [-at T] [-file PATH] [-expired] [-damaged]", "show the restore chain the catalog selects (routes around damaged sets)"},
	{"recover", "recover [-engine E] [-at T] [-file PATH] [-target DIR] [-wipe] [-damaged]", "execute a catalog-selected restore chain"},
	{"push", "push -to HOST:PORT [-kind logical|image] [-level N]", "dump across the network to a serve host"},
	{"serve", "serve -listen ADDR -o FILE [-standby FILE] [-once]", "receive pushed streams; recorded in <out>.catalog, mirrored to -standby by every command once serve records it"},
	{"replica", "replica status -primary FILE -standby FILE", "report catalog journal replication state"},
	{"help", "help [command]", "show usage"},
}

func findDoc(name string) *commandDoc {
	for i := range commandDocs {
		if commandDocs[i].name == name {
			return &commandDocs[i]
		}
	}
	return nil
}

// newFlagSet builds a command's flag set whose -h/usage output names
// the command's synopsis instead of the bare flag dump.
func newFlagSet(name string) *flag.FlagSet {
	set := flag.NewFlagSet(name, flag.ContinueOnError)
	set.Usage = func() {
		if doc := findDoc(name); doc != nil {
			fmt.Fprintf(set.Output(), "usage: backupctl [-vol FILE] %s\n  %s\n", doc.synopsis, doc.detail)
		} else {
			fmt.Fprintf(set.Output(), "usage: backupctl %s [flags]\n", name)
		}
		set.PrintDefaults()
	}
	return set
}

// helpCommand prints the command table, or one command's usage.
func helpCommand(rest []string) error {
	if len(rest) > 0 {
		doc := findDoc(rest[0])
		if doc == nil {
			return fmt.Errorf("help: unknown command %q", rest[0])
		}
		fmt.Printf("usage: backupctl [-vol FILE] %s\n  %s\n", doc.synopsis, doc.detail)
		return nil
	}
	fmt.Println("usage: backupctl [-vol FILE] <command> [flags]")
	fmt.Println()
	names := make([]string, 0, len(commandDocs))
	width := 0
	for _, d := range commandDocs {
		names = append(names, d.name)
		if len(d.name) > width {
			width = len(d.name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		d := findDoc(n)
		fmt.Printf("  %-*s  %s\n", width, d.name, d.detail)
	}
	fmt.Println()
	fmt.Println("run 'backupctl help <command>' for that command's flags.")
	return nil
}
