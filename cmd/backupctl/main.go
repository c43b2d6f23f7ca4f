// Command backupctl drives the backup system against persistent,
// file-backed volumes — a miniature filer administration shell. It
// exposes both of the paper's strategies end to end:
//
//	backupctl -vol home.img mkfs -blocks 16384
//	backupctl -vol home.img fill -mb 16                     # synthetic dataset
//	backupctl -vol home.img age -rounds 4                   # fragment it
//	backupctl -vol home.img put README.md /docs/readme
//	backupctl -vol home.img ls /docs
//	backupctl -vol home.img cat /docs/readme
//	backupctl -vol home.img snap create nightly
//	backupctl -vol home.img snap ls
//	backupctl -vol home.img dump -o full.dump               # logical, level 0
//	backupctl -vol home.img dump -o incr.dump -level 1
//	backupctl -vol home.img restore -i full.dump            # logical restore
//	backupctl -vol home.img restore -i full.dump -file docs/readme
//	backupctl -vol home.img imagedump -snap nightly -o vol.img.stream
//	backupctl -vol new.img  imagerestore -i vol.img.stream
//	backupctl extract -i vol.img.stream /docs/readme        # offline single file
//	backupctl -vol home.img fsck
//	backupctl -vol home.img df
//	backupctl -vol home.img rm /docs/readme
//
// Dump streams are host files of length-prefixed tape records. A
// dump's incremental levels base on the dump dates in the catalog
// beside the volume, <vol>.catalog; <vol>.dumpdates is push's own
// history, since the host keeps the catalog of what it received.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/scrub"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "backupctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	// --faults is handled before normal flag parsing so its scenario
	// options (-seed, -runs, ...) reach the faults flag set untouched.
	for i, a := range args {
		if a == "--faults" || a == "-faults" {
			return faultsCommand(context.Background(), append(append([]string{}, args[:i]...), args[i+1:]...))
		}
	}

	global := newFlagSet("backupctl")
	vol := global.String("vol", "", "volume image file")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		return fmt.Errorf("no command; run 'backupctl help'")
	}
	cmd, rest := rest[0], rest[1:]
	ctx := context.Background()

	// Commands that do not need a mounted volume.
	switch cmd {
	case "mkfs":
		fs := newFlagSet("mkfs")
		blocks := fs.Int("blocks", 16384, "volume size in 4 KB blocks")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *vol == "" {
			return fmt.Errorf("mkfs: -vol required")
		}
		dev, err := storage.CreateFileDevice(*vol, *blocks)
		if err != nil {
			return err
		}
		defer dev.Close()
		if _, err := wafl.Mkfs(ctx, dev, nil, wafl.Options{}); err != nil {
			return err
		}
		fmt.Printf("formatted %s: %d blocks (%d MB)\n", *vol, *blocks, *blocks*wafl.BlockSize>>20)
		return nil
	case "imagerestore":
		fs := newFlagSet("imagerestore")
		in := fs.String("i", "", "image stream file")
		setID := fs.Uint64("set", 0, "restore this cataloged image set (stream file or dedup-encoded)")
		from := fs.String("from", "", "volume whose catalog holds -set (default -vol)")
		incr := fs.Bool("incremental", false, "apply as incremental on the current volume state")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *vol == "" || (*in == "") == (*setID == 0) {
			return fmt.Errorf("imagerestore: -vol and exactly one of -i and -set required")
		}
		ds, streams, done, err := openInput(ctx, *in, *from, *vol, *setID, catalog.Image)
		if err != nil {
			return fmt.Errorf("imagerestore: %w", err)
		}
		defer done()
		nblocks := ds.NBlocks
		if *setID == 0 {
			if nblocks, _, _, streams[0], err = physical.StreamInfo(streams[0]); err != nil {
				return err
			}
		}
		dev, err := openOrCreate(*vol, int(nblocks))
		if err != nil {
			return err
		}
		defer dev.Close()
		stats, err := engine.RestoreSet(ctx, catalog.Image, engine.Target{Vol: dev}, streams, *incr)
		if err != nil {
			return err
		}
		fmt.Printf("restored %d blocks (generation %d)\n", stats.BlocksRestored, stats.Gen)
		return nil
	case "imageverify":
		fs := newFlagSet("imageverify")
		in := fs.String("i", "", "image stream file")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *in == "" {
			return fmt.Errorf("imageverify: -i required")
		}
		src, err := openStream(*in)
		if err != nil {
			return err
		}
		defer src.Close()
		check, err := physical.VerifyStream(ctx, src)
		if err != nil {
			return err
		}
		kind := "full"
		if check.BaseGen != 0 {
			kind = fmt.Sprintf("incremental on generation %d", check.BaseGen)
		}
		fmt.Printf("stream OK: %s, generation %d, %d blocks in %d extents, %d volume blocks\n",
			kind, check.Gen, check.BlockCount, check.Extents, check.NBlocks)
		return nil
	case "extract":
		fs := newFlagSet("extract")
		in := fs.String("i", "", "full image stream")
		incr := fs.String("incr", "", "comma-separated incremental streams, oldest first")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *in == "" || fs.NArg() == 0 {
			return fmt.Errorf("extract: -i and at least one path required")
		}
		// Replay the chain onto a scratch device sized from the full
		// stream's header, never -vol, and read the paths out of that.
		chain := []string{*in}
		if *incr != "" {
			chain = append(chain, strings.Split(*incr, ",")...)
		}
		var scratch engine.Target
		for i, p := range chain {
			file, err := openStream(p)
			if err != nil {
				return err
			}
			defer file.Close()
			var src stream.Source = file
			if i == 0 {
				nblocks, _, _, replay, err := physical.StreamInfo(src)
				if err != nil {
					return err
				}
				scratch.Vol, src = storage.NewMemDevice(int(nblocks)), replay
			}
			if _, err := engine.RestoreSet(ctx, catalog.Image, scratch, []stream.Source{src}, i > 0); err != nil {
				return fmt.Errorf("extract: replaying %s: %w", p, err)
			}
		}
		files, err := physical.ReadFiles(ctx, scratch.Vol, fs.Args()...)
		if err != nil {
			return err
		}
		return writeExtracted(files)
	case "stats":
		return statsCommand(ctx, rest)
	case "serve":
		return serveCommand(rest)
	case "replica":
		return replicaCommand(rest)
	case "help":
		return helpCommand(rest)
	case "catalog":
		return catalogCommand(*vol, rest)
	case "scrub":
		return scrubCommand(ctx, *vol, rest)
	case "plan":
		return planCommand(*vol, rest)
	case "recover":
		// recover mounts (logical) or rewrites (image) the volume
		// itself, after the catalog has been consulted.
		return recoverCommand(ctx, *vol, rest)
	}

	// Everything else mounts the volume.
	if *vol == "" {
		return fmt.Errorf("%s: -vol required", cmd)
	}
	dev, err := storage.OpenFileDevice(*vol)
	if err != nil {
		return err
	}
	defer dev.Close()
	waflfs, err := wafl.Mount(ctx, dev, nil, wafl.Options{})
	if err != nil {
		return err
	}
	return volumeCommand(ctx, waflfs, *vol, cmd, rest)
}

func volumeCommand(ctx context.Context, fs *wafl.FS, vol, cmd string, rest []string) error {
	v := fs.ActiveView()
	switch cmd {
	case "put":
		if len(rest) != 2 {
			return fmt.Errorf("put: usage: put <hostfile> </fs/path>")
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		if _, err := fs.WriteFile(ctx, rest[1], data, 0644); err != nil {
			return err
		}
		if err := fs.CP(ctx); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), rest[1])
		return nil
	case "cat":
		if len(rest) != 1 {
			return fmt.Errorf("cat: usage: cat </fs/path>")
		}
		data, err := v.ReadFile(ctx, rest[0])
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case "ls":
		path := "/"
		if len(rest) > 0 {
			path = rest[0]
		}
		ino, err := v.Namei(ctx, path)
		if err != nil {
			return err
		}
		ents, err := v.Readdir(ctx, ino)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.Name == "." || e.Name == ".." {
				continue
			}
			st, err := v.GetInode(ctx, e.Ino)
			if err != nil {
				return err
			}
			kind := "-"
			if wafl.IsDir(st.Mode) {
				kind = "d"
			} else if wafl.IsSymlink(st.Mode) {
				kind = "l"
			}
			fmt.Printf("%s%04o %8d ino=%-6d %s\n", kind, st.Mode&07777, st.Size, e.Ino, e.Name)
		}
		return nil
	case "rm":
		if len(rest) != 1 {
			return fmt.Errorf("rm: usage: rm </fs/path>")
		}
		if err := fs.RemovePath(ctx, rest[0]); err != nil {
			return err
		}
		return fs.CP(ctx)
	case "snap":
		if len(rest) == 0 {
			return fmt.Errorf("snap: usage: snap create|delete|ls [name]")
		}
		switch rest[0] {
		case "create":
			if len(rest) != 2 {
				return fmt.Errorf("snap create <name>")
			}
			return fs.CreateSnapshot(ctx, rest[1])
		case "delete":
			if len(rest) != 2 {
				return fmt.Errorf("snap delete <name>")
			}
			return fs.DeleteSnapshot(ctx, rest[1])
		case "ls":
			for _, s := range fs.Snapshots() {
				blocks, _ := fs.SnapshotBlocks(s.Name)
				fmt.Printf("%-20s id=%-3d gen=%-6d blocks=%d\n", s.Name, s.ID, s.Gen, blocks)
			}
			return nil
		case "revert":
			if len(rest) != 2 {
				return fmt.Errorf("snap revert <name>")
			}
			if err := fs.RevertToSnapshot(ctx, rest[1]); err != nil {
				return err
			}
			fmt.Printf("reverted to snapshot %q (newer snapshots deleted)\n", rest[1])
			return nil
		}
		return fmt.Errorf("snap: unknown subcommand %q", rest[0])
	case "df":
		used, free := fs.UsedBlocks(), fs.FreeBlocks()
		fmt.Printf("volume:   %d blocks (%d MB)\n", fs.NumBlocks(), fs.NumBlocks()*wafl.BlockSize>>20)
		fmt.Printf("used:     %d blocks (%d MB)\n", used, used*wafl.BlockSize>>20)
		fmt.Printf("free:     %d blocks (%d MB)\n", free, free*wafl.BlockSize>>20)
		fmt.Printf("inodes:   %d\n", fs.NumInodes())
		fmt.Printf("snapshots: %d\n", len(fs.Snapshots()))
		return nil
	case "fsck":
		problems, err := fs.Check(ctx)
		if err != nil {
			return err
		}
		for _, p := range problems {
			fmt.Println("fsck:", p)
		}
		// Cross-check the backup catalog against its stream files when
		// one exists beside the volume (its journal, or a standby's record).
		var findings []scrub.Finding
		_, errJournal := os.Stat(catalogPath(vol))
		if _, errRecord := os.Stat(standbyRecord(vol)); errJournal == nil || errRecord == nil {
			cat, done, err := openCatalog(vol)
			if err != nil {
				return err
			}
			defer done()
			// A volume is a host file: its size, or absent.
			findings = scrub.Fsck(cat, scrub.FsckOptions{HaveVolume: func(label string) (int64, bool) {
				fi, err := os.Stat(label)
				if err != nil {
					return 0, false
				}
				return fi.Size(), true
			}})
			for _, f := range findings {
				fmt.Println("fsck:", f)
			}
		}
		if len(problems)+len(findings) == 0 {
			fmt.Println("filesystem and catalog are consistent")
			return nil
		}
		return fmt.Errorf("%d problems found", len(problems)+len(findings))
	case "fill":
		set := newFlagSet("fill")
		mb := set.Int("mb", 8, "approximate dataset size in MiB")
		seed := set.Int64("seed", 1, "generator seed")
		if err := set.Parse(rest); err != nil {
			return err
		}
		files := *mb << 20 / (24 << 10)
		paths, err := workload.Generate(ctx, fs, workload.Spec{
			Seed: *seed, Files: files, DirFanout: 10,
			MeanFileSize: 24 << 10, Symlinks: files / 40, Hardlinks: files / 60,
		})
		if err != nil {
			return err
		}
		if err := fs.CP(ctx); err != nil {
			return err
		}
		fmt.Printf("generated %d files (~%d MB); volume now %d blocks used\n",
			len(paths), *mb, fs.UsedBlocks())
		return nil
	case "age":
		set := newFlagSet("age")
		rounds := set.Int("rounds", 4, "churn rounds")
		seed := set.Int64("seed", 2, "churn seed")
		if err := set.Parse(rest); err != nil {
			return err
		}
		// Churn every regular file currently on the volume.
		d, err := workload.TreeDigest(ctx, v, "/")
		if err != nil {
			return err
		}
		var paths []string
		for p, e := range d {
			if e.Type == wafl.ModeReg {
				paths = append(paths, p)
			}
		}
		if len(paths) == 0 {
			return fmt.Errorf("age: volume has no files; run fill first")
		}
		alive, err := workload.Age(ctx, fs, paths, workload.AgeSpec{
			Seed: *seed, Rounds: *rounds, ChurnPerRound: len(paths) / 3,
			MeanFileSize: 24 << 10,
		})
		if err != nil {
			return err
		}
		fmt.Printf("aged %d rounds; %d files survive, %d blocks used\n",
			*rounds, len(alive), fs.UsedBlocks())
		return nil
	case "verify":
		set := newFlagSet("verify")
		in := set.String("i", "", "dump stream file")
		subtree := set.String("subtree", "", "dump root used at dump time")
		if err := set.Parse(rest); err != nil {
			return err
		}
		if *in == "" {
			return fmt.Errorf("verify: -i required")
		}
		src, err := openStream(*in)
		if err != nil {
			return err
		}
		defer src.Close()
		res, err := logical.Verify(ctx, logical.VerifyOptions{
			View: v, Source: src, Subtree: *subtree,
		})
		if err != nil {
			return err
		}
		if len(res.Problems) == 0 {
			fmt.Printf("dump verifies: %d files, %d dirs checked, %.1f MB read\n",
				res.FilesChecked, res.DirsChecked, float64(res.BytesRead)/(1<<20))
			return nil
		}
		for _, p := range res.Problems {
			fmt.Println("verify:", p)
		}
		return fmt.Errorf("%d mismatches", len(res.Problems))
	case "dump", "imagedump":
		return dumpCommand(ctx, fs, vol, cmd, rest)
	case "restore":
		set := newFlagSet("restore")
		in := set.String("i", "", "input stream file")
		setID := set.Uint64("set", 0, "restore this cataloged logical set (stream file or dedup-encoded)")
		from := set.String("from", "", "volume whose catalog holds -set (default -vol)")
		target := set.String("target", "/", "directory to graft the dump onto")
		syncDel := set.Bool("sync-deletes", false, "apply deletions (incremental chains)")
		file := set.String("file", "", "restore only this dump-relative path")
		trace := set.String("trace", "", "write a Chrome trace of the restore to this file")
		if err := set.Parse(rest); err != nil {
			return err
		}
		if (*in == "") == (*setID == 0) {
			return fmt.Errorf("restore: exactly one of -i and -set required")
		}
		ctx, flush, err := traceToFile(ctx, *trace)
		if err != nil {
			return err
		}
		defer flush()
		_, streams, done, err := openInput(ctx, *in, *from, vol, *setID, catalog.Logical)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		defer done()
		var files []string
		if *file != "" {
			files = []string{*file}
		}
		stats, err := engine.RestoreSet(ctx, catalog.Logical, engine.Target{FS: fs, Dir: *target}, streams, *syncDel, files...)
		if err != nil {
			return err
		}
		fmt.Printf("restored %d files (%d skipped, %d deleted, %d links)\n",
			stats.FilesRestored, stats.FilesSkipped, stats.Deleted, stats.LinksMade)
		return nil
	case "push":
		return pushCommand(ctx, fs, vol, rest)
	}
	return fmt.Errorf("unknown command %q; run 'backupctl help'", cmd)
}

// logicalJob snapshots the volume as snap for the life of one logical
// dump of it — release deletes the snapshot — and wraps the dump opts
// describe; dump and push differ only in what they put in opts.
func logicalJob(ctx context.Context, fs *wafl.FS, snap string, opts logical.DumpOptions) (job *engine.Dump, release func(), err error) {
	if err := fs.CreateSnapshot(ctx, snap); err != nil {
		return nil, nil, err
	}
	release = func() { fs.DeleteSnapshot(ctx, snap) }
	if opts.View, err = fs.SnapshotView(snap); err != nil {
		release()
		return nil, nil, err
	}
	opts.Label, opts.ReadAhead = "backupctl", 16
	return engine.NewLogical(opts), release, nil
}

// imageJob wraps an image dump of snapshot snap (unnamed: def), created
// if missing and kept afterwards: it is the next incremental's base.
func imageJob(ctx context.Context, fs *wafl.FS, snap, def string, opts physical.DumpOptions) (*engine.Dump, string, error) {
	if snap == "" {
		snap = def
	}
	if _, err := fs.Snapshot(snap); err != nil {
		if err := fs.CreateSnapshot(ctx, snap); err != nil {
			return nil, "", err
		}
	}
	opts.FS, opts.Vol, opts.SnapName = fs, fs.Device(), snap
	return engine.NewImage(opts), snap, nil
}

// dumpCommand is `dump` and `imagedump`: one command but for the engine,
// which decides the flags that describe the job, the snapshot it reads
// and the summary line. The job runs into the stream file -o names — or,
// dedup-encoded, into the chunk store beside the volume — and the set is
// journaled in <vol>.catalog with the file index the run collected and,
// for a dedup dump, its manifest.
func dumpCommand(ctx context.Context, fs *wafl.FS, vol, cmd string, rest []string) error {
	image := cmd == "imagedump"
	what, restored := "dump", "dump"
	if image {
		what, restored = "image dump", "image"
	}
	set := newFlagSet(cmd)
	out := set.String("o", "", "output stream file")
	dedup := set.Bool("dedup", false, "dedup-encode into <vol>.chunkstore instead of a stream file")
	revdedup := set.Bool("revdedup", false, "reverse dedup: rewrite old-set hits so this "+restored+" restores at streaming rate (implies -dedup)")
	trace := set.String("trace", "", "write a Chrome trace of the "+what+" to this file")
	var level *int
	var subtree, snap, base *string
	if image {
		snap = set.String("snap", "", "snapshot to dump (created if missing)")
		base = set.String("base", "", "base snapshot for an incremental")
	} else {
		level = set.Int("level", 0, "incremental level 0-9")
		subtree = set.String("subtree", "", "dump only this directory")
	}
	if err := set.Parse(rest); err != nil {
		return err
	}
	if *revdedup {
		*dedup = true
	}
	if *out == "" && !*dedup {
		return fmt.Errorf("%s: -o required (or -dedup)", cmd)
	}
	ctx, flush, err := traceToFile(ctx, *trace)
	if err != nil {
		return err
	}
	defer flush()
	cat, done, err := openCatalog(vol)
	if err != nil {
		return err
	}
	defer done()

	var job *engine.Dump
	name, release := "backupctl.dump", func() {}
	if image {
		job, name, err = imageJob(ctx, fs, *snap, "backupctl.image", physical.DumpOptions{BaseSnapName: *base})
	} else {
		job, release, err = logicalJob(ctx, fs, name, logical.DumpOptions{
			Level: *level, Dates: cat.DumpDates(), FSID: vol, Subtree: *subtree,
		})
	}
	if err != nil {
		return err
	}
	defer release()

	// The sink: a stream file, or the dedup writer over the chunk store.
	var sink stream.Sink
	var dw *chunk.Writer
	var manifest *chunk.Manifest
	media := *out
	var finish func() error
	if *dedup {
		cstore, err := openChunkStore(vol)
		if err != nil {
			return err
		}
		defer cstore.Close()
		dw, err = chunk.NewWriter(chunk.WriterOptions{
			Index: cat, Media: cstore, Reverse: *revdedup,
			Ctx: ctx, Engine: job.Engine().String(),
		})
		if err != nil {
			return err
		}
		sink, media = dw, chunkStorePath(vol)
		finish = func() error { m, err := dw.Close(); manifest = &m; return err }
	} else {
		file, err := createStream(*out, os.O_TRUNC)
		if err != nil {
			return err
		}
		sink, finish = file, file.Close
	}
	if err := job.To(ctx, sink); err != nil {
		return err
	}
	if err := finish(); err != nil {
		return err
	}

	// The job's own half of the record plus where this command put it,
	// landed: journaled, read back through setOpener and indexed.
	ds := job.Set()
	ds.FSID, ds.Snap, ds.Media = vol, name, []catalog.MediaRef{{Volume: media}}
	sets := &setOpener{cat: cat, vol: vol}
	defer sets.Close()
	id, damage, err := engine.Land(ctx, cat, ds, manifest, sets.open)
	if err != nil {
		return err
	}
	if image {
		stats := job.ImageStats
		fmt.Printf("image-dumped %d blocks (generation %d, base %d)\n",
			stats.BlocksDumped, stats.Gen, stats.BaseGen)
	} else {
		stats := job.LogicalStats
		fmt.Printf("dumped %d files, %d dirs, %d bytes (level %d, base date %d)\n",
			stats.FilesDumped, stats.DirsDumped, stats.BytesWritten, *level, stats.BaseDate)
	}
	if dw != nil {
		printDedupStats(dw.Stats(), *manifest)
	}
	if damage != "" {
		return fmt.Errorf("%s: set %d failed verification on landing, cataloged damaged: %s", cmd, id, damage)
	}
	return nil
}

// --- stream files: length-prefixed tape records on the host FS.

type fileSink struct {
	f *os.File
}

// createStream creates the stream file at path: flag is os.O_TRUNC to
// replace a file already there, os.O_EXCL to refuse one.
func createStream(path string, flag int) (*fileSink, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|flag, 0644)
	if err != nil {
		return nil, err
	}
	return &fileSink{f: f}, nil
}

func (s *fileSink) WriteRecord(data []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := s.f.Write(hdr[:]); err != nil {
		return err
	}
	_, err := s.f.Write(data)
	return err
}

func (s *fileSink) NextVolume() error {
	return fmt.Errorf("backupctl: stream files never hit end of media")
}

func (s *fileSink) Close() error { return s.f.Close() }

// fileSource reads a stream file back into one record buffer it lends
// (stream.Source); left is what the file still holds, which bounds what
// a length prefix can make ReadRecord grow that buffer to.
type fileSource struct {
	f    *os.File
	left int64
	buf  []byte
}

func openStream(path string) (*fileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileSource{f: f, left: fi.Size()}, nil
}

func (s *fileSource) Close() error { return s.f.Close() }

func (s *fileSource) ReadRecord() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(s.f, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > 64<<20 {
		return nil, fmt.Errorf("backupctl: bad record length %d", n)
	}
	if s.left -= 4 + int64(n); s.left < 0 {
		return nil, io.ErrUnexpectedEOF // the file ends inside this record
	}
	s.buf = slices.Grow(s.buf[:0], int(n))[:n]
	if _, err := io.ReadFull(s.f, s.buf); err != nil {
		return nil, err
	}
	return s.buf, nil
}

// writeExtracted lands single files pulled out of image streams (extract,
// recover -engine image -file) in the working directory.
func writeExtracted(files map[string][]byte) error {
	for p, data := range files {
		out := strings.ReplaceAll(strings.TrimPrefix(p, "/"), "/", "_")
		if err := os.WriteFile(out, data, 0644); err != nil {
			return err
		}
		fmt.Printf("extracted %s -> %s (%d bytes)\n", p, out, len(data))
	}
	return nil
}

// openOrCreate opens vol, creating it with n blocks when absent.
func openOrCreate(path string, n int) (*storage.FileDevice, error) {
	if _, err := os.Stat(path); err == nil {
		return storage.OpenFileDevice(path)
	}
	if n <= 0 {
		n = 16384
	}
	return storage.CreateFileDevice(path, n)
}

// --- push's dump-date history: "<level> <date>" lines per fsid.

func datesPath(vol string) string { return vol + ".dumpdates" }

func loadDates(vol string) (*logical.DumpDates, error) {
	d := logical.NewDumpDates()
	data, err := os.ReadFile(datesPath(vol))
	if err != nil {
		return d, nil // absent = empty history
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		level, err1 := strconv.Atoi(fields[0])
		date, err2 := strconv.ParseInt(fields[1], 10, 64)
		if err1 == nil && err2 == nil {
			d.Record(vol, level, date)
		}
	}
	return d, nil
}

func saveDates(vol string, d *logical.DumpDates) error {
	var b strings.Builder
	for _, e := range d.Entries() {
		if e.FSID == vol {
			fmt.Fprintf(&b, "%d %d\n", e.Level, e.Date)
		}
	}
	return os.WriteFile(datesPath(vol), []byte(b.String()), 0644)
}

var _ stream.Sink = (*fileSink)(nil)
