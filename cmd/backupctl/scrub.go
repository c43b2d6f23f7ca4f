// Integrity commands for backupctl: scrub re-reads every live
// catalogued stream file end to end and verifies it the way a restore
// would (dump-format checksums for logical sets, the whole-stream CRC
// for image sets, byte counts against the catalog), and fsck gains a
// structural catalog↔media cross-check. Neither repairs host files —
// there is no mirror to rebuild from — so scrub's job is to find rot
// while the operator still has options:
//
//	backupctl -vol home.img scrub                 # verify every live set
//	backupctl -vol home.img scrub -mark           # and record the damage
//	backupctl -vol home.img catalog               # per-set health column
//	backupctl -vol home.img fsck                  # filesystem + catalog check
//
// Both scrub and fsck exit nonzero while findings remain unrepaired.
package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/catalog"
	"repro/internal/scrub"
)

// statExtent resolves a stream-file volume for the catalog fsck: its
// size on the host filesystem, or absent.
func statExtent(label string) (int64, bool) {
	fi, err := os.Stat(label)
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

// chainSource replays a set's media files in order, io.EOF after the
// last — the shape a resumed multi-stream set restores in.
type chainSource struct {
	paths []string
	cur   *fileSource
}

func (c *chainSource) ReadRecord() ([]byte, error) {
	for {
		if c.cur == nil {
			if len(c.paths) == 0 {
				return nil, io.EOF
			}
			src, _, err := openStream(c.paths[0])
			if err != nil {
				return nil, err
			}
			c.cur, c.paths = src, c.paths[1:]
		}
		rec, err := c.cur.ReadRecord()
		if err == io.EOF {
			c.cur = nil
			continue
		}
		return rec, err
	}
}

// scrubCommand verifies every live set recorded in <vol>.catalog by
// re-reading its stream files. Sets already marked damaged are listed
// but not re-read. With -mark, sets with findings are recorded damaged
// in the catalog so plan/recover route around them.
func scrubCommand(ctx context.Context, vol string, rest []string) error {
	set := newFlagSet("scrub")
	mark := set.Bool("mark", false, "record sets with findings as damaged in the catalog")
	now := set.Int64("now", 0, "timestamp recorded with -mark")
	if err := set.Parse(rest); err != nil {
		return err
	}
	if vol == "" {
		return fmt.Errorf("scrub: -vol required")
	}
	cat, done, err := openCatalog(vol, "")
	if err != nil {
		return err
	}
	defer done()

	var total int
	scanned := 0
	for _, ds := range cat.Live() {
		if reason, bad := cat.Damaged(ds.ID); bad {
			fmt.Printf("set %-3d damaged (skipped): %s\n", ds.ID, reason)
			continue
		}
		if ds.Resumed {
			// A resumed set's non-final streams are deliberately partial;
			// only a full restore pass can judge them.
			fmt.Printf("set %-3d resumed (skipped): verify by restoring\n", ds.ID)
			continue
		}
		findings := scrubSet(ctx, cat, ds)
		scanned++
		if len(findings) == 0 {
			fmt.Printf("set %-3d ok: %d bytes verified\n", ds.ID, ds.Bytes)
			continue
		}
		total += len(findings)
		for _, f := range findings {
			fmt.Println("scrub:", f)
		}
		if *mark {
			detail := findings[0].Detail
			if len(findings) > 1 {
				detail = fmt.Sprintf("%s (+%d more)", detail, len(findings)-1)
			}
			if err := cat.MarkDamaged(ds.ID, *now, "scrub: "+detail); err != nil {
				return err
			}
			fmt.Printf("set %-3d marked damaged\n", ds.ID)
		}
	}

	// The structural cross-check rides along: orphans, broken base
	// links, index entries past the recorded extents.
	structural := scrub.Fsck(cat, scrub.FsckOptions{HaveVolume: statExtent})
	for _, f := range structural {
		fmt.Println("fsck:", f)
	}
	total += len(structural)

	if total > 0 {
		return fmt.Errorf("%d integrity findings across %d sets scanned", total, scanned)
	}
	fmt.Printf("scrub clean: %d sets verified\n", scanned)
	return nil
}

// scrubSet re-reads one set's stream files. A missing file is an
// orphan; a readable stream goes through the same verification the
// scrubber applies to tape media.
func scrubSet(ctx context.Context, cat *catalog.Catalog, ds catalog.DumpSet) []scrub.Finding {
	var paths []string
	var findings []scrub.Finding
	for _, ref := range ds.Media {
		if _, ok := statExtent(ref.Volume); !ok {
			findings = append(findings, scrub.Finding{
				Kind: scrub.OrphanSet, SetID: ds.ID, Volume: ref.Volume,
				Record: -1, Detail: "stream file is missing",
			})
			continue
		}
		paths = append(paths, ref.Volume)
	}
	if len(findings) > 0 || len(paths) == 0 {
		return findings
	}
	return scrub.VerifySetStream(ctx, ds, &chainSource{paths: paths})
}
