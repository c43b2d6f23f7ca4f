// Integrity commands for backupctl: scrub is scrub.Scrubber's pass over
// this volume's catalog — every live set opened through setOpener and
// read end to end the way a restore would read it (dump-format checksums
// for logical sets, the whole-stream CRC for image sets, every chunk's
// SHA-256 for dedup-encoded ones, byte counts against the catalog) — and
// fsck adds the structural catalog↔media cross-check. Neither repairs
// host files — there is no mirror to rebuild from — so scrub's job is to
// find rot while the operator still has options:
//
//	backupctl -vol home.img scrub                 # verify every live set
//	backupctl -vol home.img scrub -mark           # and record the damage
//	backupctl -vol home.img catalog               # per-set health column
//	backupctl -vol home.img fsck                  # filesystem + catalog check
//
// Both scrub and fsck exit nonzero while any finding remains.
package main

import (
	"context"
	"fmt"

	"repro/internal/scrub"
)

// scrubCommand verifies every live set recorded in <vol>.catalog by
// reading it back: the report-only pass, or with -mark the condemning
// one, which records sets with findings as damaged in the catalog so
// plan/recover route around them. Already-damaged and resumed sets are
// not re-read.
func scrubCommand(ctx context.Context, vol string, rest []string) error {
	set := newFlagSet("scrub")
	mark := set.Bool("mark", false, "record sets with findings as damaged in the catalog")
	if err := set.Parse(rest); err != nil {
		return err
	}
	if vol == "" {
		return fmt.Errorf("scrub: -vol required")
	}
	cat, done, err := openCatalog(vol)
	if err != nil {
		return err
	}
	defer done()
	sets := &setOpener{cat: cat, vol: vol}
	defer sets.Close()
	s, err := scrub.New(scrub.Config{Catalog: cat, Open: sets.open})
	if err != nil {
		return err
	}
	pass := s.Scan
	if *mark {
		pass = s.Run
	}
	rep, err := pass(ctx)
	if err != nil {
		return err
	}
	for _, f := range rep.Findings {
		fmt.Println("scrub:", f)
	}
	for _, id := range rep.Damaged {
		fmt.Printf("set %-3d marked damaged\n", id)
	}
	if len(rep.Findings) > 0 {
		return fmt.Errorf("%d integrity findings across %d sets scanned", len(rep.Findings), rep.Sets)
	}
	fmt.Printf("scrub clean: %d sets, %d bytes verified\n", rep.Sets, rep.BytesScanned)
	return nil
}
