// Catalog replication for the serve side: `serve -standby FILE` keeps
// the catalog of received dumps as a mirrored pair — a two-member
// internal/replica cluster over the primary journal file and a standby
// one, ideally on different media — so losing either file does not
// lose the record of which dumps this host holds. Every open elects
// the copy with the longest valid journal and reinstalls the other
// from it; every append lands in both files or fails. `replica status`
// inspects a pair without opening (and so without healing) it.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/catalog"
)

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
	var valid [2][]byte
	names := [2]string{"primary", "standby"}
	for i, path := range [2]string{*primary, *standby} {
		buf, err := os.ReadFile(path)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		n, _ := catalog.ScanFrames(buf, nil)
		valid[i] = buf[:n]
		cat, err := catalog.Open(&catalog.MemStore{Buf: valid[i]})
		if err != nil {
			return fmt.Errorf("replica status: %s does not replay: %w", names[i], err)
		}
		fmt.Printf("%s %s: %d bytes (%d valid), %d sets\n", names[i], path, len(buf), n, len(cat.Sets()))
	}
	// The longer valid journal leads the next open; the primary on a tie.
	lead := 0
	if len(valid[1]) > len(valid[0]) {
		lead = 1
	}
	if bytes.Equal(valid[0], valid[1]) {
		fmt.Println("state: in sync")
	} else {
		fmt.Printf("state: %s leads by %d bytes, the other copy is caught up at next open\n",
			names[lead], len(valid[lead])-len(valid[1-lead]))
	}
	return nil
}
