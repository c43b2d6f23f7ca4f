package physical

import (
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wafl"
)

// Extract implements the single-file-restore-from-image-backup
// direction the paper's §6 leaves as future work: "the entire file
// system must be recreated before the individual disk blocks that make
// up the file being requested can be identified". That is exactly what
// this does — offline, in memory, without touching the production
// volume: it replays a full image stream (plus any incrementals, in
// order) onto a scratch device, mounts the result read-only, and
// copies the requested paths out.
//
// The returned map is path → file contents. Directories cannot be
// extracted (ask for the files inside them).
func Extract(ctx context.Context, full stream.Source, incrementals []stream.Source, paths ...string) (map[string][]byte, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("physical: no paths to extract")
	}
	// Probe the stream header for geometry, then replay onto scratch.
	// The header is consumed by Restore, so we buffer nothing: Restore
	// reads the same source.
	// First pass: we need the volume size before Restore runs, so peek
	// via a tee-less trick: read the header, then construct the device
	// and continue the same reader.
	r := &streamReader{src: full}
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	dev := storage.NewMemDevice(int(h.nblocks))
	if _, err := restoreBody(ctx, dev, r, h, RestoreOptions{Vol: dev}); err != nil {
		return nil, fmt.Errorf("physical: replaying full image: %w", err)
	}
	for i, inc := range incrementals {
		if _, err := Restore(ctx, RestoreOptions{Vol: dev, Source: inc, ExpectIncremental: true}); err != nil {
			return nil, fmt.Errorf("physical: replaying incremental %d: %w", i, err)
		}
	}
	fs, err := wafl.Mount(ctx, dev, nil, wafl.Options{})
	if err != nil {
		return nil, fmt.Errorf("physical: mounting replayed image: %w", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := fs.ActiveView().ReadFile(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("physical: extracting %q: %w", p, err)
		}
		out[p] = data
	}
	return out, nil
}
