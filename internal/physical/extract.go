package physical

import (
	"context"
	"fmt"

	"repro/internal/storage"
	"repro/internal/wafl"
)

// ReadFiles is the last step of the single-file-restore-from-image-backup
// direction the paper's §6 leaves as future work: "the entire file
// system must be recreated before the individual disk blocks that make
// up the file being requested can be identified". The caller recreates
// it offline — Restore of the full image, then each incremental in
// order, onto a scratch device sized from the stream header (StreamInfo)
// or the catalog, never the production volume — and ReadFiles mounts the
// result and copies the requested paths out.
//
// The returned map is path → file contents. Directories cannot be
// extracted (ask for the files inside them).
func ReadFiles(ctx context.Context, dev storage.Device, paths ...string) (map[string][]byte, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("physical: no paths to extract")
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
