// Package workload builds and ages filesystem contents for tests and
// benchmarks. The paper's measurements run against "copies of real
// file systems from Network Appliance's engineering department" and
// note that "a mature data set is typically slower to backup than a
// newly created one because of fragmentation"; Generate builds an
// engineering-directory-shaped tree and Age applies create/overwrite/
// delete churn across consistency points until the free space — and
// therefore every later file — is scattered.
package workload

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/wafl"
)

// Spec describes a generated dataset.
type Spec struct {
	// Seed makes generation deterministic.
	Seed int64
	// Files is the number of regular files.
	Files int
	// DirFanout is roughly how many entries share a directory.
	DirFanout int
	// MeanFileSize is the average file size in bytes; sizes follow a
	// heavy-tailed mixture (most files small, a few large), like real
	// engineering trees.
	MeanFileSize int
	// Symlinks and Hardlinks add that many of each.
	Symlinks  int
	Hardlinks int
	// Prefix roots the tree under this directory ("" = "/"). Used to
	// split a volume into independently dumpable quota trees (§5.2).
	Prefix string
}

// DefaultSpec returns a small engineering-tree-shaped dataset.
func DefaultSpec() Spec {
	return Spec{Seed: 1, Files: 200, DirFanout: 12, MeanFileSize: 24 << 10, Symlinks: 8, Hardlinks: 6}
}

// fileSize draws from a heavy-tailed size mixture around mean.
func fileSize(r *rand.Rand, mean int) int {
	switch r.Intn(10) {
	case 0: // large: ~8x mean
		return r.Intn(mean*16) + mean
	case 1, 2: // medium
		return r.Intn(mean*2) + mean/2
	default: // small
		n := r.Intn(mean/2) + 1
		return n
	}
}

// byteStream yields exactly the bytes (*rand.Rand).Read would from r,
// Intn draws between reads included, but stores each Int63 draw with
// one 8-byte write instead of seven single-byte ones. Like Read, it
// takes seven bytes from every draw, low byte first, and carries the
// unused ones of the last draw into the next call. Every generated
// volume, and so every golden stream digest, depends on these bytes.
type byteStream struct {
	r   *rand.Rand
	val int64 // what is left of the last draw, next byte lowest
	pos int   // how many of val's bytes are still unused
	buf []byte
}

// Read fills p.
func (s *byteStream) Read(p []byte) {
	n := 0
	for ; n < len(p) && s.pos > 0; n++ {
		p[n] = byte(s.val)
		s.val >>= 8
		s.pos--
	}
	// A draw's eighth byte is written too, and overwritten by the next
	// draw or the tail; the loop stops while there is room for it.
	for ; n+8 <= len(p); n += 7 {
		binary.LittleEndian.PutUint64(p[n:], uint64(s.r.Int63()))
	}
	for ; n < len(p); n++ {
		if s.pos == 0 {
			s.val, s.pos = s.r.Int63(), 7
		}
		p[n] = byte(s.val)
		s.val >>= 8
		s.pos--
	}
}

// file returns the next size bytes in a buffer the next call reuses:
// WriteFile copies its data, so one buffer serves a whole Generate or
// Age call.
func (s *byteStream) file(size int) []byte {
	if cap(s.buf) < size {
		s.buf = make([]byte, size)
	}
	s.Read(s.buf[:size])
	return s.buf[:size]
}

// dirFor picks/creates a directory path for file index i.
func dirFor(r *rand.Rand, spec Spec, i int) string {
	depth := 1 + r.Intn(3)
	parts := make([]string, depth)
	for d := range parts {
		parts[d] = fmt.Sprintf("d%d", (i/spec.DirFanout+d*7)%(spec.Files/spec.DirFanout+1))
	}
	out := ""
	for _, p := range parts {
		out += "/" + p
	}
	return out
}

// Generate populates fs with spec's tree. It returns the list of file
// paths created, sorted.
func Generate(ctx context.Context, fs *wafl.FS, spec Spec) ([]string, error) {
	r := rand.New(rand.NewSource(spec.Seed))
	bs := byteStream{r: r}
	var paths []string
	for i := 0; i < spec.Files; i++ {
		p := fmt.Sprintf("%s%s/file%04d.dat", spec.Prefix, dirFor(r, spec, i), i)
		data := bs.file(fileSize(r, spec.MeanFileSize))
		if _, err := fs.WriteFile(ctx, p, data, 0644); err != nil {
			return nil, fmt.Errorf("workload: writing %s: %w", p, err)
		}
		paths = append(paths, p)
	}
	base := spec.Prefix
	if base == "" {
		base = "/"
	}
	for i := 0; i < spec.Symlinks && i < len(paths); i++ {
		dir, err := fs.ActiveView().Namei(ctx, base)
		if err != nil {
			return nil, err
		}
		if _, err := fs.Symlink(ctx, dir, fmt.Sprintf("link%d", i), paths[i*7%len(paths)]); err != nil {
			return nil, err
		}
	}
	for i := 0; i < spec.Hardlinks && i < len(paths); i++ {
		target := paths[(i*13+1)%len(paths)]
		ino, err := fs.ActiveView().Namei(ctx, target)
		if err != nil {
			return nil, err
		}
		root, err := fs.ActiveView().Namei(ctx, base)
		if err != nil {
			return nil, err
		}
		if err := fs.Link(ctx, ino, root, fmt.Sprintf("hard%d", i)); err != nil {
			return nil, err
		}
	}
	if err := fs.CP(ctx); err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// AgeSpec controls the churn that matures a filesystem.
type AgeSpec struct {
	Seed int64
	// Prefix roots newly created churn files (must match the Spec's
	// Prefix when aging a quota tree).
	Prefix string
	// Rounds of churn; each round rewrites/deletes/creates a fraction
	// of files and takes a consistency point.
	Rounds int
	// ChurnPerRound is how many files each round touches.
	ChurnPerRound int
	// MeanFileSize for replacement files.
	MeanFileSize int
}

// Age applies churn to the existing paths, returning the surviving
// path list. Deletions and recreations interleave with consistency
// points so freed space scatters through the volume.
func Age(ctx context.Context, fs *wafl.FS, paths []string, spec AgeSpec) ([]string, error) {
	r := rand.New(rand.NewSource(spec.Seed))
	bs := byteStream{r: r}
	alive := append([]string(nil), paths...)
	serial := 0
	for round := 0; round < spec.Rounds; round++ {
		for c := 0; c < spec.ChurnPerRound && len(alive) > 1; c++ {
			i := r.Intn(len(alive))
			switch r.Intn(3) {
			case 0: // delete
				if err := fs.RemovePath(ctx, alive[i]); err != nil {
					return nil, fmt.Errorf("workload: aging remove %s: %w", alive[i], err)
				}
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
			case 1: // overwrite with a different size
				data := bs.file(fileSize(r, spec.MeanFileSize))
				if _, err := fs.WriteFile(ctx, alive[i], data, 0644); err != nil {
					return nil, err
				}
			case 2: // create a new file
				serial++
				// The seed namespaces churn files so repeated Age calls
				// (with different seeds) never collide and double-list
				// a path in the survivor set.
				p := fmt.Sprintf("%s/aged/r%d/new%d-%05d.dat", spec.Prefix, round%4, spec.Seed, serial)
				data := bs.file(fileSize(r, spec.MeanFileSize))
				if _, err := fs.WriteFile(ctx, p, data, 0644); err != nil {
					return nil, err
				}
				alive = append(alive, p)
			}
		}
		if err := fs.CP(ctx); err != nil {
			return nil, err
		}
	}
	sort.Strings(alive)
	return alive, nil
}

// Entry is one node of a tree digest.
type Entry struct {
	Type   uint32 // wafl.ModeDir / ModeReg / ModeSymlink
	Mode   uint32 // permission bits
	UID    uint32
	GID    uint32
	Size   uint64
	Digest [32]byte // sha256 of contents (files), of target (symlinks)
}

// TreeDigest walks the view from path and returns a map of relative
// path → Entry, suitable for equality comparison between a source and
// a restored filesystem.
func TreeDigest(ctx context.Context, v *wafl.View, root string) (map[string]Entry, error) {
	out := make(map[string]Entry)
	rootIno, err := v.Namei(ctx, root)
	if err != nil {
		return nil, err
	}
	var walk func(ino wafl.Inum, rel string) error
	walk = func(ino wafl.Inum, rel string) error {
		inode, err := v.GetInode(ctx, ino)
		if err != nil {
			return err
		}
		e := Entry{
			Type: inode.Mode & 0170000,
			Mode: inode.Mode & 07777,
			UID:  inode.UID, GID: inode.GID,
		}
		switch {
		case wafl.IsDir(inode.Mode):
			ents, err := v.Readdir(ctx, ino)
			if err != nil {
				return err
			}
			for _, c := range ents {
				if c.Name == "." || c.Name == ".." {
					continue
				}
				if err := walk(c.Ino, rel+"/"+c.Name); err != nil {
					return err
				}
			}
		case wafl.IsSymlink(inode.Mode):
			target, err := v.Readlink(ctx, ino)
			if err != nil {
				return err
			}
			e.Size = uint64(len(target))
			e.Digest = sha256.Sum256([]byte(target))
		default:
			e.Size = inode.Size
			buf := make([]byte, inode.Size)
			if _, err := v.ReadAt(ctx, ino, 0, buf); err != nil {
				return err
			}
			e.Digest = sha256.Sum256(buf)
		}
		out[rel] = e
		return nil
	}
	if err := walk(rootIno, ""); err != nil {
		return nil, err
	}
	return out, nil
}

// DiffDigests returns human-readable differences between two digests
// (empty = identical).
func DiffDigests(a, b map[string]Entry) []string {
	var diffs []string
	for p, ea := range a {
		eb, ok := b[p]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("missing in b: %s", p))
			continue
		}
		if ea != eb {
			diffs = append(diffs, fmt.Sprintf("differs: %s (%+v vs %+v)", p, ea, eb))
		}
	}
	for p := range b {
		if _, ok := a[p]; !ok {
			diffs = append(diffs, fmt.Sprintf("extra in b: %s", p))
		}
	}
	sort.Strings(diffs)
	return diffs
}
