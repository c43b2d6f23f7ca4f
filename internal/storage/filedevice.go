package storage

import (
	"context"
	"fmt"
	"os"
)

// FileDevice is a Device backed by a host file, giving the CLI
// (cmd/backupctl) persistent volumes. The file holds raw 4 KB blocks
// at their natural offsets.
type FileDevice struct {
	f      *os.File
	blocks int
}

// CreateFileDevice creates (or truncates) path as an n-block volume.
func CreateFileDevice(path string, n int) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(n) * BlockSize); err != nil {
		f.Close()
		return nil, err
	}
	return &FileDevice{f: f, blocks: n}, nil
}

// OpenFileDevice opens an existing volume file.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%BlockSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s is not block-aligned (%d bytes)", path, st.Size())
	}
	return &FileDevice{f: f, blocks: int(st.Size() / BlockSize)}, nil
}

// NumBlocks implements Device.
func (d *FileDevice) NumBlocks() int { return d.blocks }

// ReadBlock implements Device.
func (d *FileDevice) ReadBlock(_ context.Context, bno int, buf []byte) error {
	if err := checkArgs(bno, d.blocks, buf); err != nil {
		return err
	}
	_, err := d.f.ReadAt(buf, int64(bno)*BlockSize)
	return err
}

// WriteBlock implements Device.
func (d *FileDevice) WriteBlock(_ context.Context, bno int, data []byte) error {
	if err := checkArgs(bno, d.blocks, data); err != nil {
		return err
	}
	_, err := d.f.WriteAt(data, int64(bno)*BlockSize)
	return err
}

// ReadRun implements Device with a single positional read for the
// whole run — the CLI's persistent volumes move bulk data in one
// syscall per run instead of one per 4 KB block.
func (d *FileDevice) ReadRun(_ context.Context, bno, n int, buf []byte) error {
	if err := checkRun(bno, n, d.blocks, buf); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	_, err := d.f.ReadAt(buf, int64(bno)*BlockSize)
	return err
}

// WriteRun implements Device with a single positional write.
func (d *FileDevice) WriteRun(_ context.Context, bno, n int, buf []byte) error {
	if err := checkRun(bno, n, d.blocks, buf); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	_, err := d.f.WriteAt(buf, int64(bno)*BlockSize)
	return err
}

// Close flushes and closes the backing file.
func (d *FileDevice) Close() error {
	if err := d.f.Sync(); err != nil {
		d.f.Close()
		return err
	}
	return d.f.Close()
}
