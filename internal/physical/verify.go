package physical

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/stream"
)

// StreamCheck is the result of verifying an image stream without
// applying it — the physical counterpart of logical.Verify, answering
// the "are last year's tapes even readable?" question for image
// backups before a disaster makes it urgent.
type StreamCheck struct {
	NBlocks     uint64 // source volume geometry
	Gen         uint64
	BaseGen     uint64 // 0 for a full stream
	BlockCount  int    // blocks carried by the stream
	Extents     int
	Checkpoints int // checkpoint extents, each checksum-verified
	BytesRead   int64
}

// VerifyStream reads an image stream end to end, validating structure
// (header, extent bounds, trailer) and the payload checksum, writing
// nothing. It returns the stream's identity on success.
func VerifyStream(src stream.Source) (*StreamCheck, error) {
	return VerifyStreamCtx(context.Background(), src)
}

// VerifyStreamCtx is VerifyStream with observability: the pass runs
// under a "physical.verify" span and feeds the verify_* metrics from
// the registry in ctx — the scrubber's image-set entry point.
func VerifyStreamCtx(ctx context.Context, src stream.Source) (*StreamCheck, error) {
	_, span := obs.Start(ctx, "physical.verify")
	defer span.End()
	m := obs.MetricsFrom(ctx)
	lbl := obs.Labels{"engine": "image"}
	check, err := verifyStream(src)
	if err != nil {
		m.Counter("verify_problems_total", lbl).Inc()
		span.SetAttr("error", err.Error())
		return nil, err
	}
	span.SetAttr("blocks", check.BlockCount)
	span.SetAttr("extents", check.Extents)
	span.SetAttr("bytes", check.BytesRead)
	m.Counter("verify_bytes_total", lbl).Add(check.BytesRead)
	return check, nil
}

func verifyStream(src stream.Source) (*StreamCheck, error) {
	r := &streamReader{src: src}
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	check := &StreamCheck{NBlocks: h.nblocks, Gen: h.gen, BaseGen: h.baseGen}
	crc := crc32.NewIEEE()
	var ext [8]byte
	buf := make([]byte, storage.BlockSize)
	for {
		if err := r.readFull(ext[:]); err != nil {
			return nil, fmt.Errorf("%w: missing trailer", ErrBadStream)
		}
		start := binary.LittleEndian.Uint32(ext[0:])
		count := binary.LittleEndian.Uint32(ext[4:])
		if start == EndSentinel {
			if crc.Sum32() != count {
				return nil, ErrBadChecksum
			}
			break
		}
		if start == CkptSentinel {
			if crc.Sum32() != count {
				return nil, ErrBadChecksum
			}
			check.Checkpoints++
			continue
		}
		if uint64(start)+uint64(count) > h.nblocks || count == 0 {
			return nil, fmt.Errorf("%w: extent %d+%d out of range", ErrBadStream, start, count)
		}
		check.Extents++
		for b := uint32(0); b < count; b++ {
			if err := r.readFull(buf); err != nil {
				return nil, err
			}
			crc.Write(buf)
			check.BlockCount++
		}
	}
	if uint64(check.BlockCount) != h.blockCount {
		return nil, fmt.Errorf("%w: header says %d blocks, stream carries %d",
			ErrBadStream, h.blockCount, check.BlockCount)
	}
	check.BytesRead = r.read
	return check, nil
}
