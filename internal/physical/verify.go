package physical

import (
	"context"
	"fmt"

	"repro/internal/obs"
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
// nothing. It returns the stream's identity on success. The pass runs
// under a "physical.verify" span and feeds the verify_* metrics from
// the registry in ctx.
func VerifyStream(ctx context.Context, src stream.Source) (*StreamCheck, error) {
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
	walk, err := walkExtents(r, h, func(_, n int, _ []byte) error {
		check.BlockCount += n
		return nil
	})
	if err != nil {
		return nil, err
	}
	check.Extents, check.Checkpoints = walk.extents, walk.checkpoints
	if uint64(check.BlockCount) != h.blockCount {
		return nil, fmt.Errorf("%w: header says %d blocks, stream carries %d",
			ErrBadStream, h.blockCount, check.BlockCount)
	}
	check.BytesRead = r.read
	return check, nil
}
