package main

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/chunk"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The timing wrappers the traced host pass interposes at the repo's
// interface seams. Each records one span per call. They are built
// only through the tracer's hooks below, which hand back the wrapped
// value untouched when tracing is off.

// recordSink is the stream-sink contract shared by dumpfmt.Sink,
// physical.Sink and ndmp.Sink.
type recordSink interface {
	WriteRecord(data []byte) error
	NextVolume() error
}

// recordSource is dumpfmt.Source and physical.Source.
type recordSource interface {
	ReadRecord() ([]byte, error)
}

// tapCounts is what a sink or source wrapper counted.
type tapCounts struct {
	records atomic.Int64
	bytes   atomic.Int64
}

type sinkTap struct {
	t     *tracer
	inner recordSink
	layer string
	n     *tapCounts
}

func (s *sinkTap) WriteRecord(data []byte) error {
	idx := s.t.begin(depthSeam, s.layer, "WriteRecord")
	err := s.inner.WriteRecord(data)
	s.t.finish(depthSeam, idx)
	s.n.records.Add(1)
	s.n.bytes.Add(int64(len(data)))
	return err
}

func (s *sinkTap) NextVolume() error {
	idx := s.t.begin(depthSeam, s.layer, "NextVolume")
	defer s.t.finish(depthSeam, idx)
	return s.inner.NextVolume()
}

// BindProc forwards pipeline.ProcBinder: a writer stage rebinds the
// drive adapter to its own sim process through the wrapper.
func (s *sinkTap) BindProc(p *sim.Proc) *sim.Proc {
	if b, ok := s.inner.(interface{ BindProc(*sim.Proc) *sim.Proc }); ok {
		return b.BindProc(p)
	}
	return nil
}

// Sync forwards dumpfmt.Syncer.
func (s *sinkTap) Sync() error {
	if sy, ok := s.inner.(interface{ Sync() error }); ok {
		return sy.Sync()
	}
	return nil
}

// sink wraps a stream sink; its spans are charged to layer.
func (t *tracer) sink(s recordSink, layer string) recordSink {
	if t == nil {
		return s
	}
	return &sinkTap{t: t, inner: s, layer: layer, n: t.counts(layer + ".sink")}
}

// chunkSink is a chunk.Writer as the dedup dump uses it.
type chunkSink interface {
	recordSink
	Close() (chunk.Manifest, error)
}

type chunkSinkTap struct {
	sinkTap
	w *chunk.Writer
}

func (s *chunkSinkTap) Close() (chunk.Manifest, error) {
	idx := s.t.begin(depthSeam, s.layer, "Close")
	defer s.t.finish(depthSeam, idx)
	return s.w.Close()
}

func (t *tracer) chunkSink(w *chunk.Writer) chunkSink {
	if t == nil {
		return w
	}
	return &chunkSinkTap{sinkTap: sinkTap{t: t, inner: w, layer: "chunk", n: t.counts("chunk.sink")}, w: w}
}

type sourceTap struct {
	t     *tracer
	inner recordSource
	layer string
	n     *tapCounts
}

func (s *sourceTap) ReadRecord() ([]byte, error) {
	idx := s.t.begin(depthSeam, s.layer, "ReadRecord")
	rec, err := s.inner.ReadRecord()
	s.t.finish(depthSeam, idx)
	if err == nil {
		s.n.records.Add(1)
		s.n.bytes.Add(int64(len(rec)))
	}
	return rec, err
}

func (s *sourceTap) BindProc(p *sim.Proc) *sim.Proc {
	if b, ok := s.inner.(interface{ BindProc(*sim.Proc) *sim.Proc }); ok {
		return b.BindProc(p)
	}
	return nil
}

func (t *tracer) source(s recordSource, layer string) recordSource {
	if t == nil {
		return s
	}
	return &sourceTap{t: t, inner: s, layer: layer, n: t.counts(layer + ".source")}
}

// tapTotal sums the counter sets whose name ends in suffix (".sink",
// ".source"): every stream record that crossed a wrapper that way.
func (t *tracer) tapTotal(suffix string) (records, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, c := range t.taps {
		if strings.HasSuffix(name, suffix) {
			records += c.records.Load()
			bytes += c.bytes.Load()
		}
	}
	return records, bytes
}

// counts returns the named counter set, creating it on first use.
func (t *tracer) counts(name string) *tapCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.taps[name]
	if !ok {
		c = &tapCounts{}
		t.taps[name] = c
	}
	return c
}

// deviceTap sits between wafl (or the physical engine) and raid. It
// forwards the optional run, async-run and prefetch interfaces so the
// engines keep their fast paths.
type deviceTap struct {
	t     *tracer
	inner storage.Device
	layer string
}

func (d *deviceTap) NumBlocks() int { return d.inner.NumBlocks() }

func (d *deviceTap) ReadBlock(ctx context.Context, bno int, buf []byte) error {
	idx := d.t.begin(depthSeam, d.layer, "ReadBlock")
	defer d.t.finish(depthSeam, idx)
	return d.inner.ReadBlock(ctx, bno, buf)
}

func (d *deviceTap) WriteBlock(ctx context.Context, bno int, data []byte) error {
	idx := d.t.begin(depthSeam, d.layer, "WriteBlock")
	defer d.t.finish(depthSeam, idx)
	return d.inner.WriteBlock(ctx, bno, data)
}

func (d *deviceTap) ReadRun(ctx context.Context, bno, n int, buf []byte) error {
	idx := d.t.begin(depthSeam, d.layer, "ReadRun")
	defer d.t.finish(depthSeam, idx)
	return storage.ReadRun(ctx, d.inner, bno, n, buf)
}

func (d *deviceTap) WriteRun(ctx context.Context, bno, n int, buf []byte) error {
	idx := d.t.begin(depthSeam, d.layer, "WriteRun")
	defer d.t.finish(depthSeam, idx)
	return storage.WriteRun(ctx, d.inner, bno, n, buf)
}

func (d *deviceTap) ReadRunAsync(ctx context.Context, bno, n int, buf []byte) (sim.Time, error) {
	idx := d.t.begin(depthSeam, d.layer, "ReadRunAsync")
	defer d.t.finish(depthSeam, idx)
	return storage.ReadRunAsync(ctx, d.inner, bno, n, buf)
}

func (d *deviceTap) Prefetch(ctx context.Context, bno int) {
	if p, ok := d.inner.(interface {
		Prefetch(ctx context.Context, bno int)
	}); ok {
		p.Prefetch(ctx, bno)
	}
}

func (t *tracer) device(d storage.Device, layer string) storage.Device {
	if t == nil {
		return d
	}
	return &deviceTap{t: t, inner: d, layer: layer}
}

type mediaTap struct {
	t     *tracer
	inner chunk.Media
	reads *tapCounts
}

func (m *mediaTap) Append(data []byte) (chunk.Loc, error) {
	idx := m.t.begin(depthInner, "chunk.media", "Append")
	defer m.t.finish(depthInner, idx)
	return m.inner.Append(data)
}

func (m *mediaTap) ReadAt(loc chunk.Loc) ([]byte, error) {
	idx := m.t.begin(depthInner, "chunk.media", "ReadAt")
	defer m.t.finish(depthInner, idx)
	m.reads.records.Add(1)
	return m.inner.ReadAt(loc)
}

func (t *tracer) media(m chunk.Media) chunk.Media {
	if t == nil {
		return m
	}
	return &mediaTap{t: t, inner: m, reads: t.counts("chunk.media.read")}
}

type indexTap struct {
	t       *tracer
	inner   chunk.Index
	lookups *tapCounts
}

func (x *indexTap) LookupChunk(h chunk.Hash) (chunk.Entry, bool) {
	idx := x.t.begin(depthInner, "catalog", "LookupChunk")
	defer x.t.finish(depthInner, idx)
	x.lookups.records.Add(1)
	return x.inner.LookupChunk(h)
}

func (x *indexTap) CommitChunks(entries []chunk.Entry) error {
	idx := x.t.begin(depthInner, "catalog", "CommitChunks")
	defer x.t.finish(depthInner, idx)
	return x.inner.CommitChunks(entries)
}

func (t *tracer) index(x chunk.Index) chunk.Index {
	if t == nil {
		return x
	}
	return &indexTap{t: t, inner: x, lookups: t.counts("catalog.lookup")}
}

type storeTap struct {
	t     *tracer
	inner catalog.Store
	n     *tapCounts
}

func (s *storeTap) ReadAll() ([]byte, error) { return s.inner.ReadAll() }

func (s *storeTap) Append(p []byte) error {
	idx := s.t.begin(depthStore, "catalog.store", "Append")
	defer s.t.finish(depthStore, idx)
	s.n.records.Add(1)
	s.n.bytes.Add(int64(len(p)))
	return s.inner.Append(p)
}

func (s *storeTap) Truncate(n int64) error { return s.inner.Truncate(n) }

func (t *tracer) store(s catalog.Store) catalog.Store {
	if t == nil {
		return s
	}
	return &storeTap{t: t, inner: s, n: t.counts("catalog.store")}
}

// connTap times a transport.Conn and counts the frames sent through it
// and the bytes moved both ways. Recv includes the wait for the peer, so
// on the client it is mostly the host's turnaround, and on the server
// mostly idle time between frames.
type connTap struct {
	t     *tracer
	inner transport.Conn
	layer string
	n     *tapCounts
}

func (c *connTap) Send(raw []byte) error {
	idx := c.t.begin(depthSeam, c.layer, "Send")
	defer c.t.finish(depthSeam, idx)
	c.n.records.Add(1)
	c.n.bytes.Add(int64(len(raw)))
	return c.inner.Send(raw)
}

func (c *connTap) Recv(timeout time.Duration) ([]byte, error) {
	idx := c.t.begin(depthSeam, c.layer+".recv", "Recv")
	raw, err := c.inner.Recv(timeout)
	c.t.finish(depthSeam, idx)
	if err == nil {
		c.n.bytes.Add(int64(len(raw)))
	}
	return raw, err
}

func (c *connTap) Close() error { return c.inner.Close() }

// conn wraps one end of a connection; side is "client" or "server".
func (t *tracer) conn(c transport.Conn, side string) transport.Conn {
	if t == nil {
		return c
	}
	return &connTap{t: t, inner: c, layer: "transport." + side, n: t.counts("transport." + side)}
}
