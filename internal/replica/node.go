package replica

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"

	"repro/internal/catalog"
)

// Node is one replica: a durable copy of the catalog journal behind
// the wire protocol. A node is passive — it answers requests and
// never initiates them. The primary role is a property of the current
// view, not of the node: the same node object serves appends as a
// primary in one view and accepts Installs as a lagging backup in the
// next.
type Node struct {
	Name string

	mu      sync.Mutex
	store   catalog.Store
	buf     []byte // cached journal contents (mirror of store)
	alive   bool
	seq     uint64 // highest append sequence applied
	maxView uint64 // highest view number seen; stale-view appends are refused
}

// OpenNode opens a replica over its durable store. Like catalog.Open
// it truncates a torn tail — a node that crashed mid-frame rejoins
// with a clean frame-boundary journal and catches up from there.
func OpenNode(name string, store catalog.Store) (*Node, error) {
	n := &Node{Name: name, store: store, alive: true}
	if err := n.load(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *Node) load() error {
	buf, err := n.store.ReadAll()
	if err != nil {
		return err
	}
	valid, _ := catalog.ScanFrames(buf, nil)
	if valid < int64(len(buf)) {
		if err := n.store.Truncate(valid); err != nil {
			return err
		}
		buf = buf[:valid]
	}
	n.buf = append([]byte(nil), buf...)
	return nil
}

// Kill marks the node dead: it stops answering and stops being pinged
// for. Its durable store keeps whatever was framed before the kill.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
}

// Restart revives a killed node from its durable store, truncating
// any torn tail. In-memory state (applied sequence) is lost, exactly
// as a process restart would lose it; idempotency of appends rests on
// offsets, which are durable, not on the sequence cache.
func (n *Node) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq = 0
	n.alive = true
	return n.load()
}

// Alive reports whether the node is up.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Size returns the node's journal length in bytes.
func (n *Node) Size() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return int64(len(n.buf))
}

// Journal returns a copy of the node's journal bytes (test/inspection
// hook for the convergence assertions).
func (n *Node) Journal() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]byte(nil), n.buf...)
}

// Handle dispatches one decoded wire message and returns the reply.
// A dead node returns no reply (the Net layer turns that into a
// delivery failure).
func (n *Node) Handle(m Message) (Message, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil, fmt.Errorf("replica: node %s is down", n.Name)
	}
	switch v := m.(type) {
	case Append:
		return n.handleAppend(v), nil
	case Status:
		return n.handleStatus(v), nil
	case Catchup:
		return n.handleCatchup(v), nil
	case Install:
		return n.handleInstall(v), nil
	case Truncate:
		return n.handleTruncate(v), nil
	}
	return nil, fmt.Errorf("%w: node %s: unexpected %T", ErrBadMessage, n.Name, m)
}

// handleAppend applies one offset-addressed framed record. The offset
// makes replay idempotent and exposes divergence:
//
//   - off == size: the expected case — durably frame the record.
//   - off+len <= size and bytes match: a duplicate delivery (retry
//     after a partial quorum); ack without rewriting.
//   - off < size and bytes differ: this node carries a stale
//     unacknowledged tail from a previous view (it was a primary that
//     framed a record no quorum acked). Refuse; the current primary
//     responds by Installing its own suffix, which truncates the tail.
//   - off > size: the node lags; refuse with the size so catch-up can
//     close the gap first.
func (n *Node) handleAppend(m Append) Message {
	if m.View < n.maxView {
		return AppendAck{View: n.maxView, Seq: m.Seq, Size: int64(len(n.buf)), OK: false,
			Msg: fmt.Sprintf("stale view %d < %d", m.View, n.maxView)}
	}
	n.maxView = m.View
	size := int64(len(n.buf))
	switch {
	case m.Off == size:
		if !wholeFrames(m.Frame) {
			return AppendAck{View: m.View, Seq: m.Seq, Size: size, OK: false, Msg: "append is not whole frames"}
		}
		if err := n.store.Append(m.Frame); err != nil {
			return AppendAck{View: m.View, Seq: m.Seq, Size: size, OK: false, Msg: err.Error()}
		}
		n.buf = append(n.buf, m.Frame...)
		if m.Seq > n.seq {
			n.seq = m.Seq
		}
		return AppendAck{View: m.View, Seq: m.Seq, Size: int64(len(n.buf)), OK: true}
	case m.Off+int64(len(m.Frame)) <= size && bytes.Equal(n.buf[m.Off:m.Off+int64(len(m.Frame))], m.Frame):
		if m.Seq > n.seq {
			n.seq = m.Seq
		}
		return AppendAck{View: m.View, Seq: m.Seq, Size: size, OK: true}
	case m.Off < size:
		return AppendAck{View: m.View, Seq: m.Seq, Size: m.Off, OK: false, Msg: "diverged tail"}
	default:
		return AppendAck{View: m.View, Seq: m.Seq, Size: size, OK: false, Msg: "lagging"}
	}
}

func (n *Node) handleStatus(m Status) Message {
	prefix := int64(len(n.buf))
	if m.Prefix >= 0 && m.Prefix < prefix {
		prefix = m.Prefix
	}
	return StatusAck{
		Size: int64(len(n.buf)),
		CRC:  crc32.ChecksumIEEE(n.buf[:prefix]),
		Seq:  n.seq,
	}
}

// handleCatchup serves journal bytes past the requester's verified
// prefix. A CRC mismatch over the shared prefix means the journals
// diverged below the requester's high-water mark, so the response
// restarts from zero — correctness over bandwidth.
func (n *Node) handleCatchup(m Catchup) Message {
	size := int64(len(n.buf))
	if m.Have < 0 {
		return CatchupResp{OK: false, Total: size}
	}
	if m.Have > size {
		return CatchupResp{OK: false, Total: size}
	}
	if crc32.ChecksumIEEE(n.buf[:m.Have]) == m.CRC {
		return CatchupResp{OK: true, From: m.Have, Total: size,
			Data: append([]byte(nil), n.buf[m.Have:]...)}
	}
	return CatchupResp{OK: true, From: 0, Total: size,
		Data: append([]byte(nil), n.buf...)}
}

// handleInstall truncates to From and appends the caught-up bytes —
// the one operation allowed to discard data, and only ever an
// unacknowledged tail (the installed bytes come from the view's
// primary, which holds every acknowledged record).
func (n *Node) handleInstall(m Install) Message {
	if m.View < n.maxView {
		return InstallAck{Size: int64(len(n.buf)), OK: false,
			Msg: fmt.Sprintf("stale view %d < %d", m.View, n.maxView)}
	}
	n.maxView = m.View
	if m.From < 0 || m.From > int64(len(n.buf)) {
		return InstallAck{Size: int64(len(n.buf)), OK: false,
			Msg: fmt.Sprintf("install from %d of %d", m.From, len(n.buf))}
	}
	if !wholeFrames(m.Data) {
		return InstallAck{Size: int64(len(n.buf)), OK: false, Msg: "install data is not whole frames"}
	}
	if err := n.store.Truncate(m.From); err != nil {
		return InstallAck{Size: int64(len(n.buf)), OK: false, Msg: err.Error()}
	}
	n.buf = n.buf[:m.From]
	if len(m.Data) > 0 {
		if err := n.store.Append(m.Data); err != nil {
			return InstallAck{Size: int64(len(n.buf)), OK: false, Msg: err.Error()}
		}
		n.buf = append(n.buf, m.Data...)
	}
	if m.Seq > n.seq {
		n.seq = m.Seq
	}
	return InstallAck{Size: int64(len(n.buf)), OK: true}
}

func (n *Node) handleTruncate(m Truncate) Message {
	if m.View < n.maxView {
		return TruncateAck{Size: int64(len(n.buf)), OK: false,
			Msg: fmt.Sprintf("stale view %d < %d", m.View, n.maxView)}
	}
	n.maxView = m.View
	if m.N < 0 || m.N > int64(len(n.buf)) {
		return TruncateAck{Size: int64(len(n.buf)), OK: false,
			Msg: fmt.Sprintf("truncate %d of %d", m.N, len(n.buf))}
	}
	if err := n.store.Truncate(m.N); err != nil {
		return TruncateAck{Size: int64(len(n.buf)), OK: false, Msg: err.Error()}
	}
	n.buf = n.buf[:m.N]
	return TruncateAck{Size: int64(len(n.buf)), OK: true}
}

// wholeFrames reports whether p consists entirely of intact journal
// frames — the validity gate for bytes arriving over the wire.
func wholeFrames(p []byte) bool {
	valid, err := catalog.ScanFrames(p, nil)
	return err == nil && valid == int64(len(p))
}
