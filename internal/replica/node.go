package replica

import (
	"bytes"
	"sync"

	"repro/internal/catalog"
)

// node is one replica: a durable copy of the catalog journal. A node is
// passive — the Cluster calls it and it never calls anyone. The primary
// role is a property of the current view, not of the node: the same
// node serves appends as a primary in one view and accepts installs as
// a lagging backup in the next. A node copies every byte it keeps and
// every byte it hands out, so no caller's slice is ever shared.
type node struct {
	name string

	mu      sync.Mutex
	store   catalog.Store
	buf     []byte // cached journal contents (mirror of store)
	alive   bool
	maxView uint64 // highest view number seen; calls from older views are refused
}

// openNode opens a replica over its durable store. Like catalog.Open
// it truncates a torn tail — a node that crashed mid-frame rejoins
// with a clean frame-boundary journal and catches up from there.
func openNode(name string, store catalog.Store) (*node, error) {
	n := &node{name: name, store: store, alive: true}
	if err := n.load(); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *node) load() error {
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

// kill marks the node dead: the cluster stops reaching it and stops
// pinging for it. Its durable store keeps whatever was framed before.
func (n *node) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
}

// restart revives a killed node from its durable store, truncating any
// torn tail.
func (n *node) restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = true
	return n.load()
}

func (n *node) isAlive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// size is the node's status: its journal length in bytes.
func (n *node) size() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return int64(len(n.buf))
}

// journal returns a copy of the node's journal bytes.
func (n *node) journal() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	return bytes.Clone(n.buf)
}

// fence refuses a call from a view older than the newest the node has
// seen, so a deposed primary's cluster cannot write; a newer view
// raises the fence. Callers hold mu.
func (n *node) fence(view uint64) bool {
	if view < n.maxView {
		return false
	}
	n.maxView = view
	return true
}

// append applies one offset-addressed run of framed records and reports
// whether the node now holds them at off. The offset makes replay
// idempotent and exposes divergence:
//
//   - off == size: the expected case — durably frame the records.
//   - off+len <= size and bytes match: a duplicate delivery (retry
//     after a partial quorum); ack without rewriting.
//   - off < size and bytes differ: this node carries a stale
//     unacknowledged tail from a previous view (it was a primary that
//     framed a record no quorum acked). Refuse; the cluster responds by
//     installing the primary's suffix, which truncates the tail.
//   - off > size: the node lags; refuse so catch-up closes the gap.
func (n *node) append(view uint64, off int64, frames []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.fence(view) {
		return false
	}
	size := int64(len(n.buf))
	switch end := off + int64(len(frames)); {
	case off == size:
		if !wholeFrames(frames) || n.store.Append(frames) != nil {
			return false
		}
		n.buf = append(n.buf, frames...)
		return true
	case off < size && end <= size:
		return bytes.Equal(n.buf[off:end], frames)
	default:
		return false
	}
}

// suffixFor is the catch-up read: what a node whose journal is have
// lacks of this one. With n the shorter of the two lengths, that is the
// suffix past n when the first n bytes agree, otherwise (the journals
// diverged below n) the whole journal from 0.
func (n *node) suffixFor(have []byte) (from int64, data []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	common := min(len(have), len(n.buf))
	if !bytes.Equal(have[:common], n.buf[:common]) {
		common = 0
	}
	return int64(common), bytes.Clone(n.buf[common:])
}

// install truncates to from and appends the caught-up bytes — the one
// operation allowed to discard data, and only ever an unacknowledged
// tail (the installed bytes come from the view's primary, which holds
// every acknowledged record).
func (n *node) install(view uint64, from int64, data []byte) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.fence(view) || from < 0 || from > int64(len(n.buf)) || !wholeFrames(data) {
		return false
	}
	if n.store.Truncate(from) != nil {
		return false
	}
	n.buf = n.buf[:from]
	if len(data) > 0 {
		if n.store.Append(data) != nil {
			return false
		}
		n.buf = append(n.buf, data...)
	}
	return true
}

// truncate shortens the journal to size bytes (torn-tail repair).
func (n *node) truncate(view uint64, size int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.fence(view) || size < 0 || size > int64(len(n.buf)) || n.store.Truncate(size) != nil {
		return false
	}
	n.buf = n.buf[:size]
	return true
}

// wholeFrames reports whether p consists entirely of intact journal
// frames — the validity gate for bytes a node is asked to keep.
func wholeFrames(p []byte) bool {
	valid, err := catalog.ScanFrames(p, nil)
	return err == nil && valid == int64(len(p))
}
