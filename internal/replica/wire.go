// Package replica is the primary/backup replication layer for the
// catalog journal — the 6.824 view-service shape run on the virtual
// clock. Three simulated nodes each hold a durable copy of the
// CRC-framed journal; a client-side Cluster handle implements
// catalog.Store, so a Catalog opened over it acknowledges
// AppendDumpSet / AppendFileIndex / Expire / AppendMediaEvent /
// AppendSessionCheckpoint only after a quorum of nodes has durably
// framed the record. A view service tracks node liveness through
// pings, promotes the most-up-to-date live backup when the primary
// dies, and a catch-up protocol replays the CRC-framed journal into
// rejoining nodes, truncating any unacknowledged tail they carried
// into the crash.
//
// The durability contract mirrors logical recovery systems: an
// operation is durable only once its log record is replicated and
// acknowledged. The chaos suite (internal/chaos/replica.go) proves the
// operational consequence — no acknowledged dump set is ever lost to a
// primary killed or partitioned mid-append or mid-dump.
package replica

import (
	"errors"
	"fmt"

	"repro/internal/codec"
)

// Wire message kinds. Every exchange between the Cluster handle and a
// node is one encoded request frame and one encoded reply frame, so
// the protocol is fuzzable end to end (FuzzDecodeWire) and a simulated
// partition is simply an undelivered frame.
const (
	// MsgAppend replicates one framed journal record at an offset.
	MsgAppend byte = 0x01
	// MsgAppendAck answers an append with the node's journal size.
	MsgAppendAck byte = 0x02
	// MsgStatus asks a node for its journal size, prefix CRC and the
	// highest applied append sequence.
	MsgStatus byte = 0x03
	// MsgStatusAck answers MsgStatus.
	MsgStatusAck byte = 0x04
	// MsgCatchup asks the primary for journal bytes past a verified
	// prefix (the catch-up read half).
	MsgCatchup byte = 0x05
	// MsgCatchupResp carries the journal suffix (or the full journal
	// when the requester's prefix failed verification).
	MsgCatchupResp byte = 0x06
	// MsgInstall writes caught-up journal bytes into a lagging node,
	// truncating its unacknowledged tail first (the write half).
	MsgInstall byte = 0x07
	// MsgInstallAck answers MsgInstall.
	MsgInstallAck byte = 0x08
	// MsgTruncate replicates a journal truncation (torn-tail repair).
	MsgTruncate byte = 0x09
	// MsgTruncateAck answers MsgTruncate.
	MsgTruncateAck byte = 0x0A
)

// wireVersion is the replica wire protocol version.
const wireVersion = 1

// MaxWire bounds one wire message; catch-up responses carry whole
// journals, so the bound is generous but still refuses wild lengths.
const MaxWire = 64 << 20

// ErrBadMessage reports an undecodable replica wire message.
var ErrBadMessage = errors.New("replica: bad wire message")

// Message is any replica wire payload.
type Message interface{ kind() byte }

// View is one configuration of the group: a numbered primary
// assignment. Backups lists the remaining members in canonical order;
// promotion on primary death picks the most-up-to-date live backup.
type View struct {
	Num     uint64
	Primary string
	Backups []string
}

// Append replicates one CRC-framed journal record. Off is the byte
// offset the frame must land at — offsets make replay idempotent: a
// node that already holds bytes past Off acks the duplicate without
// rewriting, and a node whose journal is shorter reports lag so the
// caller can run catch-up first.
type Append struct {
	View  uint64
	Seq   uint64
	Off   int64
	Frame []byte
}

// AppendAck answers Append. Size is the node's journal length after
// the handler ran (its lag report when OK is false).
type AppendAck struct {
	View uint64
	Seq  uint64
	Size int64
	OK   bool
	Msg  string
}

// Status asks for a node's replication state. Prefix, when >= 0,
// selects the byte length the CRC is computed over (min'd with the
// journal size); -1 means the whole journal.
type Status struct {
	Prefix int64
}

// StatusAck reports a node's journal size, the CRC32 over the
// requested prefix, and the highest applied append sequence.
type StatusAck struct {
	Size int64
	CRC  uint32
	Seq  uint64
}

// Catchup asks the primary for journal bytes past the requester's
// verified prefix: Have bytes with CRC over them. If the primary's own
// first Have bytes carry the same CRC it returns only the suffix;
// otherwise the journals diverged and it returns everything from 0.
type Catchup struct {
	Have int64
	CRC  uint32
}

// CatchupResp carries the catch-up data. When OK is false the
// requester's Have exceeds the primary's journal (an unacknowledged
// tail survived a crash); Total reports the primary's size so the
// requester can retry with a shorter verified prefix.
type CatchupResp struct {
	From  int64
	Total int64
	OK    bool
	Data  []byte
}

// Install writes catch-up data into a lagging node: truncate to From,
// then append Data (which must scan as whole CRC frames). Seq is the
// primary's applied sequence as of the data's end.
type Install struct {
	View uint64
	From int64
	Seq  uint64
	Data []byte
}

// InstallAck answers Install with the node's resulting journal size.
type InstallAck struct {
	Size int64
	OK   bool
	Msg  string
}

// Truncate replicates a journal truncation to length N.
type Truncate struct {
	View uint64
	N    int64
}

// TruncateAck answers Truncate with the node's resulting size.
type TruncateAck struct {
	Size int64
	OK   bool
	Msg  string
}

func (Append) kind() byte      { return MsgAppend }
func (AppendAck) kind() byte   { return MsgAppendAck }
func (Status) kind() byte      { return MsgStatus }
func (StatusAck) kind() byte   { return MsgStatusAck }
func (Catchup) kind() byte     { return MsgCatchup }
func (CatchupResp) kind() byte { return MsgCatchupResp }
func (Install) kind() byte     { return MsgInstall }
func (InstallAck) kind() byte  { return MsgInstallAck }
func (Truncate) kind() byte    { return MsgTruncate }
func (TruncateAck) kind() byte { return MsgTruncateAck }

// --- encoding: [kind u8][version u8] then internal/codec fields, the
// catalog's journal payload style. Wire bytes are untrusted input (see
// FuzzDecodeWire).

// Encode marshals m into one wire frame.
func Encode(m Message) []byte {
	e := &codec.Enc{}
	e.U8(m.kind())
	e.U8(wireVersion)
	switch v := m.(type) {
	case Append:
		e.U64(v.View)
		e.U64(v.Seq)
		e.I64(v.Off)
		e.Bytes(v.Frame)
	case AppendAck:
		e.U64(v.View)
		e.U64(v.Seq)
		e.I64(v.Size)
		e.Bool(v.OK)
		e.Str(v.Msg)
	case Status:
		e.I64(v.Prefix)
	case StatusAck:
		e.I64(v.Size)
		e.U32(v.CRC)
		e.U64(v.Seq)
	case Catchup:
		e.I64(v.Have)
		e.U32(v.CRC)
	case CatchupResp:
		e.I64(v.From)
		e.I64(v.Total)
		e.Bool(v.OK)
		e.Bytes(v.Data)
	case Install:
		e.U64(v.View)
		e.I64(v.From)
		e.U64(v.Seq)
		e.Bytes(v.Data)
	case InstallAck:
		e.I64(v.Size)
		e.Bool(v.OK)
		e.Str(v.Msg)
	case Truncate:
		e.U64(v.View)
		e.I64(v.N)
	case TruncateAck:
		e.I64(v.Size)
		e.Bool(v.OK)
		e.Str(v.Msg)
	default:
		panic(fmt.Sprintf("replica: encode of unknown message %T", m))
	}
	return e.B
}

// Decode parses one wire frame. It is the untrusted-input boundary of
// the replication layer: arbitrary bytes must produce a message or an
// error, never a panic or an oversized allocation.
func Decode(raw []byte) (Message, error) {
	d := &codec.Dec{B: raw, Max: MaxWire, Bad: ErrBadMessage}
	kind := d.U8()
	ver := d.U8()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if ver != wireVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadMessage, ver)
	}
	// Fields decode in wire order: Go evaluates the calls in a composite
	// literal left to right.
	var m Message
	switch kind {
	case MsgAppend:
		m = Append{View: d.U64(), Seq: d.U64(), Off: d.I64(), Frame: d.Bytes()}
	case MsgAppendAck:
		m = AppendAck{View: d.U64(), Seq: d.U64(), Size: d.I64(), OK: d.Bool(), Msg: d.Str()}
	case MsgStatus:
		m = Status{Prefix: d.I64()}
	case MsgStatusAck:
		m = StatusAck{Size: d.I64(), CRC: d.U32(), Seq: d.U64()}
	case MsgCatchup:
		m = Catchup{Have: d.I64(), CRC: d.U32()}
	case MsgCatchupResp:
		m = CatchupResp{From: d.I64(), Total: d.I64(), OK: d.Bool(), Data: d.Bytes()}
	case MsgInstall:
		m = Install{View: d.U64(), From: d.I64(), Seq: d.U64(), Data: d.Bytes()}
	case MsgInstallAck:
		m = InstallAck{Size: d.I64(), OK: d.Bool(), Msg: d.Str()}
	case MsgTruncate:
		m = Truncate{View: d.U64(), N: d.I64()}
	case MsgTruncateAck:
		m = TruncateAck{Size: d.I64(), OK: d.Bool(), Msg: d.Str()}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadMessage, kind)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return m, nil
}
