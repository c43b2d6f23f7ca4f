// Package ndmp is the remote backup session layer, modelled on the
// Network Data Management Protocol split that the paper's tape
// architecture assumes: a data mover (the dump engine, client side)
// pushes a stream to a tape host (server side) that owns the drives.
//
// One Session carries either stream format — logical dumpfmt records
// or physical image extents — because both engines speak the same
// Sink contract (WriteRecord/NextVolume). The session adds what a
// lossy wire demands and a local drive never did: cumulative
// acknowledgments of durably written records, a bounded sliding send
// window for backpressure, heartbeat-based dead-peer detection, and
// exponential-backoff reconnect that replays every unacknowledged
// record idempotently, so a partition mid-dump costs retransmission,
// never a corrupt or truncated tape.
package ndmp

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/transport"
)

// Version is the one protocol version both ends speak: a Hello carries
// the client's acknowledged mark and names the tenant, so a
// multi-tenant tape host can namespace catalogs and enforce per-tenant
// scheduling; MsgSync/MsgSyncAck confirm a checkpoint in one round
// trip; an ack carries one mark, the host's acknowledged sequence,
// followed by eight reserved zero bytes. A host refuses a Hello of any
// other version.
const Version = 4

// Message types carried in transport.Frame.Type.
const (
	// MsgHello opens (or re-opens) a session: payload names the
	// stream so the tape host can bind or create the right sink, and
	// Frame.Seq carries the client's acknowledged mark (0 on a fresh
	// stream), so a host holding nothing of a stream the client has
	// seen acknowledged opens no media for it.
	MsgHello = 0x01
	// MsgHelloAck answers a Hello with the host's durable high-water
	// mark, which is what makes reconnect resume instead of restart.
	MsgHelloAck = 0x02
	// MsgData carries one record; Frame.Seq orders it.
	MsgData = 0x03
	// MsgAck reports the host's cumulative acknowledged sequence.
	MsgAck = 0x04
	// MsgHeartbeat probes a silent peer; the host answers with MsgAck.
	MsgHeartbeat = 0x05
	// MsgNextVol asks the host to mount the next volume after EOM.
	MsgNextVol = 0x06
	// MsgVolAck answers MsgNextVol (distinct from MsgAck so a stale
	// data ack cannot be mistaken for a completed volume switch).
	MsgVolAck = 0x07
	// MsgClose announces a clean end of stream.
	MsgClose = 0x08
	// MsgCloseAck confirms the host saw the close.
	MsgCloseAck = 0x09
	// MsgSync asks the host to confirm a checkpoint. Frame.Seq carries
	// the client's acked mark.
	MsgSync = 0x0A
	// MsgSyncAck answers MsgSync with the host's acknowledged mark:
	// records 1..acked are on its media.
	MsgSyncAck = 0x0B
)

// Frame flags.
const (
	// FlagAckNow asks the host to acknowledge immediately rather than
	// batching; clients set it on the last frame of a burst.
	FlagAckNow = 0x01
)

// Ack status codes (first payload byte of MsgHelloAck/MsgAck/MsgVolAck).
const (
	// AckOK: everything up to the carried sequence is durable.
	AckOK = 0x00
	// AckEOM: the current volume is full; the record after the carried
	// sequence did not fit and the client must request MsgNextVol.
	AckEOM = 0x01
	// AckGap: the host saw a sequence jump (frames lost in flight);
	// the client must replay from the carried sequence + 1.
	AckGap = 0x02
	// AckErr: a non-media host-side failure; payload carries a message
	// and the session is not recoverable by retransmission.
	AckErr = 0x03
	// 0x04 is reserved and never reused: an older host speaking this
	// Version answered a failed-over stream's Hello with it. The client
	// catches a failed-over stream itself (StaleStreamError).
)

// Stream kinds named in MsgHello, so the tape host can label media.
const (
	// KindLogical is a dumpfmt record stream (inode-ordered dump).
	KindLogical = 0x01
	// KindImage is a physical block-image extent stream.
	KindImage = 0x02
)

// The kinds are the catalog's engine values on the wire — code holding
// a catalog.Engine sends byte(engine). An index below is out of range,
// and the build fails, if the two enumerations ever disagree.
var (
	_ = [1]struct{}{}[KindLogical-catalog.Logical]
	_ = [1]struct{}{}[KindImage-catalog.Image]
)

// Hello is the session-open payload. FSID and Level describe what is
// being dumped, so the tape host can record the pushed stream in its
// own backup catalog, not just land the bytes. Tenant names the
// client's namespace: the host keys catalogs, scheduling shares and
// rate limits by it.
type Hello struct {
	Version byte
	Kind    byte   // KindLogical or KindImage
	Session uint64 // client-chosen id, constant across reconnects
	Stream  int    // stream index within the session (volume sequence)
	Level   int32  // incremental level (logical); -1 for image streams
	FSID    string // filesystem the stream dumps ("" = unnamed)
	Tenant  string // namespace on the host ("" = default tenant)
}

// helloFixed is the fixed-width prefix of an encoded Hello: version,
// kind, session, stream, level, and the FSID length. The FSID and a
// length-prefixed tenant name follow.
const helloFixed = 22

// appendHello appends h's encoding to dst.
func appendHello(dst []byte, h Hello) []byte {
	e := codec.Enc{B: dst}
	e.U8(h.Version)
	e.U8(h.Kind)
	e.U64(h.Session)
	e.U32(uint32(h.Stream))
	e.U32(uint32(h.Level))
	e.Str(h.FSID)
	e.Str(h.Tenant)
	return e.B
}

// decodeHello unmarshals a Hello payload. Of a Hello that is not
// Version only the version byte means anything; the host refuses it.
// Bytes after the tenant name are ignored.
func decodeHello(p []byte) (Hello, error) {
	if len(p) < helloFixed {
		return Hello{}, fmt.Errorf("%w: hello payload %d bytes", transport.ErrBadFrame, len(p))
	}
	if p[0] != Version {
		return Hello{Version: p[0]}, nil
	}
	d := codec.Dec{B: p, Max: len(p), Bad: transport.ErrBadFrame}
	h := Hello{
		Version: d.U8(),
		Kind:    d.U8(),
		Session: d.U64(),
		Stream:  int(d.U32()),
		Level:   int32(d.U32()),
		FSID:    d.Str(),
		Tenant:  d.Str(),
	}
	if err := d.Err(); err != nil {
		return Hello{}, fmt.Errorf("hello: %w", err)
	}
	return h, nil
}

// ack is the payload of MsgHelloAck, MsgAck, MsgVolAck, MsgSyncAck and
// MsgCloseAck: a status byte, the cumulative acknowledged sequence,
// eight reserved bytes (zero), and (for AckErr) a human-readable
// reason.
type ack struct {
	status byte
	acked  uint64
	msg    string
}

// ackFixed is the length of an ack before its message.
const ackFixed = 17

// appendAck appends a's encoding to dst; the message runs to the end
// of the payload.
func appendAck(dst []byte, a ack) []byte {
	e := codec.Enc{B: dst}
	e.U8(a.status)
	e.U64(a.acked)
	e.U64(0) // reserved
	e.Raw([]byte(a.msg))
	return e.B
}

// decodeAck unmarshals an ack payload; one whose reserved bytes are
// not zero is refused.
func decodeAck(p []byte) (ack, error) {
	if len(p) < ackFixed {
		return ack{}, fmt.Errorf("%w: ack payload %d bytes", transport.ErrBadFrame, len(p))
	}
	d := codec.Dec{B: p, Bad: transport.ErrBadFrame}
	a := ack{status: d.U8(), acked: d.U64()}
	if d.U64() != 0 {
		return ack{}, fmt.Errorf("%w: ack reserved bytes not zero", transport.ErrBadFrame)
	}
	a.msg = string(p[ackFixed:])
	return a, nil
}

// RemoteError is a host-side failure relayed over the wire (an AckErr
// status). It is terminal: retransmission cannot fix a broken stacker
// or a sink that refused a record for non-media reasons.
type RemoteError struct {
	Op  string // what the client was doing
	Msg string // the host's reason
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("ndmp: remote error during %s: %s", e.Op, e.Msg)
}

// Typed session failures.
var (
	// ErrPeerDead reports heartbeat loss: the peer sent nothing for
	// the configured DeadAfter window despite probes. Detection is
	// charged to the (possibly simulated) clock.
	ErrPeerDead = errors.New("ndmp: peer dead (heartbeat loss)")
	// ErrSessionLost reports that the redial budget was exhausted
	// without re-establishing the session; the dump engine should
	// fall back to checkpoint Resume on a fresh session.
	ErrSessionLost = errors.New("ndmp: session lost")
)

// StreamLost reports whether err means the stream is gone but the dump
// need not be: the peer is dead, the redial budget ran out, or a
// failover put the client in front of fresh media. The engine resumes
// from its last acknowledged checkpoint on a fresh stream.
func StreamLost(err error) bool {
	return errors.Is(err, ErrPeerDead) || errors.Is(err, ErrSessionLost)
}

// SessionLostError carries the cause of a lost session and how many
// reconnects succeeded before the budget ran out. errors.Is matches
// ErrSessionLost.
type SessionLostError struct {
	Cause      error
	Reconnects int
}

func (e *SessionLostError) Error() string {
	return fmt.Sprintf("ndmp: session lost after %d reconnects: %v", e.Reconnects, e.Cause)
}
func (e *SessionLostError) Unwrap() error { return e.Cause }
func (e *SessionLostError) Is(target error) bool {
	return target == ErrSessionLost
}

// StaleStreamError reports that the host answering this stream is not
// the host that was writing it: its mark is behind the one this client
// already saw acknowledged, because a failover (or a host restart) put
// the client in front of a host that holds none of the stream. The
// stream cannot be appended to; the engine resumes on a fresh stream
// from its own last checkpoint. errors.Is matches ErrSessionLost, so
// every resume-from-checkpoint loop handles a failover without
// modification.
type StaleStreamError struct {
	Session uint64
	Stream  int
}

func (e *StaleStreamError) Error() string {
	return fmt.Sprintf("ndmp: stale stream %d/%d after failover: %v", e.Session, e.Stream, ErrSessionLost)
}
func (e *StaleStreamError) Is(target error) bool { return target == ErrSessionLost }
