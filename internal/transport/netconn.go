package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"
)

// NetConn adapts a real net.Conn (backupctl's serve/push path) to the
// Conn interface. Frames travel verbatim; the receiver re-reads the
// frame preamble to learn the payload length, so the wire format is
// identical to the simulated link's.
//
// A NetConn receives into one header array and one frame buffer that
// it keeps for the connection's life, so the frame Recv returns is
// valid only until the next Recv. Send writes raw before it returns
// and keeps none of it.
type NetConn struct {
	c   net.Conn
	hdr [HeaderSize]byte
	buf []byte // the last frame received; grown to the largest seen
}

// NewNetConn wraps c.
func NewNetConn(c net.Conn) *NetConn { return &NetConn{c: c} }

// Send implements Conn.
func (n *NetConn) Send(raw []byte) error {
	_, err := n.c.Write(raw)
	return err
}

// Recv implements Conn: it reads exactly one frame, honoring timeout
// as a wall-clock read deadline on the header (0 or negative polls).
// Once the header commits, the payload gets its own deadline scaled to
// its length, so a large frame trickling over a slow link is not
// penalized by a short polling timeout.
//
// Timeouts are only retryable (ErrTimeout) when they expire on a frame
// boundary — zero header bytes read. A deadline that expires mid-frame
// leaves the TCP stream desynchronized: the unread remainder would be
// misparsed as a fresh header on the next call. Those surface as
// ErrBadFrame, which tells the session layer to re-dial rather than
// poll the poisoned stream again.
func (n *NetConn) Recv(timeout time.Duration) ([]byte, error) {
	if timeout <= 0 {
		timeout = time.Millisecond
	}
	if err := n.c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	hdr := n.hdr[:]
	if nr, err := io.ReadFull(n.c, hdr); err != nil {
		if nr > 0 && isTimeout(err) {
			return nil, fmt.Errorf("%w: deadline expired %d bytes into a %d-byte header (stream desynced)",
				ErrBadFrame, nr, HeaderSize)
		}
		return nil, mapNetErr(err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic on the wire", ErrBadFrame)
	}
	plen := binary.LittleEndian.Uint32(hdr[14:])
	if plen > MaxPayload {
		return nil, fmt.Errorf("%w: payload length %d", ErrBadFrame, plen)
	}
	if err := n.c.SetReadDeadline(time.Now().Add(payloadTimeout(int(plen)))); err != nil {
		return nil, err
	}
	size := HeaderSize + int(plen)
	if cap(n.buf) < size {
		n.buf = make([]byte, size)
	}
	raw := n.buf[:size]
	copy(raw, hdr)
	if nr, err := io.ReadFull(n.c, raw[HeaderSize:]); err != nil {
		if isTimeout(err) {
			return nil, fmt.Errorf("%w: deadline expired %d bytes into a %d-byte payload (stream desynced)",
				ErrBadFrame, nr, plen)
		}
		return nil, mapNetErr(err)
	}
	return raw, nil
}

// payloadTimeout budgets the payload read once the header has
// committed: a generous base plus time for the bytes at a worst-case
// trickle (64 KB/s), so the 1 MB ceiling still gets ~17 s.
func payloadTimeout(plen int) time.Duration {
	return time.Second + time.Duration(plen)*time.Second/(64<<10)
}

// Close implements Conn.
func (n *NetConn) Close() error { return n.c.Close() }

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded)
}

// mapNetErr folds wall-clock deadline errors into ErrTimeout so the
// session layer sees one timeout type on both transports.
func mapNetErr(err error) error {
	if isTimeout(err) {
		return ErrTimeout
	}
	return err
}
