package ndmp

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/transport"
)

// goldenPayload returns the payload of a golden frame.
func goldenPayload(f *testing.F, frameHex string) []byte {
	raw, _ := hex.DecodeString(frameHex)
	fr, err := transport.Decode(raw)
	if err != nil {
		f.Fatal(err)
	}
	return fr.Payload
}

// FuzzDecodeHello throws arbitrary bytes at the Hello decoder, which a
// tape host runs on the first frame of every connection. The
// invariants: never panic; a Hello of another version carries only its
// version byte; and an accepted Hello re-encodes to the bytes it was
// decoded from, up to the trailing bytes the decoder ignores.
func FuzzDecodeHello(f *testing.F) {
	f.Add(goldenPayload(f, goldenHello.hex))
	f.Add(appendHello(nil, Hello{Version: Version}))
	f.Add(appendHello(nil, Hello{Version: Version + 1, Session: 4}))
	f.Add(append(appendHello(nil, Hello{Version: Version, FSID: "fs"}), "trailing"...))
	f.Add([]byte{Version})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if h.Version != Version {
			if h != (Hello{Version: data[0]}) {
				t.Fatalf("a version %d hello decoded to %+v", data[0], h)
			}
			return
		}
		re := appendHello(nil, h)
		if !bytes.HasPrefix(data, re) {
			t.Fatalf("decode/encode not canonical: %x -> %x", data, re)
		}
		if h2, err := decodeHello(re); err != nil || h2 != h {
			t.Fatalf("re-decode: %+v, %v; want %+v", h2, err, h)
		}
	})
}

// FuzzDecodeAck throws arbitrary bytes at the ack decoder, which a data
// mover runs on every answer from the host. The invariants: never
// panic, and an accepted ack re-encodes to exactly its bytes.
func FuzzDecodeAck(f *testing.F) {
	for _, g := range goldenAcks {
		f.Add(goldenPayload(f, g.hex))
	}
	f.Add([]byte{})
	f.Add(make([]byte, ackFixed-1))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeAck(data)
		if err != nil {
			return
		}
		if re := appendAck(nil, a); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %x -> %x", data, re)
		}
	})
}
