package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// goldenFrames is one encoded frame of every request a data mover sends
// — a data frame with each flag value, the heartbeat, next-volume, sync
// and close requests — with the hex Encode produced before frames were
// encoded into caller buffers: a tape host and a data mover of two
// builds must keep understanding each other, so how a frame is built
// must not move a byte. Types and flags are internal/ndmp's (MsgData
// 0x03, MsgHeartbeat 0x05, MsgNextVol 0x06, MsgClose 0x08, MsgSync 0x0A;
// FlagAckNow 0x01); its golden test pins the Hello and the acks.
var goldenFrames = []struct {
	name string
	f    Frame
	hex  string
}{
	{"data, no flags", Frame{Type: 0x03, Seq: 1, Payload: []byte("record-0001")},
		"4e444d46030001000000000000000b00000085931bef7265636f72642d30303031"},
	{"data, ack-now", Frame{Type: 0x03, Flags: 0x01, Seq: 2, Payload: []byte("record-0002")},
		"4e444d46030102000000000000000b000000259ed2817265636f72642d30303032"},
	{"data, every flag bit", Frame{Type: 0x03, Flags: 0xff, Seq: 0x0102030405060708, Payload: []byte{0, 1, 2, 0xfe, 0xff}},
		"4e444d4603ff080706050403020105000000702b8903000102feff"},
	{"heartbeat", Frame{Type: 0x05, Flags: 0x01},
		"4e444d4605010000000000000000000000002fce8e88"},
	{"next-vol", Frame{Type: 0x06, Flags: 0x01},
		"4e444d460601000000000000000000000000f4ebeff4"},
	{"sync", Frame{Type: 0x0A, Flags: 0x01, Seq: 42},
		"4e444d460a012a000000000000000000000040491c2c"},
	{"close", Frame{Type: 0x08, Flags: 0x01},
		"4e444d46080100000000000000000000000074be743f"},
}

func TestGoldenWireBytes(t *testing.T) {
	for _, g := range goldenFrames {
		if got := hex.EncodeToString(Encode(&g.f)); got != g.hex {
			t.Errorf("%s encodes to %s, want %s", g.name, got, g.hex)
		}
		// AppendFrame leaves what dst already holds alone.
		prefix := []byte("kept")
		if got := hex.EncodeToString(AppendFrame(prefix, &g.f)); got != hex.EncodeToString(prefix)+g.hex {
			t.Errorf("%s appended to %q: %s", g.name, prefix, got)
		}
		want, _ := hex.DecodeString(g.hex)
		f, err := Decode(want)
		if err != nil || f.Type != g.f.Type || f.Flags != g.f.Flags || f.Seq != g.f.Seq || !bytes.Equal(f.Payload, g.f.Payload) {
			t.Errorf("%s: golden bytes decode to %+v, %v", g.name, f, err)
		}
		// Truncated and trailing-byte frames are ErrBadFrame.
		for _, bad := range [][]byte{want[:len(want)-1], append(append([]byte(nil), want...), 0)} {
			if _, err := Decode(bad); !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: a %d-byte frame (golden is %d): %v", g.name, len(bad), len(want), err)
			}
		}
	}
}

// TestFrameCodecAllocs pins the frame codec at no heap object per
// frame: AppendFrame into a buffer with room for the frame, and Decode,
// whose Frame value aliases its input.
func TestFrameCodecAllocs(t *testing.T) {
	f := &Frame{Type: 0x03, Flags: 0x01, Seq: 7, Payload: bytes.Repeat([]byte{0x5A}, 8<<10)}
	buf := make([]byte, 0, HeaderSize+len(f.Payload))
	if n := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], f) }); n != 0 {
		t.Errorf("AppendFrame into a sized buffer: %v allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decode: %v allocs per frame, want 0", n)
	}
}
