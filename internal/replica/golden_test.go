package replica

import (
	"encoding/hex"
	"errors"
	"testing"
)

// goldenMessages is one encoded frame of every wire message, with the
// hex Encode produced before the record codec became a shared package:
// two builds of the cluster must keep understanding each other, so a
// refactor of the codec must not move a byte.
var goldenMessages = []struct {
	m   Message
	hex string
}{
	{Append{View: 3, Seq: 9, Off: 1024, Frame: []byte("framed-record")},
		"01010300000000000000090000000000000000040000000000000d0000006672616d65642d7265636f7264"},
	{AppendAck{View: 4, Seq: 9, Size: 128, OK: false, Msg: "lagging"},
		"020104000000000000000900000000000000800000000000000000070000006c616767696e67"},
	{Status{Prefix: -1},
		"0301ffffffffffffffff"},
	{StatusAck{Size: 4096, CRC: 0xDEADBEEF, Seq: 17},
		"04010010000000000000efbeadde1100000000000000"},
	{Catchup{Have: 512, CRC: 0x01020304},
		"0501000200000000000004030201"},
	{CatchupResp{From: 512, Total: 700, OK: true, Data: []byte("suffix")},
		"06010002000000000000bc020000000000000106000000737566666978"},
	{Install{View: 5, From: 0, Seq: 20, Data: []byte("whole-journal")},
		"07010500000000000000000000000000000014000000000000000d00000077686f6c652d6a6f75726e616c"},
	{InstallAck{Size: 700, OK: true},
		"0801bc020000000000000100000000"},
	{Truncate{View: 5, N: 96},
		"090105000000000000006000000000000000"},
	{TruncateAck{Size: 96, OK: false, Msg: "short"},
		"0a016000000000000000000500000073686f7274"},
}

func TestGoldenWireBytes(t *testing.T) {
	for _, g := range goldenMessages {
		if got := hex.EncodeToString(Encode(g.m)); got != g.hex {
			t.Errorf("%T encodes to %s, want %s", g.m, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		if m, err := Decode(want); err != nil || hex.EncodeToString(Encode(m)) != g.hex {
			t.Errorf("%T: golden bytes decode to %v, %v", g.m, m, err)
		}
		// Truncated and trailing-byte frames are ErrBadMessage.
		for _, bad := range [][]byte{want[:len(want)-1], append(append([]byte(nil), want...), 0)} {
			if _, err := Decode(bad); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%T: a %d-byte frame (golden is %d): %v", g.m, len(bad), len(want), err)
			}
		}
	}
	// So are a byte-string length past MaxWire and a boolean that is
	// neither 0 nor 1.
	long := append(Encode(Install{})[:26:26], 0xff, 0xff, 0xff, 0x7f)
	ack := Encode(InstallAck{})
	ack[10] = 2
	for _, bad := range [][]byte{long, ack} {
		if _, err := Decode(bad); !errors.Is(err, ErrBadMessage) {
			t.Errorf("frame %x: %v", bad, err)
		}
	}
}
