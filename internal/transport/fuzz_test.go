package transport

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder — the
// first thing a tape host runs on every frame a client sends. The
// invariants: never panic, and a frame the decoder accepts re-encodes
// to exactly the bytes that produced it, so nothing in a frame is
// ignored on the way to the session layer.
func FuzzDecodeFrame(f *testing.F) {
	for _, g := range goldenFrames {
		f.Add(Encode(&g.f))
	}
	f.Add([]byte{})
	f.Add(frameMagic[:])
	f.Add(bytes.Repeat([]byte{'X'}, HeaderSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := Decode(data)
		if err != nil {
			return // rejecting garbage is the job
		}
		if re := AppendFrame(nil, &fr); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical: %x -> %x", data, re)
		}
	})
}
