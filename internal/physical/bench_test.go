package physical

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/storage"
)

type nullSink struct{}

func (nullSink) WriteRecord(data []byte) error { return nil }
func (nullSink) NextVolume() error             { return nil }

// imageRecordWriteStep returns one iteration of the image-dump record
// path — an 8-byte extent header plus one RecordBlocks-sized payload
// chunk with its CRC, through the stream writer to a null sink, the
// steady-state inner loop of Dump — shared by the benchmark that times
// it and the test that counts its allocations.
func imageRecordWriteStep(tb testing.TB) func() {
	w := newStreamWriter(nullSink{})
	chunk := make([]byte, RecordBlocks*storage.BlockSize)
	for i := range chunk {
		chunk[i] = byte(i)
	}
	crc := crc32.NewIEEE()
	var ext [8]byte
	binary.LittleEndian.PutUint32(ext[0:], 7)
	binary.LittleEndian.PutUint32(ext[4:], RecordBlocks)
	return func() {
		if err := w.write(ext[:]); err != nil {
			tb.Fatal(err)
		}
		crc.Write(chunk)
		if err := w.write(chunk); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkImageRecordWrite measures the image-dump record path.
func BenchmarkImageRecordWrite(b *testing.B) {
	step := imageRecordWriteStep(b)
	b.SetBytes(RecordBlocks * storage.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func TestImageRecordWriteZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100, imageRecordWriteStep(t)); n != 0 {
		t.Fatalf("image record write: %v allocs per run, want 0", n)
	}
}
