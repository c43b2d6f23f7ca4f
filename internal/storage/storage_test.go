package storage

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/allocpin"
	"repro/internal/bufpool"
)

func TestMemDeviceReadWrite(t *testing.T) {
	ctx := context.Background()
	d := NewMemDevice(8)
	if d.NumBlocks() != 8 {
		t.Fatalf("NumBlocks = %d, want 8", d.NumBlocks())
	}
	data := make([]byte, BlockSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := d.WriteBlock(ctx, 3, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(ctx, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read back different data")
	}
}

func TestMemDeviceZeroFill(t *testing.T) {
	ctx := context.Background()
	d := NewMemDevice(2)
	buf := make([]byte, BlockSize)
	buf[0] = 0xFF // ensure ReadBlock overwrites stale contents
	if err := d.ReadBlock(ctx, 1, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten block byte %d = %#x, want 0", i, b)
		}
	}
}

func TestMemDeviceBounds(t *testing.T) {
	ctx := context.Background()
	d := NewMemDevice(4)
	buf := make([]byte, BlockSize)
	for _, bno := range []int{-1, 4, 1000} {
		if err := d.ReadBlock(ctx, bno, buf); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ReadBlock(%d) err = %v, want ErrOutOfRange", bno, err)
		}
		if err := d.WriteBlock(ctx, bno, buf); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("WriteBlock(%d) err = %v, want ErrOutOfRange", bno, err)
		}
	}
}

func TestMemDeviceBadLength(t *testing.T) {
	ctx := context.Background()
	d := NewMemDevice(4)
	for _, n := range []int{0, 1, BlockSize - 1, BlockSize + 1} {
		buf := make([]byte, n)
		if err := d.ReadBlock(ctx, 0, buf); !errors.Is(err, ErrBadLength) {
			t.Errorf("ReadBlock with %d-byte buf err = %v, want ErrBadLength", n, err)
		}
		if err := d.WriteBlock(ctx, 0, buf); !errors.Is(err, ErrBadLength) {
			t.Errorf("WriteBlock with %d-byte buf err = %v, want ErrBadLength", n, err)
		}
	}
}

func TestMemDeviceWriteIsCopied(t *testing.T) {
	// The device must not alias the caller's buffer.
	ctx := context.Background()
	d := NewMemDevice(1)
	data := make([]byte, BlockSize)
	data[0] = 1
	if err := d.WriteBlock(ctx, 0, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // mutate after write
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(ctx, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 {
		t.Fatalf("device aliased caller buffer: got %d, want 1", buf[0])
	}
}

func TestMemDeviceRoundTripProperty(t *testing.T) {
	ctx := context.Background()
	d := NewMemDevice(64)
	f := func(bno uint8, fill byte) bool {
		b := int(bno) % 64
		data := bytes.Repeat([]byte{fill}, BlockSize)
		if err := d.WriteBlock(ctx, b, data); err != nil {
			return false
		}
		buf := make([]byte, BlockSize)
		if err := d.ReadBlock(ctx, b, buf); err != nil {
			return false
		}
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultDeviceWholeFailure(t *testing.T) {
	ctx := context.Background()
	d := NewFaultDevice(NewMemDevice(4))
	buf := make([]byte, BlockSize)
	if err := d.WriteBlock(ctx, 0, buf); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	if err := d.ReadBlock(ctx, 0, buf); !errors.Is(err, ErrFailed) {
		t.Fatalf("read after Fail err = %v, want ErrFailed", err)
	}
	if err := d.WriteBlock(ctx, 0, buf); !errors.Is(err, ErrFailed) {
		t.Fatalf("write after Fail err = %v, want ErrFailed", err)
	}
	d.Heal()
	if err := d.ReadBlock(ctx, 0, buf); err != nil {
		t.Fatalf("read after Heal err = %v", err)
	}
}

func TestFaultDeviceLatentSectorError(t *testing.T) {
	ctx := context.Background()
	d := NewFaultDevice(NewMemDevice(4))
	sentinel := errors.New("media error")
	d.FailRead(2, sentinel)
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(ctx, 2, buf); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if err := d.ReadBlock(ctx, 1, buf); err != nil {
		t.Fatalf("healthy block err = %v", err)
	}
	// Writes to the bad block still work (remapping semantics).
	if err := d.WriteBlock(ctx, 2, buf); err != nil {
		t.Fatalf("write to bad-read block err = %v", err)
	}
}

func TestFaultDeviceCounts(t *testing.T) {
	ctx := context.Background()
	d := NewFaultDevice(NewMemDevice(4))
	buf := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		if err := d.WriteBlock(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := d.ReadBlock(ctx, i, buf); err != nil {
			t.Fatal(err)
		}
	}
	r, w := d.Counts()
	if r != 2 || w != 3 {
		t.Fatalf("counts = (%d, %d), want (2, 3)", r, w)
	}
}

// TestMemDeviceUnwrittenBlockReadsZero backs blocks on both sides of
// one that is never written, in an order that puts them in one slab:
// the gap must still read as zeros, through ReadBlock and ReadRun, and
// a first write to it later must leave its neighbours alone.
func TestMemDeviceUnwrittenBlockReadsZero(t *testing.T) {
	ctx := context.Background()
	d := NewMemDevice(16)
	ones := bytes.Repeat([]byte{0xFF}, BlockSize)
	for _, bno := range []int{6, 4, 3} {
		if err := d.WriteBlock(ctx, bno, ones); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteRun(ctx, 0, 2, bytes.Repeat([]byte{0xFF}, 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0x5A}, BlockSize)
	if err := d.ReadBlock(ctx, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, zeroBlock[:]) {
		t.Fatal("never-written block 5 does not read as zeros")
	}
	run := make([]byte, 8*BlockSize)
	if err := ReadRun(ctx, d, 0, 8, run); err != nil {
		t.Fatal(err)
	}
	for bno := 0; bno < 8; bno++ {
		want := zeroBlock[:]
		if bno != 2 && bno != 5 && bno != 7 {
			want = ones
		}
		if !bytes.Equal(run[bno*BlockSize:(bno+1)*BlockSize], want) {
			t.Fatalf("ReadRun: block %d holds the wrong bytes", bno)
		}
	}
	twos := bytes.Repeat([]byte{2}, BlockSize)
	if err := d.WriteBlock(ctx, 5, twos); err != nil {
		t.Fatal(err)
	}
	for bno, want := range map[int][]byte{3: ones, 4: ones, 5: twos, 6: ones, 7: zeroBlock[:]} {
		if err := d.ReadBlock(ctx, bno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("after writing block 5, block %d holds the wrong bytes", bno)
		}
	}
}

// TestMemDeviceFirstWriteAllocs pins how a MemDevice backs blocks: at
// most two allocations per slabBlocks blocks first written when its
// slabs are fresh (the slab and the pointer bufpool.Get returns it by),
// none once bufpool holds free slabs, whether the blocks arrive one by
// one or as runs, in any address order.
func TestMemDeviceFirstWriteAllocs(t *testing.T) {
	ctx := context.Background()
	const runs = 8
	data := make([]byte, 16*BlockSize)
	defer bufpool.SetEnabled(true)
	type writer struct {
		name  string
		write func(d *MemDevice, base int) error
	}
	writers := []writer{
		{"WriteBlock", func(d *MemDevice, base int) error {
			for i := 0; i < slabBlocks; i++ {
				if err := d.WriteBlock(ctx, base+i, data[:BlockSize]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"WriteRun", func(d *MemDevice, base int) error {
			for i := slabBlocks - 16; i >= 0; i -= 16 {
				if err := d.WriteRun(ctx, base+i, 16, data); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	for _, pooled := range []bool{false, true} {
		bufpool.SetEnabled(pooled)
		ceiling, slabs := 2.0, "fresh slabs"
		if pooled {
			ceiling, slabs = 0, "pooled slabs"
		}
		for _, tc := range writers {
			if pooled {
				// AllocsPerRun writes runs+1 slabs' worth; put that many in the pool.
				var held []*[]byte
				for i := 0; i <= runs; i++ {
					held = append(held, bufpool.Get(slabBytes))
				}
				for _, p := range held {
					bufpool.Put(p)
				}
			}
			d := NewMemDevice((runs + 1) * slabBlocks)
			base := 0
			n := testing.AllocsPerRun(runs, func() {
				if err := tc.write(d, base); err != nil {
					t.Fatal(err)
				}
				base += slabBlocks
			})
			if n > ceiling {
				t.Errorf("%s on %s: %v allocations per %d blocks first written, want <= %v", tc.name, slabs, n, slabBlocks, ceiling)
			}
		}
	}
}

// slabBytes is the bufpool class a MemDevice's slabs come from.
const slabBytes = slabBlocks * BlockSize

// TestMemDeviceReusesDroppedSlabs: the slabs of a device nothing refers
// to go back to bufpool, and a device that backs its blocks from them
// reads back exactly what it wrote and reads its never-written blocks
// as zeros, never the bytes a slab held before.
func TestMemDeviceReusesDroppedSlabs(t *testing.T) {
	ctx := context.Background()
	const n = 4 * slabBlocks
	stale := bytes.Repeat([]byte{0xC3}, n*BlockSize)
	d := NewMemDevice(n)
	if err := d.WriteRun(ctx, 0, n, stale); err != nil {
		t.Fatal(err)
	}
	free := bufpool.Free(slabBytes)
	runtime.KeepAlive(d)
	allocpin.AwaitFree(t, slabBytes, free+n/slabBlocks)
	// Other dropped devices' slabs may sit above d's in the pool: make
	// every free slab hold d's bytes, whichever the device takes.
	pooled := make([]*[]byte, bufpool.Free(slabBytes))
	for i := range pooled {
		pooled[i] = bufpool.Get(slabBytes)
		copy(*pooled[i], stale)
	}
	for _, p := range pooled {
		bufpool.Put(p)
	}

	// A run that fills one slab, then one block of the next slab with
	// never-written blocks on either side of it.
	e := NewMemDevice(n)
	run := make([]byte, slabBlocks*BlockSize)
	for i := range run {
		run[i] = byte(i/BlockSize + 1)
	}
	one := bytes.Repeat([]byte{0x5A}, BlockSize)
	if err := e.WriteRun(ctx, 0, slabBlocks, run); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBlock(ctx, slabBlocks+1, one); err != nil {
		t.Fatal(err)
	}
	if len(e.slabs) != 2 {
		t.Fatalf("the device took %d slabs, want 2", len(e.slabs))
	}
	got := make([]byte, n*BlockSize)
	if err := ReadRun(ctx, e, 0, n, got); err != nil {
		t.Fatal(err)
	}
	for bno := 0; bno < n; bno++ {
		want := zeroBlock[:]
		switch {
		case bno < slabBlocks:
			want = run[bno*BlockSize : (bno+1)*BlockSize]
		case bno == slabBlocks+1:
			want = one
		}
		blk := got[bno*BlockSize : (bno+1)*BlockSize]
		if bytes.Equal(blk, want) {
			continue
		}
		if bytes.Equal(blk, stale[:BlockSize]) {
			t.Fatalf("block %d reads a dropped device's bytes", bno)
		}
		t.Fatalf("block %d holds the wrong bytes", bno)
	}
}

// TestMemDeviceUnpooledSlabsAreFresh: with pooling off, a device
// allocates its slabs, zeroed, and leaves the free ones in bufpool.
func TestMemDeviceUnpooledSlabsAreFresh(t *testing.T) {
	ctx := context.Background()
	p := bufpool.Get(slabBytes)
	for i := range *p {
		(*p)[i] = 0xC3
	}
	bufpool.Put(p)
	bufpool.SetEnabled(false)
	defer bufpool.SetEnabled(true)
	free := bufpool.Free(slabBytes)
	d := NewMemDevice(slabBlocks)
	if err := d.WriteBlock(ctx, 0, bytes.Repeat([]byte{1}, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if now := bufpool.Free(slabBytes); now < free {
		t.Fatalf("a device took a pooled slab with pooling off: %d free, was %d", now, free)
	}
	if s := *d.slabs[0]; !bytes.Equal(s[BlockSize:], make([]byte, len(s)-BlockSize)) {
		t.Fatal("with pooling off, a device's slab is not fresh")
	}
}

// TestMemDeviceCloneIsIndependent: a clone reads what the device held
// when it was taken, never-written blocks as zeros, whatever either
// side writes afterwards.
func TestMemDeviceCloneIsIndependent(t *testing.T) {
	ctx := context.Background()
	d := NewMemDevice(8)
	ones := bytes.Repeat([]byte{1}, BlockSize)
	if err := d.WriteRun(ctx, 2, 3, bytes.Repeat([]byte{1}, 3*BlockSize)); err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	twos := bytes.Repeat([]byte{2}, BlockSize)
	if err := d.WriteBlock(ctx, 3, twos); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlock(ctx, 6, twos); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for bno, want := range map[int][]byte{1: zeroBlock[:], 2: ones, 3: ones, 4: ones, 5: zeroBlock[:], 6: twos} {
		if err := c.ReadBlock(ctx, bno, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("clone block %d holds the wrong bytes", bno)
		}
	}
	if err := d.ReadBlock(ctx, 6, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, zeroBlock[:]) {
		t.Fatal("a write to the clone reached the device")
	}
}
