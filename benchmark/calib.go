package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"runtime/debug"
	"time"
)

// The reference kernel: copy 4 KiB blocks around a 128 MiB arena in a
// fixed LCG order and CRC each one. It is memcpy plus checksum over a
// working set far larger than cache — the same mix the dump engines
// run — so when the machine slows down (a neighbour on the core, a
// frequency step) the kernel slows with it, and dividing a rep's rate
// by the kernel runs on either side of it cancels the drift. The
// kernel belongs to the benchmark and must never change: every
// *_host_rel number is in units of it.
const (
	arenaBytes  = 128 << 20
	kernelBlock = 4096
	arenaBlocks = arenaBytes / kernelBlock
)

// The host-pass protocol's floors.
const (
	repFloor     = 500 * time.Millisecond // least timed work in one rep
	warmupPasses = 2                      // the warm-up rep is a single pass only if that pass is long
)

// minReps is the least number of timed reps in a phase; a variable
// only so the smoke tests can lower it.
var minReps = 5

// nominalKernel is the kernel rate, in MiB/s, that setup_s is quoted
// at: about what this sandbox does on a good minute.
const nominalKernel = 5000

type kernel struct {
	arena []byte
	sink  uint32 // keeps the CRCs live
}

// newKernel allocates the arena and touches every page, so the first
// timed run pays no page faults.
func newKernel() *kernel {
	k := &kernel{arena: make([]byte, arenaBytes)}
	for i := 0; i < arenaBytes; i += 8 {
		k.arena[i] = byte(i >> 12)
	}
	k.run()
	return k
}

// run executes the kernel once and returns its rate in MiB/s.
func (k *kernel) run() float64 {
	t0 := time.Now()
	x := uint32(12345)
	var acc uint32
	for i := 0; i < arenaBlocks; i++ {
		// Numerical Recipes LCG; arenaBlocks is a power of two.
		x = x*1664525 + 1013904223
		src := int(x>>8) % arenaBlocks
		if src == i {
			continue
		}
		d := k.arena[i*kernelBlock : (i+1)*kernelBlock]
		copy(d, k.arena[src*kernelBlock:(src+1)*kernelBlock])
		acc ^= crc32.ChecksumIEEE(d)
	}
	k.sink ^= acc
	return float64(arenaBytes>>20) / time.Since(t0).Seconds()
}

// setupSeconds times one set-up and returns it in seconds of a machine
// on which the kernel runs at nominalKernel: the wall time scaled by
// the kernel runs on either side of it. The driver gates setup_s on the
// median of ten runs, and this machine's speed wanders by a third over
// minutes: two sets of ten launches of identical code, eighteen minutes
// apart, had median raw set-up times of 1.31 and 1.02 s on logical-4d
// and 0.46 and 0.32 s on fleet-push. Scaled, the number says what the
// set-up costs and not what minute it ran in (twelve launches of
// logical-4d: raw 14 % IQR and 42 % range over the median, scaled 6 %
// and 13 %). setUp returns the part of its own time that counts.
func (k *kernel) setupSeconds(setUp func() (time.Duration, error)) (float64, error) {
	before := k.run()
	d, err := setUp()
	after := k.run()
	return d.Seconds() * (before + after) / 2 / nominalKernel, err
}

// phaseStats is what one host phase (dump or restore) measured, one
// entry per timed rep.
type phaseStats struct {
	Reps  int
	Rel   []float64 // calibrated score
	MiBps []float64 // raw rate
	Calib []float64 // mean of the two adjacent kernel runs
	// Heap allocations and heap bytes allocated over the rep's timed
	// intervals, per user MiB and per user byte.
	AllocsPerMiB      []float64
	AllocBytesPerByte []float64
}

func (p *phaseStats) rel() float64 { return median(p.Rel) }

// The allocation metrics are medians over reps. A restore pass runs on
// one goroutine and allocates the same every time; a dump pass runs a
// pipeline of them, and how often a buffer misses its sync.Pool is the
// scheduler's doing: single logical-4d dump reps allocated 3.04–3.69
// bytes per user byte, a fifth more in two reps of six.
func (p *phaseStats) allocsPerMiB() float64 { return median(p.AllocsPerMiB) }

func (p *phaseStats) allocBytesPerByte() float64 { return median(p.AllocBytesPerByte) }

// speed describes the phase's host speed for the printed table.
func (p *phaseStats) speed() string {
	q1, _, q3 := quartiles(p.Rel)
	return fmt.Sprintf("host, ungated: %d reps, %.1f MiB/s = %.4f of the kernel's %.0f MiB/s, quartiles %.4f..%.4f",
		p.Reps, median(p.MiBps), p.rel(), median(p.Calib), q1, q3)
}

// meter accumulates the timed intervals of one rep: wall time and
// runtime.MemStats deltas between start and stop. Work a pass does
// outside start/stop (erasing cartridges, wiping the target volume,
// verifying) is not measured.
type meter struct {
	timed      time.Duration
	mallocs    uint64
	allocBytes uint64

	t0  time.Time
	ms0 runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.t0 = time.Now()
}

func (m *meter) stop() {
	m.timed += time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs += ms.Mallocs - m.ms0.Mallocs
	m.allocBytes += ms.TotalAlloc - m.ms0.TotalAlloc
}

// hostPass runs one pass of a phase, bracketing the measured work with
// m.start/m.stop, and returns the user bytes that work moved.
type hostPass func(m *meter) (userBytes int64, err error)

// hostPhase is the host-pass protocol over budget of timed work: one
// discarded warm-up rep, then timed reps of at least repFloor timed
// work each (passes loop inside a rep) until the budget is spent and at
// least minReps of them are in: a phase whose single pass is long (the
// dedup-week dump) overruns its budget rather than report a median of
// two. The reference kernel runs on either side of each rep (the run
// after rep i is the run before rep i+1, unless afterRep came between)
// and a rep's score is its rate over the mean of the two.
//
// The collector is parked for the phase and run by hand before every
// pass, outside the interval. A pass allocates about as much as the
// one before it freed, so after the warm-up the heap neither grows nor
// is scavenged, and no pass pays page faults or shares its cores with
// a mark phase that another pass escaped; on this sandbox that alone
// took a logical restore pass from 850–930 ms with 2k–33k page faults
// to a fault-free 520–700 ms. What the collector costs follows what is
// allocated, which the allocation metrics gate on their own.
//
// afterRep, if set, runs untimed after every rep (the expensive part
// of verification).
func hostPhase(k *kernel, budget time.Duration, pass hostPass, afterRep func() error) (*phaseStats, error) {
	floor := repFloor
	if budget/time.Duration(minReps) < floor {
		floor = budget / time.Duration(minReps) // smoke-test budgets
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ps := &phaseStats{}
	var spent time.Duration
	before := k.run()
	for warm := true; warm || ps.Reps < minReps || spent < budget; warm = false {
		var m meter
		var bytes int64
		for passes := 0; passes == 0 || m.timed < floor || (warm && passes < warmupPasses && m.timed < 2*floor); passes++ {
			runtime.GC()
			b, err := pass(&m)
			if err != nil {
				return nil, err
			}
			bytes += b
		}
		after := k.run()
		if !warm {
			mibps := float64(bytes) / (1 << 20) / m.timed.Seconds()
			calib := (before + after) / 2
			ps.MiBps = append(ps.MiBps, mibps)
			ps.Calib = append(ps.Calib, calib)
			ps.Rel = append(ps.Rel, mibps/calib)
			ps.AllocsPerMiB = append(ps.AllocsPerMiB, float64(m.mallocs)/mib(bytes))
			ps.AllocBytesPerByte = append(ps.AllocBytesPerByte, float64(m.allocBytes)/float64(bytes))
			ps.Reps++
			spent += m.timed
		}
		before = after
		if afterRep != nil {
			if err := afterRep(); err != nil {
				return nil, err
			}
			// afterRep can outlast the rep it follows (a whole-volume
			// Check): the next rep needs a kernel run of its own time.
			before = k.run()
		}
	}
	return ps, nil
}
