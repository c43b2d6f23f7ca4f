package storage

import (
	"context"
	"testing"
	"time"

	"repro/internal/sim"
)

// readAll reads every block of d once, returning the per-block errors.
func readAll(t *testing.T, d *FaultDevice) []error {
	t.Helper()
	buf := make([]byte, BlockSize)
	errs := make([]error, d.NumBlocks())
	for i := range errs {
		errs[i] = d.ReadBlock(context.Background(), i, buf)
	}
	return errs
}

func TestFaultProfileDeterministic(t *testing.T) {
	mk := func() []error {
		d := NewFaultDevice(NewMemDevice(256))
		d.Arm(FaultProfile{Seed: 42, ReadFault: 0.1, Transient: 0.5})
		return readAll(t, d)
	}
	a, b := mk(), mk()
	faults := 0
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			t.Fatalf("block %d: runs diverge (%v vs %v)", i, a[i], b[i])
		}
		if a[i] != nil {
			faults++
			if !IsTransient(a[i]) && !IsTransient(b[i]) {
				// persistent faults must agree too
				if a[i].Error() != b[i].Error() {
					t.Fatalf("block %d: %v vs %v", i, a[i], b[i])
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("profile injected no faults in 256 reads at p=0.1")
	}
}

func TestTransientHealsAfterN(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(8))
	d.Arm(FaultProfile{Seed: 1, ReadFault: 1, Transient: 1, HealAfter: 3, MaxFaults: 1})
	buf := make([]byte, BlockSize)
	var errs []error
	for i := 0; i < 5; i++ {
		errs = append(errs, d.ReadBlock(context.Background(), 0, buf))
	}
	for i := 0; i < 3; i++ {
		if !IsTransient(errs[i]) {
			t.Fatalf("attempt %d: want transient fault, got %v", i, errs[i])
		}
	}
	for i := 3; i < 5; i++ {
		if errs[i] != nil {
			t.Fatalf("attempt %d: want healed read, got %v", i, errs[i])
		}
	}
	st := d.FaultStats()
	if st.Transient != 1 || st.Persistent != 0 {
		t.Fatalf("stats = %+v, want 1 transient", st)
	}
}

func TestLatentSectorIsSticky(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(8))
	d.Arm(FaultProfile{Seed: 7, ReadFault: 1, Transient: 0, MaxFaults: 1})
	buf := make([]byte, BlockSize)
	first := d.ReadBlock(context.Background(), 3, buf)
	if first == nil || IsTransient(first) {
		t.Fatalf("want latent sector error, got %v", first)
	}
	// MaxFaults reached: other blocks read fine, block 3 stays bad.
	if err := d.ReadBlock(context.Background(), 4, buf); err != nil {
		t.Fatalf("block 4: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := d.ReadBlock(context.Background(), 3, buf); err == nil {
			t.Fatal("latent sector error healed on its own")
		}
	}
	d.Disarm()
	if err := d.ReadBlock(context.Background(), 3, buf); err == nil {
		t.Fatal("latent sector error vanished on Disarm")
	}
	d.ClearFaults()
	if err := d.ReadBlock(context.Background(), 3, buf); err != nil {
		t.Fatalf("after ClearFaults: %v", err)
	}
}

func TestSkipReadsAndMaxFaults(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(64))
	d.Arm(FaultProfile{Seed: 3, ReadFault: 1, Transient: 0, SkipReads: 10, MaxFaults: 2})
	errs := readAll(t, d)
	for i := 0; i < 10; i++ {
		if errs[i] != nil {
			t.Fatalf("block %d inside SkipReads faulted: %v", i, errs[i])
		}
	}
	faults := 0
	for _, err := range errs[10:] {
		if err != nil {
			faults++
		}
	}
	if faults != 2 {
		t.Fatalf("injected %d faults, want MaxFaults=2", faults)
	}
}

func TestRunFaultInsideRun(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(64))
	d.Arm(FaultProfile{Seed: 5, RunFault: 1, Transient: 1, HealAfter: 1, MaxFaults: 3})
	buf := make([]byte, 32*BlockSize)
	err := ReadRun(context.Background(), d, 0, 32, buf)
	if !IsTransient(err) {
		t.Fatalf("want transient fault from run read, got %v", err)
	}
	// Each retry may draw a fresh run fault, but MaxFaults bounds the
	// total and every fault is transient, so retries converge.
	ok := false
	for i := 0; i < 10 && !ok; i++ {
		ok = ReadRun(context.Background(), d, 0, 32, buf) == nil
	}
	if !ok {
		t.Fatal("run read never succeeded despite bounded transient faults")
	}
}

func TestDeterministicAPIUnchanged(t *testing.T) {
	d := NewFaultDevice(NewMemDevice(8))
	d.Arm(FaultProfile{Seed: 1}) // armed but zero probabilities
	d.FailRead(2, ErrLatentSector)
	buf := make([]byte, BlockSize)
	if err := d.ReadBlock(context.Background(), 2, buf); err != ErrLatentSector {
		t.Fatalf("FailRead: got %v", err)
	}
	d.Fail()
	if err := d.ReadBlock(context.Background(), 0, buf); err != ErrFailed {
		t.Fatalf("Fail: got %v", err)
	}
	d.Heal()
	if err := d.ReadBlock(context.Background(), 0, buf); err != nil {
		t.Fatalf("Heal: got %v", err)
	}
}

func TestRetryPolicyDelayAndCharge(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, Initial: 2 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	env := sim.NewEnv()
	var elapsed time.Duration
	env.Spawn("retry", func(proc *sim.Proc) {
		ctx := sim.WithProc(context.Background(), proc)
		start := proc.Now()
		p.Charge(ctx, 1)
		p.Charge(ctx, 2)
		elapsed = proc.Now() - start
	})
	env.Run()
	if elapsed != 6*time.Millisecond {
		t.Fatalf("charged %v of simulated time, want 6ms", elapsed)
	}
	// Untimed context: Charge must be a no-op, not a wall-clock sleep.
	p.Charge(context.Background(), 3)
}
