package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/ndmp"
	"repro/internal/obs"
)

// clockPool builds a pool on a hand-cranked clock so admission and
// bucket behavior are deterministic.
func clockPool(cfg DrivePoolConfig) (*DrivePool, *time.Duration) {
	now := new(time.Duration)
	cfg.Now = func() time.Duration { return *now }
	return NewDrivePool(cfg), now
}

func mustAdmit(t *testing.T, p *DrivePool, tenant string, session uint64, want ndmp.Admission) {
	t.Helper()
	got, msg := p.Admit(tenant, session, 0)
	if got != want {
		t.Fatalf("admit %s/%d = %v (%q), want %v", tenant, session, got, msg, want)
	}
}

// TestSchedAdmissionBounds admits exactly Drives streams, parks the
// overflow, and proves Admit is idempotent: polls from granted and
// queued streams neither consume extra slots nor duplicate waiters.
func TestSchedAdmissionBounds(t *testing.T) {
	p, _ := clockPool(DrivePoolConfig{Drives: 2, MaxQueue: 2})
	mustAdmit(t, p, "a", 1, ndmp.AdmitGranted)
	mustAdmit(t, p, "a", 2, ndmp.AdmitGranted)
	mustAdmit(t, p, "a", 3, ndmp.AdmitWait)
	mustAdmit(t, p, "a", 4, ndmp.AdmitWait)
	// Queue full: a fifth stream is refused outright.
	got, msg := p.Admit("a", 5, 0)
	if got != ndmp.AdmitReject || msg == "" {
		t.Fatalf("over-queue admit = %v (%q), want reject with reason", got, msg)
	}
	// Idempotency: a granted stream's re-Hello answers Granted without
	// a second slot; a waiter's poll does not enqueue it twice.
	mustAdmit(t, p, "a", 1, ndmp.AdmitGranted)
	mustAdmit(t, p, "a", 3, ndmp.AdmitWait)
	if a, q := p.Active(), p.Queued(); a != 2 || q != 2 {
		t.Fatalf("active=%d queued=%d, want 2/2", a, q)
	}
	// Release is idempotent and frees the slot for the head waiter.
	p.Release("a", 1, 0)
	p.Release("a", 1, 0)
	mustAdmit(t, p, "a", 3, ndmp.AdmitGranted)
	st := p.Stats()
	if st.Granted != 3 || st.Rejected != 1 || st.Released != 1 || st.Waited == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchedNoQueue: a negative MaxQueue disables waiting entirely —
// every over-capacity Hello rejects immediately.
func TestSchedNoQueue(t *testing.T) {
	p, _ := clockPool(DrivePoolConfig{Drives: 1, MaxQueue: -1})
	mustAdmit(t, p, "a", 1, ndmp.AdmitGranted)
	mustAdmit(t, p, "b", 2, ndmp.AdmitReject)
	if p.Queued() != 0 {
		t.Fatalf("queued = %d with queueing disabled", p.Queued())
	}
}

// TestSchedFairShare frees one drive under a queue holding a tenant
// that already has streams running and a tenant with none: the
// have-not wins even though it arrived later.
func TestSchedFairShare(t *testing.T) {
	p, _ := clockPool(DrivePoolConfig{Drives: 2})
	mustAdmit(t, p, "hog", 1, ndmp.AdmitGranted)
	mustAdmit(t, p, "hog", 2, ndmp.AdmitGranted)
	mustAdmit(t, p, "hog", 3, ndmp.AdmitWait) // arrived first
	mustAdmit(t, p, "newbie", 4, ndmp.AdmitWait)
	p.Release("hog", 1, 0)
	// hog polls first but still has one active stream; newbie has none
	// and must win the freed drive.
	mustAdmit(t, p, "hog", 3, ndmp.AdmitWait)
	mustAdmit(t, p, "newbie", 4, ndmp.AdmitGranted)
	// The next free drive then goes to hog (both tenants now at one
	// active stream, hog arrived earlier).
	p.Release("newbie", 4, 0)
	mustAdmit(t, p, "hog", 3, ndmp.AdmitGranted)
}

// TestSchedStaleWaiterExpiry: a waiter whose client stops polling is
// reclaimed after StaleAfter, freeing its queue slot; a live poller
// at the same age survives.
func TestSchedStaleWaiterExpiry(t *testing.T) {
	p, now := clockPool(DrivePoolConfig{Drives: 1, MaxQueue: 2, StaleAfter: time.Second})
	mustAdmit(t, p, "a", 1, ndmp.AdmitGranted)
	mustAdmit(t, p, "dead", 2, ndmp.AdmitWait)
	mustAdmit(t, p, "live", 3, ndmp.AdmitWait)
	*now = 600 * time.Millisecond
	mustAdmit(t, p, "live", 3, ndmp.AdmitWait) // refreshes liveness
	*now = 1200 * time.Millisecond
	// dead's lastPoll is now 1.2s old (> StaleAfter); live's is 0.6s.
	mustAdmit(t, p, "late", 4, ndmp.AdmitWait) // fits: dead was expired
	if q := p.Queued(); q != 2 {
		t.Fatalf("queued = %d after expiry, want 2", q)
	}
	if st := p.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}
	// The freed drive goes to the live waiter, not the expired one.
	p.Release("a", 1, 0)
	mustAdmit(t, p, "live", 3, ndmp.AdmitGranted)
}

// TestSchedTenantRateLimit charges bytes against a per-tenant bucket:
// the charge that overdraws still lands (the bytes are on tape) but
// credit is withheld until refill repays the debt.
func TestSchedTenantRateLimit(t *testing.T) {
	p, now := clockPool(DrivePoolConfig{
		Drives: 2, DefaultRate: 1000,
	})
	// Burst = one second of rate: the first 1000 bytes pass.
	if !p.Charge("a", 1, 0, 1000) {
		t.Fatal("charge within burst denied")
	}
	// Overdraw: the bucket goes into debt and withholds credit.
	if p.Charge("a", 1, 0, 500) {
		t.Fatal("overdraw charge still had credit")
	}
	// A pure poll (heartbeat) while in debt stays throttled.
	if p.Charge("a", 1, 0, 0) {
		t.Fatal("poll while in debt had credit")
	}
	// Half a second refills 500 tokens, exactly repaying the debt.
	*now = 500 * time.Millisecond
	if !p.Charge("a", 1, 0, 0) {
		t.Fatal("poll after refill still throttled")
	}
	if st := p.Stats(); st.Throttled != 2 {
		t.Fatalf("throttled = %d, want 2", st.Throttled)
	}
}

// TestSchedAggregateRateLimit: the pool-wide bucket (Drives×DriveRate)
// throttles a tenant that is individually unlimited.
func TestSchedAggregateRateLimit(t *testing.T) {
	p, now := clockPool(DrivePoolConfig{Drives: 2, DriveRate: 500})
	// Aggregate burst is 1000; the second 600-byte charge overdraws.
	if !p.Charge("a", 1, 0, 600) {
		t.Fatal("first charge denied")
	}
	if p.Charge("b", 2, 0, 600) {
		t.Fatal("aggregate overdraw had credit")
	}
	*now = 400 * time.Millisecond // refills 400, repaying the 200 debt
	if !p.Charge("b", 2, 0, 0) {
		t.Fatal("poll after aggregate refill still throttled")
	}
}

// TestSchedMetrics registers the pool's collectors and spot-checks a
// few against the stats snapshot.
func TestSchedMetrics(t *testing.T) {
	p, _ := clockPool(DrivePoolConfig{Drives: 1, MaxQueue: 1})
	mustAdmit(t, p, "a", 1, ndmp.AdmitGranted)
	mustAdmit(t, p, "a", 2, ndmp.AdmitWait)
	mustAdmit(t, p, "a", 3, ndmp.AdmitReject)
	r := obs.NewRegistry()
	p.RegisterMetrics(r)
	for name, want := range map[string]float64{
		"sched_pool_granted_total":  1,
		"sched_pool_rejected_total": 1,
		"sched_pool_active_streams": 1,
		"sched_pool_queued_streams": 1,
	} {
		if got := r.Sum(name); got != want {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestSchedManyTenantsConverge drives a release/admit churn across
// many tenants and checks the scheduler never exceeds its drive count
// and eventually serves everyone.
func TestSchedManyTenantsConverge(t *testing.T) {
	const tenants, drives = 8, 3
	p, _ := clockPool(DrivePoolConfig{Drives: drives, MaxQueue: tenants})
	served := make(map[string]bool)
	for round := 0; len(served) < tenants && round < 100; round++ {
		for i := 0; i < tenants; i++ {
			tn := fmt.Sprintf("t%d", i)
			if served[tn] {
				continue
			}
			if got, _ := p.Admit(tn, uint64(i), 0); got == ndmp.AdmitGranted {
				served[tn] = true
				p.Release(tn, uint64(i), 0)
			}
			if p.Active() > drives {
				t.Fatalf("active %d exceeds drives %d", p.Active(), drives)
			}
		}
	}
	if len(served) != tenants {
		t.Fatalf("only %d/%d tenants served", len(served), tenants)
	}
}
