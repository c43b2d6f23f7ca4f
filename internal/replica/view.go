package replica

import (
	"sync"
	"time"
)

// View is one configuration of the group: a numbered primary
// assignment. Backups lists the remaining members in canonical order;
// promotion on primary death picks the most-up-to-date live backup.
type View struct {
	Num     uint64
	Primary string
	Backups []string
}

// viewService is the simulated view server: the one component every
// node and client can always reach (in a real deployment it is the
// small replicated coordination service; here it runs in-process on
// the virtual clock). Nodes ping it periodically; when the primary
// misses pings for DeadAfter of virtual time, the service publishes a
// new view promoting a backup.
//
// The promotion rule is the zero-loss linchpin: pings carry each
// node's journal size, and the service promotes the live backup with
// the LARGEST journal. Journals are prefix-ordered (appends are
// offset-addressed and framed), so the largest live journal contains
// every record any quorum acknowledged — a smaller live backup may be
// missing an acked record that only the biggest one durably framed.
type viewService struct {
	mu        sync.Mutex
	deadAfter time.Duration
	members   []string
	view      View
	changes   uint64
	last      map[string]time.Time
	size      map[string]int64
}

// newViewService builds the service over a fixed member set. The
// initial view names members[0] primary; every member is considered
// live as of start.
func newViewService(members []string, deadAfter time.Duration, start time.Time) *viewService {
	vs := &viewService{
		deadAfter: deadAfter,
		members:   append([]string(nil), members...),
		last:      make(map[string]time.Time, len(members)),
		size:      make(map[string]int64, len(members)),
	}
	for _, m := range members {
		vs.last[m] = start
	}
	vs.view = View{Num: 1, Primary: members[0], Backups: append([]string(nil), members[1:]...)}
	return vs
}

// Ping records a liveness report from node name holding a journal of
// size bytes. A node that was declared dead becomes a promotion
// candidate again on its next ping.
func (vs *viewService) Ping(name string, size int64, now time.Time) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if _, ok := vs.last[name]; ok {
		vs.last[name] = now
		vs.size[name] = size
	}
}

// Tick advances the failure detector to now: if the primary has
// missed pings for longer than DeadAfter and a live backup exists, a
// new view promotes the live backup with the largest journal.
func (vs *viewService) Tick(now time.Time) View {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if now.Sub(vs.last[vs.view.Primary]) <= vs.deadAfter {
		return vs.viewLocked()
	}
	// Primary is dead. Promote the most-up-to-date live backup;
	// member order breaks size ties deterministically.
	var cand string
	var candSize int64 = -1
	for _, b := range vs.view.Backups {
		if now.Sub(vs.last[b]) > vs.deadAfter {
			continue
		}
		if vs.size[b] > candSize {
			cand, candSize = b, vs.size[b]
		}
	}
	if cand == "" {
		return vs.viewLocked() // no live backup: the group stalls, it never regresses
	}
	backups := make([]string, 0, len(vs.members)-1)
	for _, m := range vs.members {
		if m != cand {
			backups = append(backups, m)
		}
	}
	vs.view = View{Num: vs.view.Num + 1, Primary: cand, Backups: backups}
	vs.changes++
	return vs.viewLocked()
}

// View returns the current view.
func (vs *viewService) View() View {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.viewLocked()
}

// Changes returns how many view changes (failovers) have occurred.
func (vs *viewService) Changes() uint64 {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.changes
}

func (vs *viewService) viewLocked() View {
	v := vs.view
	v.Backups = append([]string(nil), v.Backups...)
	return v
}
