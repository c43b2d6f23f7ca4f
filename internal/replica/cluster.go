package replica

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
)

// ErrNoQuorum reports that an operation could not reach a majority of
// replicas within the attempt budget. The operation was NOT
// acknowledged; it may still be present on a minority of nodes as an
// unacknowledged tail, which the next successful view will truncate.
var ErrNoQuorum = errors.New("replica: no quorum")

// The cluster's timing, in virtual time.
const (
	// deadAfter is how long a node may miss pings before the view
	// service declares it dead.
	deadAfter = 3 * time.Second
	// pingEvery is the heartbeat interval, and how far an operation that
	// cannot reach quorum advances the clock before its retry, so
	// failover detection progresses.
	pingEvery = 500 * time.Millisecond
	// maxAttempts bounds how many view-refresh retries an operation makes
	// before returning ErrNoQuorum.
	maxAttempts = 32
)

// Config parameterizes a Cluster.
type Config struct {
	// Members are the replica node names in canonical order; on empty
	// journals members[0] is the initial primary. Three members survive
	// one failure; two are a mirrored pair — quorum is both copies, so
	// any failure fails the append rather than acknowledging on one.
	Members []string
	// Stores maps member name to its durable journal store. Missing
	// entries get a fresh in-memory store.
	Stores map[string]catalog.Store
	// Ctx carries the tracer for per-append replication spans; Registry
	// receives the replication metrics. Both optional.
	Ctx      context.Context
	Registry *obs.Registry
}

// Cluster is the client-side handle that makes a replica group look
// like one durable journal store: it implements catalog.Store, so
// `catalog.Open(cluster)` yields a catalog whose every append is
// quorum-replicated before it is acknowledged. That is the whole
// durability upgrade — dumpfmt checkpoints and dump-set commits
// written through this store mean "survives the loss of any single
// node", not "made it to one host's disk".
//
// The cluster coordinates writes under the current view: the record
// must land on the view's primary plus enough backups for a majority.
// Requiring the primary keeps it a superset of all acknowledged
// history, which is what lets catch-up treat the primary's journal as
// the truth and truncate divergent (always unacknowledged) tails on
// other nodes.
type Cluster struct {
	// opMu serializes whole operations (Append/Truncate/ReadAll), so
	// concurrent appends from multiple goroutines are safe and each
	// gets a distinct offset.
	opMu sync.Mutex
	// mu guards the fast-changing fields below; metric closures take
	// only mu, never opMu.
	mu    sync.Mutex
	size  int64 // acknowledged journal length
	seq   uint64
	clock time.Time

	cfg   Config
	net   *Net
	vs    *ViewService
	nodes []*Node
	ctx   context.Context

	appends        *obs.Counter
	quorumFailures *obs.Counter
	catchups       *obs.Counter
	stalls         *obs.Counter

	// TestHookAfterPrimary, when set, runs after the primary has
	// durably framed an append but before any backup sees it — the
	// exact window where a primary crash strands an unacknowledged
	// record. Returning an error aborts the append (the client never
	// acknowledges), which is how the chaos suite manufactures
	// stranded tails deterministically.
	TestHookAfterPrimary func(seq uint64) error
}

// New builds a cluster, opening (and tail-truncating) every node.
// Durable stores may come back from a crash unequal, so cold start
// applies the view service's promotion rule: the member with the
// largest valid journal leads the first view (member order breaks
// ties, so empty journals start under members[0]) and every other
// member is caught up to it before New returns. The election runs on
// post-load sizes: a node truncated its store at the first invalid
// frame, and only the longer valid journal leading makes that safe.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Members) < 2 {
		return nil, fmt.Errorf("replica: need >= 2 members, have %d", len(cfg.Members))
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Unix(0, 0)
	c := &Cluster{cfg: cfg, ctx: ctx, clock: start}
	for _, name := range cfg.Members {
		store := cfg.Stores[name]
		if store == nil {
			store = &catalog.MemStore{}
		}
		n, err := OpenNode(name, store)
		if err != nil {
			return nil, fmt.Errorf("replica: open node %s: %w", name, err)
		}
		c.nodes = append(c.nodes, n)
	}
	c.net = NewNet(c.nodes...)
	c.vs = NewViewService(cfg.Members, deadAfter, start)
	if r := cfg.Registry; r != nil {
		c.registerMetrics(r)
	}
	lead := c.nodes[0]
	for _, n := range c.nodes[1:] {
		if n.Size() > lead.Size() {
			lead = n
		}
	}
	first := View{Num: 1, Primary: lead.Name}
	for _, n := range c.nodes {
		if n != lead {
			first.Backups = append(first.Backups, n.Name)
		}
	}
	c.vs.view, c.size = first, lead.Size()
	truth := lead.Journal()
	for _, b := range first.Backups {
		if bytes.Equal(c.Node(b).Journal(), truth) {
			continue
		}
		if err := c.catchUp(first, b); err != nil {
			return nil, fmt.Errorf("replica: cold-start catch-up of %s: %w", b, err)
		}
	}
	return c, nil
}

func (c *Cluster) registerMetrics(r *obs.Registry) {
	c.appends = r.Counter("replica_appends_total", nil)
	c.quorumFailures = r.Counter("replica_quorum_failures_total", nil)
	c.catchups = r.Counter("replica_catchups_total", nil)
	c.stalls = r.Counter("replica_stalls_total", nil)
	r.RegisterFunc("replica_view_changes_total", obs.KindCounter, nil, func() float64 {
		return float64(c.vs.Changes())
	})
	r.RegisterFunc("replica_journal_bytes", obs.KindGauge, nil, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.size)
	})
	for _, n := range c.nodes {
		node := n
		r.RegisterFunc("replica_lag_bytes", obs.KindGauge, obs.Labels{"node": node.Name}, func() float64 {
			c.mu.Lock()
			acked := c.size
			c.mu.Unlock()
			lag := acked - node.Size()
			if lag < 0 {
				lag = 0 // an unacknowledged tail is not (negative) lag
			}
			return float64(lag)
		})
	}
}

// quorum is the majority of the fixed member set.
func (c *Cluster) quorum() int { return len(c.cfg.Members)/2 + 1 }

// Now returns the cluster's virtual clock.
func (c *Cluster) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clock
}

// Advance moves the virtual clock forward.
func (c *Cluster) Advance(d time.Duration) {
	c.mu.Lock()
	c.clock = c.clock.Add(d)
	c.mu.Unlock()
}

// Heartbeat pings the view service on behalf of every node that is
// alive and reachable, then ticks the failure detector. A partitioned
// node does not ping — a partition severs its view-service path too,
// which is what lets a partitioned primary be declared dead.
func (c *Cluster) Heartbeat() View {
	now := c.Now()
	for _, n := range c.nodes {
		if n.Alive() && !c.net.Isolated(n.Name) {
			c.vs.Ping(n.Name, n.Size(), now)
		}
	}
	return c.vs.Tick(now)
}

// View returns the current view without advancing anything.
func (c *Cluster) View() View { return c.vs.View() }

// Service exposes the view service (the ndmp failover path watches it
// to learn which tape host is active).
func (c *Cluster) Service() *ViewService { return c.vs }

// Node returns a member by name (chaos/test access).
func (c *Cluster) Node(name string) *Node { return c.net.Node(name) }

// Kill crashes a node.
func (c *Cluster) Kill(name string) {
	if n := c.net.Node(name); n != nil {
		n.Kill()
	}
}

// Restart revives a crashed node from its durable store and brings it
// back up to date from the current primary (best effort — if the
// primary is unreachable the node rejoins lagging and catches up on
// the next append that touches it).
func (c *Cluster) Restart(name string) error {
	n := c.net.Node(name)
	if n == nil {
		return fmt.Errorf("replica: no node %q", name)
	}
	if err := n.Restart(); err != nil {
		return err
	}
	view := c.Heartbeat()
	if view.Primary != name {
		_ = c.catchUp(view, name)
	}
	return nil
}

// Isolate partitions a node off the network.
func (c *Cluster) Isolate(name string) { c.net.Isolate(name) }

// Rejoin heals a node's partition and catches it up (best effort).
func (c *Cluster) Rejoin(name string) {
	c.net.Rejoin(name)
	view := c.Heartbeat()
	if view.Primary != name {
		_ = c.catchUp(view, name)
	}
}

func (c *Cluster) stall() {
	c.stalls.Inc()
	c.Advance(pingEvery)
	c.Heartbeat()
}

// nextSeq under mu; offsets come from c.size under opMu.
func (c *Cluster) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.seq
}

// ReadAll implements catalog.Store: it reads the full journal from
// the current primary. By the primary-superset invariant this is all
// acknowledged history (possibly plus a tail the primary framed
// without quorum, which is safe to surface: it becomes acknowledged
// retroactively once read and re-replicated by later appends, and the
// catalog's own recovery handles its framing).
func (c *Cluster) ReadAll() ([]byte, error) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		view := c.Heartbeat()
		reply, err := c.net.RPC(view.Primary, Catchup{Have: 0, CRC: 0})
		if err != nil {
			c.stall()
			continue
		}
		resp, ok := reply.(CatchupResp)
		if !ok || !resp.OK {
			c.stall()
			continue
		}
		c.mu.Lock()
		c.size = resp.Total
		c.mu.Unlock()
		return resp.Data, nil
	}
	return nil, fmt.Errorf("%w: read after %d attempts", ErrNoQuorum, maxAttempts)
}

// Append implements catalog.Store: one call replicates one (or more)
// CRC-framed catalog records and returns only once a majority of
// nodes, including the view's primary, has durably framed the bytes.
// A view change mid-append is handled by re-checking where the record
// landed: offsets make the retry idempotent, so a record is never
// duplicated and never half-applied.
func (c *Cluster) Append(p []byte) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	_, span := obs.Start(c.ctx, "replica.append")
	defer span.End()

	seq := c.nextSeq()
	c.mu.Lock()
	off := c.size
	c.mu.Unlock()

	for attempt := 0; attempt < maxAttempts; attempt++ {
		view := c.Heartbeat()
		ok, err := c.tryAppend(view, seq, off, p)
		if err != nil {
			return err
		}
		if ok {
			c.mu.Lock()
			c.size = off + int64(len(p))
			c.mu.Unlock()
			c.appends.Inc()
			return nil
		}
		c.quorumFailures.Inc()
		c.stall()
	}
	return fmt.Errorf("%w: append seq %d after %d attempts", ErrNoQuorum, seq, maxAttempts)
}

// tryAppend makes one pass at replicating the record under one view.
// It returns (false, nil) for retryable failures — the caller
// refreshes the view and tries again.
func (c *Cluster) tryAppend(view View, seq uint64, off int64, p []byte) (bool, error) {
	msg := Append{View: view.Num, Seq: seq, Off: off, Frame: p}

	// The primary first: its durable copy is mandatory.
	reply, err := c.net.RPC(view.Primary, msg)
	if err != nil {
		return false, nil // primary unreachable; stall -> view change
	}
	ack, ok := reply.(AppendAck)
	if !ok {
		return false, fmt.Errorf("%w: append reply %T", ErrBadMessage, reply)
	}
	if !ack.OK {
		// A new primary may lag acknowledged history only when every
		// node that held it is down — then there is no quorum to be
		// had and we stall until one returns. Stale view: refresh.
		return false, nil
	}

	if hook := c.TestHookAfterPrimary; hook != nil {
		if err := hook(seq); err != nil {
			return false, err
		}
	}

	count := 1
	for _, b := range view.Backups {
		if c.appendToBackup(view, b, msg) {
			count++
		}
	}
	return count >= c.quorum(), nil
}

// appendToBackup lands the record on one backup, catching the backup
// up first when it lags or carries a divergent unacknowledged tail.
func (c *Cluster) appendToBackup(view View, name string, msg Append) bool {
	for try := 0; try < 2; try++ {
		reply, err := c.net.RPC(name, msg)
		if err != nil {
			return false
		}
		ack, ok := reply.(AppendAck)
		if !ok {
			return false
		}
		if ack.OK {
			return true
		}
		// Lagging or diverged: close the gap from the primary, then
		// retry the append once.
		if err := c.catchUp(view, name); err != nil {
			return false
		}
	}
	return false
}

// catchUp brings node name's journal in line with the view primary's:
// verify the shared prefix by CRC, fetch the suffix (or everything,
// after divergence), and Install it — truncating any unacknowledged
// tail the node carried.
func (c *Cluster) catchUp(view View, name string) error {
	c.catchups.Inc()
	_, span := obs.Start(c.ctx, "replica.catchup")
	defer span.End()
	for try := 0; try < 4; try++ {
		stReply, err := c.net.RPC(name, Status{Prefix: -1})
		if err != nil {
			return err
		}
		st, ok := stReply.(StatusAck)
		if !ok {
			return fmt.Errorf("%w: status reply %T", ErrBadMessage, stReply)
		}
		cuReply, err := c.net.RPC(view.Primary, Catchup{Have: st.Size, CRC: st.CRC})
		if err != nil {
			return err
		}
		cu, ok := cuReply.(CatchupResp)
		if !ok {
			return fmt.Errorf("%w: catchup reply %T", ErrBadMessage, cuReply)
		}
		if !cu.OK {
			// The node's journal is longer than the primary's: its tail
			// past cu.Total is unacknowledged. Verify the primary-sized
			// prefix instead on the next pass.
			pstReply, err := c.net.RPC(name, Status{Prefix: cu.Total})
			if err != nil {
				return err
			}
			pst, ok := pstReply.(StatusAck)
			if !ok {
				return fmt.Errorf("%w: status reply %T", ErrBadMessage, pstReply)
			}
			cuReply, err = c.net.RPC(view.Primary, Catchup{Have: cu.Total, CRC: pst.CRC})
			if err != nil {
				return err
			}
			cu, ok = cuReply.(CatchupResp)
			if !ok || !cu.OK {
				return fmt.Errorf("%w: catchup reply %T", ErrBadMessage, cuReply)
			}
		}
		prStReply, err := c.net.RPC(view.Primary, Status{Prefix: -1})
		if err != nil {
			return err
		}
		prSt, _ := prStReply.(StatusAck)
		inReply, err := c.net.RPC(name, Install{View: view.Num, From: cu.From, Seq: prSt.Seq, Data: cu.Data})
		if err != nil {
			return err
		}
		in, ok := inReply.(InstallAck)
		if !ok {
			return fmt.Errorf("%w: install reply %T", ErrBadMessage, inReply)
		}
		if in.OK && in.Size == cu.Total {
			return nil
		}
	}
	return fmt.Errorf("replica: catch-up of %s did not converge", name)
}

// Truncate implements catalog.Store: a replicated journal truncation
// (the catalog uses it to repair a torn tail found at Open).
func (c *Cluster) Truncate(n int64) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		view := c.Heartbeat()
		msg := Truncate{View: view.Num, N: n}
		reply, err := c.net.RPC(view.Primary, msg)
		if err != nil {
			c.stall()
			continue
		}
		ack, ok := reply.(TruncateAck)
		if !ok || !ack.OK {
			c.stall()
			continue
		}
		count := 1
		for _, b := range view.Backups {
			if reply, err := c.net.RPC(b, msg); err == nil {
				if ack, ok := reply.(TruncateAck); ok && ack.OK {
					count++
				}
			}
		}
		if count >= c.quorum() {
			c.mu.Lock()
			c.size = n
			c.mu.Unlock()
			return nil
		}
		c.stall()
	}
	return fmt.Errorf("%w: truncate after %d attempts", ErrNoQuorum, maxAttempts)
}

// AckedSize returns the acknowledged journal length — the durability
// frontier the zero-loss guarantee is stated over.
func (c *Cluster) AckedSize() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
