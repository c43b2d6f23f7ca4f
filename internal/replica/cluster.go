// Package replica is the primary/backup replication layer for the
// catalog journal — the 6.824 view-service shape run on the virtual
// clock. Simulated nodes each hold a durable copy of the CRC-framed
// journal; a client-side Cluster implements catalog.Store, so a Catalog
// opened over it acknowledges AppendDumpSet / AppendFileIndex / Expire /
// AppendMediaEvent / AppendSessionCheckpoint only after a quorum of
// nodes has durably framed the record. A view service tracks node
// liveness through pings, promotes the most-up-to-date live backup when
// the primary dies, and catch-up installs the primary's journal into
// rejoining nodes, truncating any unacknowledged tail they carried into
// the crash. The nodes live in the Cluster's process and it calls them
// directly: a partitioned or dead node is a call that fails, never a
// mangled one (corruption is the journal CRC layer's problem).
//
// The durability contract mirrors logical recovery systems: an
// operation is durable only once its log record is replicated and
// acknowledged. The chaos suite (internal/chaos/replica.go) proves the
// operational consequence — no acknowledged dump set is ever lost to a
// primary killed or partitioned mid-append or mid-dump.
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
	// opMu serializes whole operations (Append/Truncate/ReadAll and the
	// catch-up of Restart/Rejoin), so concurrent callers are safe, each
	// append gets a distinct offset, and no append lands between a
	// catch-up's read of the primary and its install.
	opMu sync.Mutex
	// mu guards the fast-changing fields below; metric closures take
	// only mu, never opMu.
	mu       sync.Mutex
	size     int64 // acknowledged journal length
	clock    time.Time
	isolated map[string]bool // partitioned members

	cfg   Config
	vs    *viewService
	nodes []*node // in member order
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
	TestHookAfterPrimary func() error
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
	c := &Cluster{cfg: cfg, ctx: ctx, clock: start, isolated: make(map[string]bool)}
	for _, name := range cfg.Members {
		store := cfg.Stores[name]
		if store == nil {
			store = &catalog.MemStore{}
		}
		n, err := openNode(name, store)
		if err != nil {
			return nil, fmt.Errorf("replica: open node %s: %w", name, err)
		}
		c.nodes = append(c.nodes, n)
	}
	c.vs = newViewService(cfg.Members, deadAfter, start)
	if r := cfg.Registry; r != nil {
		c.registerMetrics(r)
	}
	lead := c.nodes[0]
	for _, n := range c.nodes[1:] {
		if n.size() > lead.size() {
			lead = n
		}
	}
	first := View{Num: 1, Primary: lead.name}
	for _, n := range c.nodes {
		if n != lead {
			first.Backups = append(first.Backups, n.name)
		}
	}
	c.vs.view, c.size = first, lead.size()
	truth := lead.journal()
	for _, b := range first.Backups {
		if bytes.Equal(c.Journal(b), truth) {
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
		r.RegisterFunc("replica_lag_bytes", obs.KindGauge, obs.Labels{"node": node.name}, func() float64 {
			c.mu.Lock()
			acked := c.size
			c.mu.Unlock()
			lag := acked - node.size()
			if lag < 0 {
				lag = 0 // an unacknowledged tail is not (negative) lag
			}
			return float64(lag)
		})
	}
}

// quorum is the majority of the fixed member set.
func (c *Cluster) quorum() int { return len(c.cfg.Members)/2 + 1 }

// node returns the member called name, or nil.
func (c *Cluster) node(name string) *node {
	for _, n := range c.nodes {
		if n.name == name {
			return n
		}
	}
	return nil
}

// reach is the one way the cluster gets at a node to act on it: it
// fails for an unknown member, a partitioned one and a dead one.
func (c *Cluster) reach(name string) (*node, error) {
	n := c.node(name)
	if n == nil {
		return nil, fmt.Errorf("replica: no node %q", name)
	}
	c.mu.Lock()
	cut := c.isolated[name]
	c.mu.Unlock()
	if cut {
		return nil, fmt.Errorf("replica: node %s unreachable", name)
	}
	if !n.isAlive() {
		return nil, fmt.Errorf("replica: node %s is down", name)
	}
	return n, nil
}

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
		if _, err := c.reach(n.name); err == nil {
			c.vs.Ping(n.name, n.size(), now)
		}
	}
	return c.vs.Tick(now)
}

// View returns the current view without advancing anything.
func (c *Cluster) View() View { return c.vs.View() }

// ViewChanges returns how many view changes (failovers) have occurred.
func (c *Cluster) ViewChanges() uint64 { return c.vs.Changes() }

// Journal returns a copy of member name's journal bytes, reachable or
// not (inspection for the convergence assertions); nil for an unknown
// member.
func (c *Cluster) Journal(name string) []byte {
	if n := c.node(name); n != nil {
		return n.journal()
	}
	return nil
}

// Kill crashes a node.
func (c *Cluster) Kill(name string) {
	if n := c.node(name); n != nil {
		n.kill()
	}
}

// Restart revives a crashed node from its durable store and brings it
// back up to date from the current primary.
func (c *Cluster) Restart(name string) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	n := c.node(name)
	if n == nil {
		return fmt.Errorf("replica: no node %q", name)
	}
	if err := n.restart(); err != nil {
		return err
	}
	c.rejoined(name)
	return nil
}

// Isolate partitions a node: calls to it fail until Rejoin. The node
// stays alive — unlike Kill it keeps its in-memory state, which is
// exactly the difference between a network partition and a crash.
func (c *Cluster) Isolate(name string) {
	c.mu.Lock()
	c.isolated[name] = true
	c.mu.Unlock()
}

// Rejoin heals a node's partition and catches it up.
func (c *Cluster) Rejoin(name string) {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	c.mu.Lock()
	delete(c.isolated, name)
	c.mu.Unlock()
	c.rejoined(name)
}

// rejoined catches a node that is back up from the current primary
// (best effort — if the primary is unreachable the node rejoins lagging
// and catches up on the next append that touches it). Callers hold
// opMu.
func (c *Cluster) rejoined(name string) {
	if view := c.Heartbeat(); view.Primary != name {
		_ = c.catchUp(view, name)
	}
}

func (c *Cluster) stall() {
	c.stalls.Inc()
	c.Advance(pingEvery)
	c.Heartbeat()
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
		p, err := c.reach(c.Heartbeat().Primary)
		if err != nil {
			c.stall()
			continue
		}
		data := p.journal()
		c.mu.Lock()
		c.size = int64(len(data))
		c.mu.Unlock()
		return data, nil
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

	c.mu.Lock()
	off := c.size
	c.mu.Unlock()

	for attempt := 0; attempt < maxAttempts; attempt++ {
		ok, err := c.tryAppend(c.Heartbeat(), off, p)
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
	return fmt.Errorf("%w: append at offset %d after %d attempts", ErrNoQuorum, off, maxAttempts)
}

// tryAppend makes one pass at replicating the record under one view.
// It returns (false, nil) for retryable failures — the caller
// refreshes the view and tries again.
func (c *Cluster) tryAppend(view View, off int64, p []byte) (bool, error) {
	// The primary first: its durable copy is mandatory. Unreachable, it
	// stalls toward a view change. Refusing, the view is stale — or a new
	// primary lags acknowledged history, which happens only when every
	// node that held it is down: then there is no quorum to be had and
	// we stall until one returns.
	prim, err := c.reach(view.Primary)
	if err != nil || !prim.append(view.Num, off, p) {
		return false, nil
	}

	if hook := c.TestHookAfterPrimary; hook != nil {
		if err := hook(); err != nil {
			return false, err
		}
	}

	count := 1
	for _, b := range view.Backups {
		if c.appendToBackup(view, b, off, p) {
			count++
		}
	}
	return count >= c.quorum(), nil
}

// appendToBackup lands the record on one backup, catching the backup
// up first when it lags or carries a divergent unacknowledged tail.
func (c *Cluster) appendToBackup(view View, name string, off int64, p []byte) bool {
	for try := 0; try < 2; try++ {
		n, err := c.reach(name)
		if err != nil {
			return false
		}
		if n.append(view.Num, off, p) {
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
// one comparison (the primary's suffix past their common prefix, or its
// whole journal after divergence) and one install, which truncates any
// unacknowledged tail the node carried.
func (c *Cluster) catchUp(view View, name string) error {
	c.catchups.Inc()
	_, span := obs.Start(c.ctx, "replica.catchup")
	defer span.End()
	n, err := c.reach(name)
	if err != nil {
		return err
	}
	p, err := c.reach(view.Primary)
	if err != nil {
		return err
	}
	from, data := p.suffixFor(n.journal())
	if !n.install(view.Num, from, data) {
		return fmt.Errorf("replica: %s refused the catch-up install", name)
	}
	return nil
}

// Truncate implements catalog.Store: a replicated journal truncation
// (the catalog uses it to repair a torn tail found at Open).
func (c *Cluster) Truncate(size int64) error {
	c.opMu.Lock()
	defer c.opMu.Unlock()
	for attempt := 0; attempt < maxAttempts; attempt++ {
		view := c.Heartbeat()
		prim, err := c.reach(view.Primary)
		if err != nil || !prim.truncate(view.Num, size) {
			c.stall()
			continue
		}
		count := 1
		for _, b := range view.Backups {
			if n, err := c.reach(b); err == nil && n.truncate(view.Num, size) {
				count++
			}
		}
		if count >= c.quorum() {
			c.mu.Lock()
			c.size = size
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
