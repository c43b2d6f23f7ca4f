package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/ndmp"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/transport"
)

// fleetWL is fleet-push: many clients pushing record streams through
// ndmp sessions into one host gated by a drive pool. Neither dump
// engine runs; the streams are generated records.
type fleetWL struct{}

// Fleet parameters. The virtual-pass rates are the ones BENCH_serve
// ships: 4 MiB/s per drive slot, no per-tenant limit, the default
// 12 MiB/s / 200 µs link per client, 50 ms heartbeats.
const (
	fleetClients    = 100
	fleetTenants    = 4
	fleetDrives     = 4
	fleetRecordSize = 8 << 10
	fleetRecords    = 512 // per client
	fleetDriveRate  = 4 << 20
)

// client is one generated input stream.
type client struct {
	id      int
	tenant  string
	records [][]byte
	bytes   int64
	crc     uint32
}

// fleet is the generated input: every client's whole record stream,
// with the byte count and CRC-32 the host must reproduce.
type fleet struct {
	clients []*client
	bytes   int64
}

// splitmix fills p with a fast deterministic stream; math/rand.Read
// would take longer than the push it feeds.
func splitmix(state *uint64, p []byte) {
	for i := 0; i+8 <= len(p); i += 8 {
		*state += 0x9e3779b97f4a7c15
		z := *state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		p[i], p[i+1], p[i+2], p[i+3] = byte(z), byte(z>>8), byte(z>>16), byte(z>>24)
		p[i+4], p[i+5], p[i+6], p[i+7] = byte(z>>32), byte(z>>40), byte(z>>48), byte(z>>56)
	}
}

// buildFleet generates the inputs from the seed: every client's bytes
// are the seed's, their number is the workload's. Its wall time is one
// sample of setup_s.
func buildFleet(seed int64, tiny bool) *fleet {
	n, count := fleetClients, fleetRecords
	if tiny {
		n, count = 12, 24
	}
	f := &fleet{}
	state := uint64(seed)
	for i := 0; i < n; i++ {
		c := &client{id: i, tenant: fmt.Sprintf("tenant%02d", i%fleetTenants)}
		arena := make([]byte, count*fleetRecordSize)
		splitmix(&state, arena)
		c.crc = crc32.ChecksumIEEE(arena)
		for r := 0; r < count; r++ {
			c.records = append(c.records, arena[r*fleetRecordSize:(r+1)*fleetRecordSize])
		}
		c.bytes = int64(len(arena))
		f.bytes += c.bytes
		f.clients = append(f.clients, c)
	}
	return f
}

// landing is the host-side sink of one session: it keeps what the
// verification needs, the byte count and CRC-32 of what arrived.
type landing struct {
	bytes int64
	crc   uint32
}

func (l *landing) WriteRecord(rec []byte) error {
	l.bytes += int64(len(rec))
	l.crc = crc32.Update(l.crc, crc32.IEEETable, rec)
	return nil
}

func (l *landing) NextVolume() error { return nil }

// fleetHost is one tape host with its drive pool and the landings its
// sink factory handed out, indexed by session id − 1.
type fleetHost struct {
	host     *ndmp.Host
	pool     *sched.DrivePool
	mu       sync.Mutex
	landings []*landing
}

func newFleetHost(f *fleet, cfg sched.DrivePoolConfig, tr *tracer) *fleetHost {
	fh := &fleetHost{landings: make([]*landing, len(f.clients))}
	cfg.Drives = fleetDrives
	cfg.MaxQueue = len(f.clients) // every over-capacity client may wait
	fh.pool = sched.NewDrivePool(cfg)
	fh.host = ndmp.NewHost(func(h ndmp.Hello) (ndmp.Sink, error) {
		l := &landing{}
		fh.mu.Lock()
		fh.landings[h.Session-1] = l
		fh.mu.Unlock()
		return tr.sink(l, "ndmp.sink"), nil
	})
	fh.host.Gate = fh.pool
	return fh
}

// check compares every client's landing with what the client sent.
func (fh *fleetHost) check(r *run, f *fleet, what string) {
	for _, c := range f.clients {
		c := c
		_ = r.verify(fmt.Sprintf("%s client %d", what, c.id), func() ([]string, error) {
			l := fh.landings[c.id]
			switch {
			case l == nil:
				return []string{"no stream landed"}, nil
			case l.bytes != c.bytes:
				return []string{fmt.Sprintf("host has %d bytes, client sent %d", l.bytes, c.bytes)}, nil
			case l.crc != c.crc:
				return []string{fmt.Sprintf("host CRC %08x, client CRC %08x", l.crc, c.crc)}, nil
			}
			return nil, nil
		})
	}
}

// push is one client session: dial, write every record, close. It
// returns how long the dial took (the admission wait).
func push(c *client, dial ndmp.Dialer, cfg ndmp.Config, now func() time.Duration) (admit time.Duration, sess ndmp.SessionStats, err error) {
	cfg.Kind, cfg.Session, cfg.Tenant, cfg.FSID = ndmp.KindLogical, uint64(c.id+1), c.tenant, fmt.Sprintf("fs%03d", c.id)
	t0 := now()
	s, err := ndmp.Dial(dial, cfg)
	if err != nil {
		return 0, ndmp.SessionStats{}, err
	}
	admit = now() - t0
	for _, rec := range c.records {
		if err := s.WriteRecord(rec); err != nil {
			return admit, s.Stats(), err
		}
	}
	err = s.Close()
	return admit, s.Stats(), err
}

// virtualResult is what the virtual pass measured.
type virtualResult struct {
	makespan time.Duration
	turns    []float64 // per client: dial → acknowledged close, seconds
	admits   []float64 // per client: dial start → dial return, seconds
	jain     float64   // over per-tenant acknowledged bytes when the first tenant finished
	sess     ndmp.SessionStats
	hostSt   ndmp.HostStats
	poolSt   sched.DrivePoolStats
	wire     *tapCounts // frames the clients sent, bytes both ways
	hostMS   float64    // wall milliseconds the simulation took
}

// virtualPass pushes the whole fleet concurrently on one sim.Env over
// simulated links.
func (w *fleetWL) virtualPass(r *run, f *fleet) (*virtualResult, error) {
	env := sim.NewEnv()
	fh := newFleetHost(f, sched.DrivePoolConfig{
		Now: env.Now, DriveRate: fleetDriveRate,
		// Waiters poll at the client heartbeat interval; expire only
		// the ones that have genuinely stopped.
		StaleAfter: 5 * time.Second,
	}, nil)
	defer fh.host.Close()
	taps := newTracer(false) // counting only: a wrapper must not touch the virtual clock
	res := &virtualResult{wire: taps.counts("transport.client"), turns: make([]float64, len(f.clients)), admits: make([]float64, len(f.clients))}
	perTenant := len(f.clients) / fleetTenants
	done := map[string]int{}
	errs := make([]error, len(f.clients))
	for _, c := range f.clients {
		c := c
		l := transport.NewLink(transport.DefaultParams())
		// Data frames carry only sequence numbers, so each link gets
		// its own registry binding to route them.
		l.B().Attach(fh.host.NewConn().HandleFrame)
		env.Spawn(fmt.Sprintf("client%03d", c.id), func(p *sim.Proc) {
			l.A().Bind(p)
			start := p.Now()
			conn := taps.conn(l.A(), "client")
			admit, st, err := push(c, func() (transport.Conn, error) { return conn, nil }, ndmp.Config{
				Proc: p, HeartbeatEvery: 50 * time.Millisecond,
				// Covers the worst queue wait: the backlog ahead of a
				// client drains at drive rate.
				DeadAfter: 10 * time.Minute,
			}, p.Now)
			errs[c.id] = err
			res.turns[c.id] = (p.Now() - start).Seconds()
			res.admits[c.id] = admit.Seconds()
			addSessionStats(&res.sess, st)
			if p.Now() > res.makespan {
				res.makespan = p.Now()
			}
			done[c.tenant]++
			if done[c.tenant] == perTenant && res.jain == 0 {
				// The instant the first tenant finishes. End-of-run
				// totals are what every tenant sent, whatever the
				// scheduler did; shares at this instant are not.
				var shares []float64
				for t := 0; t < fleetTenants; t++ {
					shares = append(shares, float64(fh.host.TenantBytes(fmt.Sprintf("tenant%02d", t))))
				}
				res.jain = jain(shares)
			}
		})
	}
	t0 := time.Now()
	env.Run()
	res.hostMS = float64(time.Since(t0)) / float64(time.Millisecond)
	for _, c := range f.clients {
		r.op(fmt.Sprintf("virtual session %d", c.id), errs[c.id])
	}
	fh.check(r, f, "virtual")
	res.hostSt, res.poolSt = fh.host.Stats(), fh.pool.Stats()
	return res, errors.Join(errs...)
}

func addSessionStats(sum *ndmp.SessionStats, s ndmp.SessionStats) {
	sum.Records += s.Records
	sum.Replayed += s.Replayed
	sum.Reconnects += s.Reconnects
	sum.HeartbeatsSent += s.HeartbeatsSent
	sum.Timeouts += s.Timeouts
	sum.BadFrames += s.BadFrames
	sum.FramesSent += s.FramesSent
	sum.WindowStalls += s.WindowStalls
}

// hostPass pushes clients over real loopback TCP into ndmp.Serve, at
// most parallel of them at a time, and verifies every landing. The
// listener, host and pool are fresh per pass and outside the interval.
func (w *fleetWL) hostPass(r *run, clients []*client, f *fleet, parallel int, iv interval, tr *tracer) error {
	fh := newFleetHost(f, sched.DrivePoolConfig{}, tr) // wall clock, no rate limits
	defer fh.host.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var serving sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed: the pass is over
			}
			serving.Add(1)
			go func() {
				defer serving.Done()
				defer c.Close()
				_ = serveConn(tr.conn(transport.NewNetConn(c), "server"), fh.host, tr)
			}()
		}
	}()
	addr := ln.Addr().String()
	epoch := time.Now()
	now := func() time.Duration { return time.Since(epoch) }
	errs := make([]error, len(f.clients))
	next := make(chan *client)
	var workers sync.WaitGroup
	iv.start()
	for i := 0; i < parallel; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for c := range next {
				_, _, errs[c.id] = push(c, func() (transport.Conn, error) {
					nc, err := net.Dial("tcp", addr)
					if err != nil {
						return nil, err
					}
					return tr.conn(transport.NewNetConn(nc), "client"), nil
				}, ndmp.Config{DeadAfter: 30 * time.Second}, now)
			}
		}()
	}
	for _, c := range clients {
		next <- c
	}
	close(next)
	workers.Wait()
	iv.stop()
	ln.Close()
	serving.Wait()
	for _, c := range clients {
		r.op(fmt.Sprintf("host session %d", c.id), errs[c.id])
	}
	sub := &fleet{clients: clients}
	fh.check(r, sub, "host")
	return errors.Join(errs...)
}

// serveConn is ndmp.Serve, or on a traced pass the same loop spelled
// out so the time inside HandleFrame can be recorded.
func serveConn(conn transport.Conn, host *ndmp.Host, tr *tracer) error {
	const idle = 30 * time.Second
	if tr == nil {
		return ndmp.Serve(conn, host, idle)
	}
	hc := host.NewConn()
	for {
		raw, err := conn.Recv(idle)
		if err != nil {
			return err
		}
		closing := false
		if f, derr := transport.Decode(raw); derr == nil {
			closing = f.Type == ndmp.MsgClose
		}
		idx := tr.begin(depthEngine, "ndmp.handle", "HandleFrame")
		resps := hc.HandleFrame(raw)
		tr.finish(depthEngine, idx)
		for _, resp := range resps {
			if err := conn.Send(resp); err != nil {
				return err
			}
		}
		if closing {
			return nil
		}
	}
}

// endToEnd is the gated protocol for fleet-push.
func (w *fleetWL) endToEnd(r *run) error {
	var setups []float64
	var f *fleet
	for len(setups) < setupSamples {
		secs, _ := r.k.setupSeconds(func() (time.Duration, error) {
			t0 := time.Now()
			f = buildFleet(r.seed, r.tiny)
			return time.Since(t0), nil
		})
		setups = append(setups, secs)
	}
	r.set("setup_s", median(setups))
	r.note("setup_s", fmt.Sprintf("median of %d set-ups, scaled to a %d MiB/s kernel", len(setups), nominalKernel))
	if err := w.virtualMetrics(r, f); err != nil {
		return err
	}

	dps, err := w.hostPhase(r, f)
	if err != nil {
		return err
	}
	r.setHostMetrics(dps, nil)
	r.placeholder("restore_virt_gbph", "restore_allocs_per_mib")
	return nil
}

// hostPhase is the host-pass protocol over the whole fleet: no more
// clients doing I/O at once than there are CPUs.
func (w *fleetWL) hostPhase(r *run, f *fleet) (*phaseStats, error) {
	return hostPhase(r.k, 2*r.phaseBudget(), func(m *meter) (int64, error) {
		return f.bytes, w.hostPass(r, f.clients, f, runtime.NumCPU(), m, nil)
	}, nil)
}

// virtualMetrics is the virtual pass of the gated run.
func (w *fleetWL) virtualMetrics(r *run, f *fleet) error {
	v, err := w.virtualPass(r, f)
	if err != nil {
		return err
	}
	r.set("dump_virt_gbph", gbph(f.bytes, v.makespan))
	// A job's stretch: its turnaround (dial to acknowledged close) over
	// what its own bytes take on a free drive slot.
	stretch := make([]float64, len(f.clients))
	for i, c := range f.clients {
		stretch[i] = v.turns[i] / (float64(c.bytes) / fleetDriveRate)
	}
	r.set("job_p50_stretch", percentile(stretch, 0.5))
	r.set("job_p90_stretch", percentile(stretch, 0.9))
	r.note("job_p50_stretch", fmt.Sprintf("n=%d client sessions, median turnaround %.3f virtual s", len(stretch), percentile(v.turns, 0.5)))
	r.set("fairness_jain", v.jain)
	// The host lands exactly the bytes it acknowledged (checked per
	// client), so there is no stored-to-user ratio to gate.
	r.placeholder("stored_per_user_byte")
	return nil
}

// layers is the traced protocol for fleet-push: the virtual pass again
// with the counters read, then a single-stream host pass (clients one
// after the other, so a client and its server goroutine are the only
// two running) with timing wrappers on both ends of the wire, on the
// host's sinks and around HandleFrame.
func (w *fleetWL) layers(r *run) error {
	l := newLayerSet(r)
	f := buildFleet(r.seed, r.tiny)
	if err := w.virtualLayers(r, l, f); err != nil {
		return err
	}
	return w.hostLayers(r, l, f)
}

// virtualLayers fills the series that come off the virtual pass.
func (w *fleetWL) virtualLayers(r *run, l layerSet, f *fleet) error {
	v, err := w.virtualPass(r, f)
	if err != nil {
		return err
	}
	records := float64(v.sess.Records)
	l.set("sim.host_ms_per_virt_s", "dump", ratio(v.hostMS, v.makespan.Seconds()))
	l.set("transport.frames_sent", "dump", float64(v.wire.records.Load()))
	l.set("transport.wire_bytes_per_user_byte", "dump", ratio(float64(v.wire.bytes.Load()), float64(f.bytes)))
	l.set("ndmp.window_stalls", "dump", float64(v.sess.WindowStalls))
	l.set("ndmp.replayed", "dump", float64(v.sess.Replayed))
	l.set("ndmp.throttled_acks", "dump", float64(v.hostSt.Throttled))
	l.set("ndmp.heartbeats", "dump", float64(v.sess.HeartbeatsSent))
	l.set("ndmp.frames_per_record", "dump", ratio(float64(v.wire.records.Load()), records))
	l.set("sched.granted", "dump", float64(v.poolSt.Granted))
	l.set("sched.wait_polls", "dump", float64(v.poolSt.Waited))
	l.set("sched.rejected", "dump", float64(v.poolSt.Rejected))
	l.set("sched.expired", "dump", float64(v.poolSt.Expired))
	l.set("sched.throttled", "dump", float64(v.poolSt.Throttled))
	l.set("sched.admit_wait_p90_virt_s", "dump", percentile(v.admits, 0.9))
	return nil
}

// hostLayers fills the series that come off the host passes.
func (w *fleetWL) hostLayers(r *run, l layerSet, f *fleet) error {
	// Single-stream host pass over a tenth of the fleet: every
	// per-frame and per-record figure is a ratio, so the subset is
	// enough and the trace stays loadable.
	sub := f.clients[:(len(f.clients)+9)/10]
	var subRecords int
	for _, c := range sub {
		subRecords += len(c.records)
	}
	tr := newTracer(true)
	_, end := tr.phase(r.ctx, "bench.dump")
	err := w.hostPass(r, sub, f, 1, &meter{}, tr)
	end()
	if err != nil {
		return err
	}
	lt := tr.selfTimes(0)
	perCall := func(layer string) float64 {
		return ratio(float64(lt.total[layer].Nanoseconds()), float64(lt.calls[layer]))
	}
	l.set("transport.host_send_ns_per_frame", "dump", ratio(
		float64((lt.total["transport.client"]+lt.total["transport.server"]).Nanoseconds()),
		float64(lt.calls["transport.client"]+lt.calls["transport.server"])))
	l.set("transport.host_recv_ns_per_frame", "dump", perCall("transport.client.recv"))
	l.set("ndmp.host_self_ns_per_record", "dump", ratio(
		float64((lt.total["ndmp.handle"]-lt.total["ndmp.sink"]).Nanoseconds()), float64(subRecords)))

	// Tracing overhead from the same single-stream pass with recording
	// on and off by turns, then the process numbers from the gated
	// run's host protocol.
	var on, off []float64
	for i := 0; i < 6; i++ { // a pass is ≈ 0.15 s: six pairs to find each side's fastest
		for _, timing := range []bool{false, true} {
			tr.timing.Store(timing)
			runtime.GC()
			var m meter
			if err := w.hostPass(r, sub, f, 1, &m, tr); err != nil {
				return err
			}
			if timing {
				on = append(on, m.timed.Seconds())
			} else {
				off = append(off, m.timed.Seconds())
			}
		}
	}
	r.set("obs.trace_overhead_rel", overheadOf(on, off))
	r.set("obs.spans", float64(tr.count()))
	dps, err := w.hostPhase(r, f)
	if err != nil {
		return err
	}
	processLayers(r, dps, nil)
	if r.traceOut != "" {
		return tr.writeChrome(r.traceOut)
	}
	return nil
}
