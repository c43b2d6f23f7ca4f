// Remote backup: backupctl serve turns a host into a stream
// receiver, backupctl push drives a dump across TCP into it. Both
// ends speak the ndmp session protocol, so a push survives the same
// link faults the chaos suite injects: lost or corrupted frames are
// replayed from the send window after a redial, and a dead receiver
// surfaces as a typed error that restarts the dump from its last
// acknowledged checkpoint on a fresh stream.
//
//	backupctl serve -listen :9000 -o /backups/home.dump -once
//	backupctl -vol home.img push -to filer:9000
//	backupctl -vol home.img push -to filer:9000 -kind image
//
// Each stream of a session lands in its own file: the first at the
// -o path, resumed streams (after a mid-push failure) beside it with
// an .s<N> suffix, and any of those a file is already at — an earlier
// or concurrent session's — with a further .x<session> suffix. Restore
// them in order — all but the last with salvage semantics — exactly
// like replacement tapes.
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"regexp"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/logical"
	"repro/internal/ndmp"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/sched"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wafl"
)

// streamPath names the file for one stream of a session: the base
// path for stream 0, base.s<N> for checkpoint-resumed streams.
func streamPath(base string, stream int) string {
	if stream == 0 {
		return base
	}
	return fmt.Sprintf("%s.s%d", base, stream)
}

// tenantPath namespaces a server-side path by tenant: the default
// tenant keeps the plain path (and its catalog), every other tenant
// gets its own <path>@<tenant> family. serve admits only tenant names
// tenantName matches, so no wire string aliases another namespace's
// files (tenant "catalog" is not <path>.catalog) or names a directory.
func tenantPath(path, tenant string) string {
	if tenant == "" || path == "" {
		return path
	}
	return path + "@" + tenant
}

var tenantName = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

func serveCommand(rest []string) error {
	set := newFlagSet("serve")
	listen := set.String("listen", ":9000", "TCP address to listen on")
	out := set.String("o", "", "output stream file (resumed streams get .s<N> suffixes, a path already taken .x<session>)")
	once := set.Bool("once", false, "exit after one session closes cleanly")
	standby := set.String("standby", "", "mirror the serve-side catalog to this standby journal file (recorded beside -o for every later command)")
	idle := set.Duration("idle", 30*time.Second, "drop a connection silent for this long")
	trace := set.String("trace", "", "write a Chrome trace of served connections to this file")
	drives := set.Int("drives", 4, "tape drives in the pool: concurrent streams admitted")
	queue := set.Int("queue", 64, "bounded admission wait queue (-1 = reject instead of queueing)")
	rate := set.Int64("rate", 0, "per-tenant byte-rate limit, bytes/sec (0 = unlimited)")
	driveRate := set.Int64("drive-rate", 0, "per-drive byte-rate cap, bytes/sec (0 = unlimited)")
	if err := set.Parse(rest); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("serve: -o required")
	}
	ctx, flush, err := traceToFile(context.Background(), *trace)
	if err != nil {
		return err
	}
	defer flush()
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()
	pool := sched.NewDrivePool(sched.DrivePoolConfig{
		Drives: *drives, MaxQueue: *queue,
		DefaultRate: *rate, DriveRate: *driveRate,
	})
	fmt.Printf("serving on %s, streams to %s (%d drives)\n", l.Addr(), *out, *drives)
	return serveOn(l, *out, *standby, *once, *idle, obs.TracerFrom(ctx), pool)
}

// serveOn accepts connections concurrently — one goroutine per
// connection, all feeding one shared session registry — so N clients
// push at once, multiplexed onto the drive pool by gate. Stream files
// land under the tenant-namespaced base and are only ever created, never
// reopened: a session takes the plain path if no file is there yet and
// otherwise one with an .x<session> disambiguator, so no session writes
// over a stream another session landed, whether that one is still live
// or already names a cataloged set. A session's streams are cataloged
// if and only if that session closes cleanly (the OnSessionClose hook),
// so a connection that drops mid-session can never smuggle its aborted
// streams into the catalog on the back of another client's clean close.
// A standby is recorded beside a base before its first stream lands,
// and one its record conflicts with fails before the first accept (or a
// tenant's Hello). Returns after the first clean session close when
// once is set, otherwise serves until l is closed.
func serveOn(l net.Listener, base, standby string, once bool, idle time.Duration, tr *obs.Tracer, gate ndmp.Gate) error {
	if err := bindStandby(base, standby); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	traceCtx := obs.WithTracer(context.Background(), tr)
	var catMu sync.Mutex // serializes per-tenant catalog appends; the host serializes its factory calls
	host := ndmp.NewHost(func(h ndmp.Hello) (ndmp.Sink, error) {
		if h.Tenant != "" && !tenantName.MatchString(h.Tenant) {
			return nil, fmt.Errorf("serve: tenant %q is not 1-64 of [A-Za-z0-9_-]", h.Tenant)
		}
		tbase := tenantPath(base, h.Tenant)
		if err := bindStandby(tbase, tenantPath(standby, h.Tenant)); err != nil {
			return nil, err
		}
		path := streamPath(tbase, h.Stream)
		sink, err := createStream(path, os.O_EXCL)
		if errors.Is(err, os.ErrExist) {
			// Another session made it — live, or closed and cataloged
			// (by this serve or an earlier one): disambiguate.
			path = fmt.Sprintf("%s.x%x", path, h.Session)
			sink, err = createStream(path, os.O_EXCL)
		}
		if err != nil {
			return nil, err
		}
		fmt.Printf("receiving session %d stream %d (tenant %q fsid %q level %d) -> %s\n",
			h.Session, h.Stream, h.Tenant, h.FSID, h.Level, path)
		return sink, nil
	})
	host.Gate = gate
	defer host.Close()
	// Every cleanly closed session reports its catalog result here;
	// the accept loop consumes it (and returns in -once mode).
	closed := make(chan error, 64)
	host.OnSessionClose = func(session uint64, ends []ndmp.StreamEnd) {
		tenant, bytes := "", int64(0)
		for _, e := range ends {
			tenant = e.Hello.Tenant
			bytes += e.Bytes
		}
		fmt.Printf("session %d closed: %d stream(s), %d bytes (tenant %q)\n",
			session, len(ends), bytes, tenant)
		// The session closed cleanly, so every landed stream is a
		// completed dump: record them in the tenant's own catalog.
		catMu.Lock()
		err := recordReceived(traceCtx, tenantPath(base, tenant), ends)
		catMu.Unlock()
		if err != nil {
			err = fmt.Errorf("serve: recording session %d in catalog: %w", session, err)
		}
		select {
		case closed <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	done := make(chan struct{})
	defer close(done)
	conns := make(chan net.Conn)
	acceptErr := make(chan error, 1)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				select {
				case acceptErr <- err:
				case <-done:
				}
				return
			}
			select {
			case conns <- c:
			case <-done:
				c.Close()
				return
			}
		}
	}()
	for {
		select {
		case err := <-closed:
			if err != nil {
				return err
			}
			if once {
				return nil
			}
		case err := <-acceptErr:
			return err
		case conn := <-conns:
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				nc := transport.NewNetConn(conn)
				go func() { // unblock the read when serveOn returns
					<-done
					nc.Close()
				}()
				_, span := obs.Start(traceCtx, "serve.conn")
				span.SetAttr("peer", conn.RemoteAddr().String())
				hc := host.NewConn()
				err := ndmp.ServeConn(nc, hc, idle)
				if h, ok := hc.Bound(); ok {
					span.SetAttr("tenant", h.Tenant)
					span.SetAttr("session", h.Session)
				}
				span.End()
				nc.Close()
				if err != nil {
					// The client redials recoverable faults; keep listening.
					fmt.Fprintf(os.Stderr, "backupctl: serve: connection dropped: %v\n", err)
				}
			}(conn)
		}
	}
}

func pushCommand(ctx context.Context, fs *wafl.FS, vol string, rest []string) error {
	set := newFlagSet("push")
	to := set.String("to", "", "receiver address (host:port)")
	kind := set.String("kind", "logical", "stream kind: logical or image")
	level := set.Int("level", 0, "incremental level 0-9 (logical)")
	snap := set.String("snap", "", "snapshot to dump (image; created if missing)")
	ckpt := set.Int("ckpt", 0, "checkpoint interval in files (logical) or blocks (image); 0 = default")
	window := set.Int("window", 0, "session send window in records (0 = protocol default)")
	session := set.Uint64("session", 0, "session id (0 = pick at random)")
	tenant := set.String("tenant", "", "tenant namespace on the receiver (\"\" = default tenant)")
	maxResumes := set.Int("max-resumes", 4, "give up after this many checkpoint resumes")
	dead := set.Duration("dead", 0, "declare the receiver dead after this much silence (0 = protocol default)")
	trace := set.String("trace", "", "write a Chrome trace of the push to this file")
	if err := set.Parse(rest); err != nil {
		return err
	}
	if *to == "" {
		return fmt.Errorf("push: -to required")
	}
	for *session == 0 {
		// Clock-derived ids collide when two pushes start in the same
		// nanosecond tick (coarse clocks make that real) and, worse, a
		// collision silently rebinds the receiver's stream state.
		// Random ids (the generator is seeded from the OS per process)
		// make collisions 2^-64-unlikely; redraw the reserved id 0,
		// which the protocol uses for "no session".
		*session = rand.Uint64()
	}
	ctx, flush, err := traceToFile(ctx, *trace)
	if err != nil {
		return err
	}
	defer flush()

	var job *engine.Dump
	release := func() {}
	var dates *logical.DumpDates // logical only: the history a clean push records itself in
	pushLevel := int32(*level)
	switch *kind {
	case "logical":
		if *ckpt <= 0 {
			*ckpt = 64 // files between resumable checkpoints
		}
		dates, _ = loadDates(vol)
		job, release, err = logicalJob(ctx, fs, "backupctl.push", logical.DumpOptions{
			Level: *level, Dates: dates, FSID: vol, CheckpointEvery: *ckpt,
		})
	case "image":
		pushLevel = -1
		if *ckpt <= 0 {
			*ckpt = 256 // blocks between resumable checkpoints
		}
		job, _, err = imageJob(ctx, fs, *snap, "backupctl.push", physical.DumpOptions{CheckpointEvery: *ckpt})
	default:
		return fmt.Errorf("push: unknown -kind %q", *kind)
	}
	if err != nil {
		return err
	}
	defer release()

	dial := func() (transport.Conn, error) {
		c, err := net.Dial("tcp", *to)
		if err != nil {
			return nil, err
		}
		return transport.NewNetConn(c), nil
	}

	// The session absorbs recoverable link faults internally; only a
	// dead peer or an exhausted redial budget escapes, and then the dump
	// continues on a fresh stream from its last acknowledged checkpoint.
	var acked uint64
	reconnects, replayed := 0, 0
	resumes, err := engine.Resume(ctx, job, *maxResumes, func(attempt int) (stream.Sink, func(error) error, error) {
		sess, err := ndmp.Dial(dial, ndmp.Config{
			Kind: byte(job.Engine()), Session: *session, Stream: attempt,
			Window: *window, DeadAfter: *dead, Ctx: ctx,
			FSID: vol, Level: pushLevel, Tenant: *tenant,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("dial stream %d: %w", attempt, err)
		}
		return sess, func(err error) error {
			if err == nil {
				err = sess.Close()
			}
			st := sess.Stats()
			reconnects += st.Reconnects
			replayed += st.Replayed
			acked = sess.Acked()
			if ndmp.StreamLost(err) && attempt < *maxResumes {
				fmt.Fprintf(os.Stderr, "backupctl: push: stream %d lost (%v); resuming from its last acknowledged checkpoint on stream %d\n",
					attempt, err, attempt+1)
			}
			return err
		}, nil
	}, ndmp.StreamLost)
	if err != nil {
		return fmt.Errorf("push: %w", err)
	}
	if dates != nil {
		if err := saveDates(vol, dates); err != nil {
			return err
		}
	}
	fmt.Printf("pushed %s\n", job.Summary())
	fmt.Printf("session %d: %d stream(s), %d acked records, %d reconnects, %d replayed\n",
		*session, resumes+1, acked, reconnects, replayed)
	return nil
}
