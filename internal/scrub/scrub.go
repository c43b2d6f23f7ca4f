// Package scrub is the end-to-end integrity subsystem: a media
// scrubber that re-reads every catalogued dump set and verifies it
// before a restore needs it, and a catalog↔media fsck cross-checking
// the two sources of truth. Damage has one verdict: the set is marked
// Damaged in the catalog and its volumes are quarantined, so the
// restore planner routes around them and nothing recycles the
// evidence. Nothing is rewritten in place — the scrubber holds no copy
// of a stream to rewrite it from.
//
// The paper's opening horror story is tapes that sat unread for a
// year and turned out rotten at restore time. The scrubber closes
// that window: latent faults (injectable via tape.FaultConfig and
// Cartridge.InjectLatentFault) are found on the schedule's clock, not
// the disaster's.
package scrub

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/media"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// FindingKind classifies one integrity finding.
type FindingKind int

const (
	// MediaFault is an unreadable record: the drive's ECC gave up on a
	// spot of tape (a latched persistent read error).
	MediaFault FindingKind = iota + 1
	// StreamCorrupt is a stream that fails its own format checks — CRC
	// framing, header checksums, resynced units, torn end — or whose
	// read gives up partway.
	StreamCorrupt
	// ByteCountMismatch is a stream that terminated cleanly but carried
	// fewer bytes than the catalog recorded for the set.
	ByteCountMismatch
	// OrphanSet is a live catalog set whose media the pool cannot
	// produce: unknown label, unbound cartridge, or scratch/blank media.
	OrphanSet
	// MissingBase is a live incremental whose base set is gone from the
	// catalog or expired — retention or operator error broke the chain.
	MissingBase
	// IndexPastExtent is a seek-index entry (media start position or
	// file-index unit) pointing past the recorded extent.
	IndexPastExtent
	// PoolStateMismatch is a pool label whose lifecycle state disagrees
	// with what the catalog's media events imply the media holds.
	PoolStateMismatch
)

func (k FindingKind) String() string {
	switch k {
	case MediaFault:
		return "media-fault"
	case StreamCorrupt:
		return "stream-corrupt"
	case ByteCountMismatch:
		return "byte-count-mismatch"
	case OrphanSet:
		return "orphan-set"
	case MissingBase:
		return "missing-base"
	case IndexPastExtent:
		return "index-past-extent"
	case PoolStateMismatch:
		return "pool-state-mismatch"
	}
	return fmt.Sprintf("finding(%d)", int(k))
}

// Finding is one typed integrity problem.
type Finding struct {
	Kind   FindingKind
	SetID  uint64 // 0 when the finding is not about one set
	Volume string // "" when not media-located
	Record int    // raw media record index; -1 when unknown
	Detail string
}

func (f Finding) String() string {
	s := f.Kind.String()
	if f.SetID != 0 {
		s += fmt.Sprintf(" set %d", f.SetID)
	}
	if f.Volume != "" {
		s += fmt.Sprintf(" volume %q", f.Volume)
		if f.Record >= 0 {
			s += fmt.Sprintf(" record %d", f.Record)
		}
	}
	if f.Detail != "" {
		s += ": " + f.Detail
	}
	return s
}

// Report is the outcome of one scrub pass.
type Report struct {
	// Sets is how many live sets were scanned.
	Sets int
	// BytesScanned is stream bytes re-read off media.
	BytesScanned int64
	// Findings lists every problem found: the scan findings of the
	// sets degraded (or, from Scan, that would be), plus fsck findings.
	Findings []Finding
	// Damaged lists sets newly marked Damaged in the catalog.
	Damaged []uint64
	// Quarantined lists volumes newly quarantined in the pool.
	Quarantined []string
}

func (r *Report) String() string {
	return fmt.Sprintf("scrub: %d set(s), %d bytes; %d finding(s), %d damaged, %d quarantined",
		r.Sets, r.BytesScanned, len(r.Findings), len(r.Damaged), len(r.Quarantined))
}

// scrubName prefixes the maintenance drive and the spans.
const scrubName = "scrub"

// stamp dates the scrubber's damage and quarantine records: the
// filesystem clock is not reachable from here.
const stamp = 0

// A scan over tape is rate-limited so scrubbing never starves live dumps
// of drive time: after every pauseEvery scanned bytes it sleeps for
// pause of virtual time.
const (
	pauseEvery = 8 << 20
	pause      = 250 * time.Millisecond
)

// Config wires a Scrubber to the catalog it guards and the way back to
// that catalog's sets.
type Config struct {
	Catalog *catalog.Catalog
	// Open is the media world's opener: everything the scrubber reads,
	// it reads through this.
	Open engine.Opener
	// Pool, when the media is a tape pool, is where volumes of degraded
	// sets are quarantined and what the fsck cross-checks.
	Pool *media.Pool
}

// Scrubber runs integrity passes.
type Scrubber struct {
	cfg Config
}

// New validates cfg and returns a Scrubber.
func New(cfg Config) (*Scrubber, error) {
	if cfg.Catalog == nil || cfg.Open == nil {
		return nil, fmt.Errorf("scrub: catalog and opener are required")
	}
	return &Scrubber{cfg: cfg}, nil
}

// Run executes one full integrity pass: scan every live, undamaged
// set's media end to end; degrade every set with a finding (mark it
// Damaged, quarantine its volumes); then fsck the catalog against the
// pool. Already-damaged sets are skipped — their verdict is in — and so
// are resumed ones: all but the last of their streams are torn by
// design, and only a restore can judge them.
func (s *Scrubber) Run(ctx context.Context) (*Report, error) { return s.pass(ctx, true) }

// Scan is Run's report-only half: the same scan and fsck with the
// findings reported and nothing marked or quarantined.
func (s *Scrubber) Scan(ctx context.Context) (*Report, error) { return s.pass(ctx, false) }

func (s *Scrubber) pass(ctx context.Context, act bool) (*Report, error) {
	ctx, span := obs.Start(ctx, scrubName+".run")
	defer span.End()
	m := obs.MetricsFrom(ctx)
	rep := &Report{}
	for _, ds := range s.cfg.Catalog.Live() {
		if _, bad := s.cfg.Catalog.Damaged(ds.ID); bad || ds.Resumed {
			continue
		}
		findings, n, err := s.scanSet(ctx, ds)
		if err != nil {
			return nil, err
		}
		rep.Sets++
		rep.BytesScanned += n
		m.Counter("scrub_bytes_total", nil).Add(n)
		if len(findings) == 0 {
			continue
		}
		m.Counter("scrub_errors_total", nil).Add(int64(len(findings)))
		rep.Findings = append(rep.Findings, findings...)
		if act {
			if err := s.degrade(ds, findings, rep, m); err != nil {
				return nil, err
			}
		}
	}
	fsck := Fsck(s.cfg.Catalog, FsckOptions{Pool: s.cfg.Pool})
	rep.Findings = append(rep.Findings, fsck...)
	m.Counter("scrub_errors_total", nil).Add(int64(len(fsck)))
	span.SetAttr("sets", rep.Sets)
	span.SetAttr("bytes", rep.BytesScanned)
	span.SetAttr("findings", len(rep.Findings))
	return rep, nil
}

// degrade marks a set Damaged and quarantines the implicated volumes:
// those named by media-located findings, or — when the corruption
// cannot be pinned to a spot (a stream-level checksum failure) — every
// volume the set touches.
func (s *Scrubber) degrade(ds catalog.DumpSet, findings []Finding, rep *Report, m *obs.Registry) error {
	detail := findings[0].String()
	if len(findings) > 1 {
		detail = fmt.Sprintf("%s (+%d more)", detail, len(findings)-1)
	}
	if err := s.cfg.Catalog.MarkDamaged(ds.ID, stamp, detail); err != nil {
		return err
	}
	rep.Damaged = append(rep.Damaged, ds.ID)
	vols := map[string]bool{}
	for _, f := range findings {
		if f.Volume != "" {
			vols[f.Volume] = true
		}
	}
	if len(vols) == 0 {
		for _, ref := range ds.Media {
			vols[ref.Volume] = true
		}
	}
	for _, ref := range ds.Media { // deterministic order
		if !vols[ref.Volume] || s.cfg.Pool == nil {
			continue
		}
		vols[ref.Volume] = false
		v, ok := s.cfg.Pool.Volume(ref.Volume)
		already := ok && v.State == media.Quarantined
		if err := s.cfg.Pool.Quarantine(ref.Volume, stamp); err != nil {
			return err
		}
		if !already {
			rep.Quarantined = append(rep.Quarantined, ref.Volume)
			m.Counter("scrub_quarantines_total", nil).Inc()
		}
	}
	return nil
}

// scanSet opens a set and re-reads its streams end to end, collecting
// findings: the check is engine.CheckSet, the one every set landed
// through, paced; this layers media-fault capture around it.
func (s *Scrubber) scanSet(ctx context.Context, ds catalog.DumpSet) ([]Finding, int64, error) {
	_, span := obs.Start(ctx, scrubName+".set")
	defer span.End()
	span.SetAttr("set", ds.ID)
	span.SetAttr("engine", ds.Engine.String())

	// The scrubber wants the full damage map, not the first hit: a
	// persistent media fault becomes a finding and the scan goes on.
	var findings []Finding
	streams, err := s.cfg.Open(ctx, ds, func(volume string, record int) {
		findings = append(findings, Finding{Kind: MediaFault, SetID: ds.ID,
			Volume: volume, Record: record, Detail: "unreadable record"})
	})
	// Media that cannot be produced is a finding, not an error: the
	// scrubber's job is to report exactly this.
	var missing media.Unmountable
	if errors.As(err, &missing) {
		for _, label := range missing {
			findings = append(findings, Finding{Kind: OrphanSet, SetID: ds.ID,
				Volume: label, Record: -1, Detail: "cannot mount volume"})
		}
		return findings, 0, nil
	} else if err != nil {
		return nil, 0, err
	}
	defer stream.Close(streams...)
	paced := make([]stream.Source, len(streams))
	for i, src := range streams {
		paced[i] = &pacedSource{src: src, proc: sim.ProcFrom(ctx)}
	}
	checked, n, _ := engine.CheckSet(ctx, ds, paced)
	var format []Finding
	for _, f := range checked {
		kind := StreamCorrupt
		if f.Short {
			kind = ByteCountMismatch
		}
		format = append(format, Finding{Kind: kind, SetID: ds.ID, Record: -1, Detail: f.Detail})
	}
	return dedupe(append(format, findings...)), n, nil
}

// dedupe collapses findings that name the same (kind, volume, record).
func dedupe(in []Finding) []Finding {
	seen := map[string]bool{}
	var out []Finding
	for _, f := range in {
		k := fmt.Sprintf("%d|%d|%s|%d", f.Kind, f.SetID, f.Volume, f.Record)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// pacedSource rate-limits a scan over tape: on a simulated process it
// sleeps pause after every pauseEvery bytes read off src.
type pacedSource struct {
	src        stream.Source
	proc       *sim.Proc
	sincePause int64
}

func (c *pacedSource) ReadRecord() ([]byte, error) {
	rec, err := c.src.ReadRecord()
	c.sincePause += int64(len(rec))
	if c.sincePause >= pauseEvery {
		c.sincePause = 0
		if c.proc != nil {
			c.proc.Sleep(pause)
		}
	}
	return rec, err
}
