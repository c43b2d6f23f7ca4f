package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// PlanOptions asks the planner for a restore chain.
type PlanOptions struct {
	// Engine selects which dump family to plan from.
	Engine Engine
	// FSID names the filesystem to recover.
	FSID string
	// At is the target time: recover the newest state dumped at or
	// before it. 0 means the latest recorded state.
	At int64
	// File, when set, plans a single-file ("stupidity") recovery of
	// this dump-relative path instead of the whole volume.
	File string
	// IncludeExpired lets the planner use expired sets — a last-resort
	// recovery from media that retention released but reclamation has
	// not yet erased.
	IncludeExpired bool
	// IncludeDamaged lets the planner use sets the scrubber marked
	// damaged — a last-resort recovery that accepts salvage semantics
	// instead of routing around the damage.
	IncludeDamaged bool
}

// BlockedChain explains why one candidate restore chain is unusable:
// the newest set it would reproduce, and the damage that blocks it.
type BlockedChain struct {
	Target uint64
	Reason string
}

// UnplannableError is the planner's typed refusal: every candidate
// full+incremental chain is blocked by damaged sets, and Blocked names
// each candidate target with the exact set that blocks it — the
// precise explanation that replaces a mid-restore surprise.
type UnplannableError struct {
	Engine  Engine
	FSID    string
	Blocked []BlockedChain
}

func (e *UnplannableError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "catalog: no undamaged %s chain for %q", e.Engine, e.FSID)
	for _, bc := range e.Blocked {
		fmt.Fprintf(&b, "; chain to set %d: %s", bc.Target, bc.Reason)
	}
	b.WriteString(" (rerun with IncludeDamaged for salvage semantics)")
	return b.String()
}

// Plan is a restore chain: Steps applied in order reproduce the
// filesystem state of Steps[len-1] — a full dump followed by its
// incrementals. For a single-file logical plan the chain is pruned to
// the one set whose index holds the newest copy of the file.
type Plan struct {
	Engine Engine
	FSID   string
	File   string
	Steps  []DumpSet
}

// Media returns the distinct volumes the plan needs, in mount order —
// the "media list" the operator no longer assembles by hand.
func (p *Plan) Media() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range p.Steps {
		for _, m := range s.Media {
			if !seen[m.Volume] {
				seen[m.Volume] = true
				out = append(out, m.Volume)
			}
		}
	}
	return out
}

// String renders the plan for operators.
func (p *Plan) String() string {
	var b strings.Builder
	what := "volume"
	if p.File != "" {
		what = "file " + p.File
	}
	fmt.Fprintf(&b, "%s recovery of %s on %s: %d step(s)\n", p.Engine, what, p.FSID, len(p.Steps))
	for i, s := range p.Steps {
		var vols []string
		for _, m := range s.Media {
			vols = append(vols, m.Volume)
		}
		if s.Engine == Image {
			fmt.Fprintf(&b, "  %d. set %d image gen %d (base %d), %d blocks, media %s\n",
				i+1, s.ID, s.Gen, s.BaseGen, s.Units, strings.Join(vols, ","))
		} else {
			fmt.Fprintf(&b, "  %d. set %d level %d date %d (base %d), %d files, media %s\n",
				i+1, s.ID, s.Level, s.Date, s.BaseDate, s.Units, strings.Join(vols, ","))
		}
	}
	return b.String()
}

// Plan computes the minimal full+incremental chain recovering opts.FSID
// at opts.At. The chain is found by walking base links backwards from
// the newest eligible set: a logical incremental's base is the set
// whose dump date equals its BaseDate; an image incremental's base is
// the set whose generation equals its BaseGen. A broken link — the
// base was never recorded, or was expired and IncludeExpired is off —
// is an error naming the missing base, not a silently shorter chain.
//
// Sets the scrubber marked Damaged are routed around: the planner
// walks candidates newest-first and returns the first chain with no
// damaged member, reproducing a slightly older state rather than
// failing mid-restore. When every candidate chain is damage-blocked
// the refusal is a typed *UnplannableError naming each block.
func (c *Catalog) Plan(opts PlanOptions) (*Plan, error) {
	if opts.Engine != Logical && opts.Engine != Image {
		return nil, fmt.Errorf("catalog: plan needs an engine")
	}
	pool := c.sets
	damaged := func(id uint64) (string, bool) {
		if opts.IncludeDamaged {
			return "", false
		}
		return c.Damaged(id)
	}

	// Candidate targets, newest first. Ties on Date break to the later
	// ID (completion order). The first candidate is the state the
	// operator asked for; the rest exist only for damage route-around.
	var cands []*DumpSet
	for i := range pool {
		ds := &pool[i]
		if ds.Engine != opts.Engine || ds.FSID != opts.FSID {
			continue
		}
		if _, dead := c.expired[ds.ID]; dead && !opts.IncludeExpired {
			continue
		}
		if opts.At != 0 && ds.Date > opts.At {
			continue
		}
		cands = append(cands, ds)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Date != cands[j].Date {
			return cands[i].Date > cands[j].Date
		}
		return cands[i].ID > cands[j].ID
	})
	if len(cands) == 0 {
		return nil, fmt.Errorf("catalog: no %s dump of %q at or before %d", opts.Engine, opts.FSID, opts.At)
	}

	var blocked []BlockedChain
	for _, target := range cands {
		if why, bad := damaged(target.ID); bad {
			blocked = append(blocked, BlockedChain{Target: target.ID,
				Reason: fmt.Sprintf("set %d is damaged: %s", target.ID, why)})
			continue
		}
		chain, block, err := c.chainFor(opts, target)
		if err != nil {
			// Non-damage failures (missing or expired base, cycle) are
			// catalog corruption or retention mistakes, not something a
			// different candidate fixes — keep them hard errors.
			return nil, err
		}
		if block != "" {
			blocked = append(blocked, BlockedChain{Target: target.ID, Reason: block})
			continue
		}
		p := &Plan{Engine: opts.Engine, FSID: opts.FSID, File: opts.File, Steps: chain}
		if opts.File != "" && opts.Engine == Logical {
			if err := c.pruneForFile(p); err != nil {
				return nil, err
			}
		}
		// An image plan keeps the whole chain even for one file: blocks
		// of the file may live in any member, and the executor replays them all.
		return p, nil
	}
	return nil, &UnplannableError{Engine: opts.Engine, FSID: opts.FSID, Blocked: blocked}
}

// Base resolves an incremental's base link: the newest earlier set of
// the same engine and filesystem whose generation (image) or dump date
// (logical) is the one ds was dumped against. Planning, retention's
// chain closure and fsck all follow base links through it.
func (c *Catalog) Base(ds DumpSet) (base DumpSet, ok bool) {
	for _, b := range c.sets {
		if b.Engine != ds.Engine || b.FSID != ds.FSID || b.ID >= ds.ID || b.ID < base.ID {
			continue
		}
		if (ds.Engine == Image && b.Gen == ds.BaseGen) || (ds.Engine != Image && b.Date == ds.BaseDate) {
			base, ok = b, true
		}
	}
	return base, ok
}

// chainFor walks base links from target back to its full dump. It
// returns the chain full-first; a non-empty block reason when a member
// is damaged (the caller routes to an older candidate); or a hard
// error when the catalog itself cannot produce any chain through this
// target (missing base, expired base). A base is always an earlier set,
// so the walk ends.
func (c *Catalog) chainFor(opts PlanOptions, target *DumpSet) ([]DumpSet, string, error) {
	chain := []DumpSet{*target}
	for cur := *target; !cur.Full(); {
		base, ok := c.Base(cur)
		if !ok {
			if opts.Engine == Image {
				return nil, "", fmt.Errorf("catalog: set %d needs base generation %d, which is not in the catalog", cur.ID, cur.BaseGen)
			}
			return nil, "", fmt.Errorf("catalog: set %d needs base date %d, which is not in the catalog", cur.ID, cur.BaseDate)
		}
		if _, dead := c.expired[base.ID]; dead && !opts.IncludeExpired {
			return nil, "", fmt.Errorf("catalog: set %d needs set %d, which is expired", cur.ID, base.ID)
		}
		if !opts.IncludeDamaged {
			if why, bad := c.Damaged(base.ID); bad {
				return nil, fmt.Sprintf("set %d needs set %d, which is damaged: %s", cur.ID, base.ID, why), nil
			}
		}
		chain = append(chain, base)
		cur = base
	}
	// Reverse: full first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, "", nil
}

// pruneForFile reduces a logical chain to the single newest member
// whose file index contains the path: a logical dump carries the whole
// file whenever it carries it at all, so one set suffices.
func (c *Catalog) pruneForFile(p *Plan) error {
	path := normalizePath(p.File)
	for i := len(p.Steps) - 1; i >= 0; i-- {
		idx := c.index[p.Steps[i].ID]
		if idx == nil {
			// No index recorded for this set: without it we cannot
			// prune safely, so keep the chain from here down.
			p.Steps = p.Steps[:i+1]
			return nil
		}
		for _, f := range idx {
			if normalizePath(f.Path) == path {
				p.Steps = []DumpSet{p.Steps[i]}
				return nil
			}
		}
	}
	return fmt.Errorf("catalog: %q is not in any indexed set of the chain", p.File)
}

func normalizePath(p string) string {
	return strings.Trim(p, "/")
}
