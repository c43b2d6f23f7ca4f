package media

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/tape"
)

// lifeModel is the volume lifecycle written down once, independently
// of the catalog's fold: register → scratch, activate → active,
// reclaim → scratch with an empty set list, quarantine → quarantined
// for good; expired is derived (active, holding sets, all expired).
type lifeModel struct {
	order   []string
	state   map[string]State // never Expired
	sets    map[string][]uint64
	expired map[uint64]bool
	media   map[uint64][]string
}

func newLifeModel() *lifeModel {
	return &lifeModel{state: map[string]State{}, sets: map[string][]uint64{},
		expired: map[uint64]bool{}, media: map[uint64][]string{}}
}

func (m *lifeModel) register(l string) {
	if _, ok := m.state[l]; !ok {
		m.state[l] = Scratch
		m.order = append(m.order, l)
	}
}

func (m *lifeModel) view(l string) State {
	s := m.state[l]
	if s != Active || len(m.sets[l]) == 0 {
		return s
	}
	for _, id := range m.sets[l] {
		if !m.expired[id] {
			return Active
		}
	}
	return Expired
}

func (m *lifeModel) erasable(l string) bool {
	if m.state[l] == Quarantined {
		return false
	}
	for _, id := range m.sets[l] {
		if !m.expired[id] {
			return false
		}
	}
	return true
}

// volView is what the three views are compared on.
type volView struct {
	Label string
	State State
	Sets  []uint64
}

func poolView(p *Pool) []volView {
	var out []volView
	for _, v := range p.Volumes() {
		out = append(out, volView{v.Label, v.State, append([]uint64(nil), v.Sets...)})
	}
	return out
}

func (m *lifeModel) views() []volView {
	var out []volView
	for _, l := range m.order {
		out = append(out, volView{l, m.view(l), append([]uint64(nil), m.sets[l]...)})
	}
	return out
}

// TestLifecycleFoldAgrees runs seeded random sequences of pool and
// catalog operations and, after every step, holds three views of every
// volume to each other — the pool over the live catalog, a pool over a
// reopened copy of the journal, and lifeModel — and the catalog's
// HealthLabel of every set to the model's quarantines.
func TestLifecycleFoldAgrees(t *testing.T) {
	t.Run("activate after quarantine", func(t *testing.T) {
		c, store := newCat(t)
		p := NewPool("main", c)
		cart := tape.NewCartridge("t0")
		if err := p.Register("t0", cart, 0); err != nil {
			t.Fatal(err)
		}
		id := record(t, c, "vol0", 0, 100, 0, "t0")
		if err := p.CommitSet(id, []string{"t0"}, 100); err != nil {
			t.Fatal(err)
		}
		if err := p.Quarantine("t0", 150); err != nil {
			t.Fatal(err)
		}
		// What CommitSet journaled for a set onto a quarantined volume
		// before it stopped: an activate that must lift nothing.
		if err := c.AppendMediaEvent(catalog.MediaEvent{Kind: catalog.MediaActivate, Volume: "t0", Pool: "main", Time: 160}); err != nil {
			t.Fatal(err)
		}
		if err := c.Expire(id, 200); err != nil {
			t.Fatal(err)
		}
		stamp(t, cart)
		c2, err := catalog.Open(&catalog.MemStore{Buf: append([]byte(nil), store.Buf...)})
		if err != nil {
			t.Fatal(err)
		}
		p2 := NewPool("main", c2)
		if err := p2.Register("t0", cart, 300); err != nil {
			t.Fatal(err)
		}
		for name, p := range map[string]*Pool{"live": p, "replayed": p2} {
			if v, _ := p.Volume("t0"); v.State != Quarantined {
				t.Fatalf("%s: t0 is %v after quarantine then activate", name, v.State)
			}
			if got, err := p.Reclaim(300); err != nil || len(got) != 0 {
				t.Fatalf("%s: Reclaim = %v, %v; a quarantined volume stays", name, got, err)
			}
			if cart.Records() != 1 {
				t.Fatalf("%s: the quarantined cartridge was erased", name)
			}
		}
	})

	t.Run("one pool per label", func(t *testing.T) {
		c, _ := newCat(t)
		a, b := NewPool("a", c), NewPool("b", c)
		if err := a.Register("t0", nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := b.Register("t0", nil, 0); err == nil || len(b.Volumes()) != 0 {
			t.Fatalf("pool b took pool a's volume: %v, %d volumes", err, len(b.Volumes()))
		}
		// An event journaled under another pool's name leaves it alone.
		if err := c.AppendMediaEvent(catalog.MediaEvent{Kind: catalog.MediaQuarantine, Volume: "t0", Pool: "b"}); err != nil {
			t.Fatal(err)
		}
		if v, _ := a.Volume("t0"); v.State != Scratch {
			t.Fatalf("pool b's quarantine moved pool a's volume to %v", v.State)
		}
	})

	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { lifecycleRun(t, seed, 150) })
	}
}

func lifecycleRun(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	c, store := newCat(t)
	p := NewPool("main", c)
	m := newLifeModel()
	labels := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	carts := map[string]*tape.Cartridge{}
	bound := map[string]bool{} // registered with its cartridge: erasing it empties it
	for _, l := range labels {
		carts[l] = tape.NewCartridge(l)
	}
	pick := func() string { return labels[rng.Intn(len(labels))] }
	now := int64(0)
	for step := 0; step < steps; step++ {
		now += 10
		var op string
		switch k := rng.Intn(12); {
		case k == 0:
			l := pick()
			op = "register " + l
			if err := p.Register(l, carts[l], now); err != nil {
				t.Fatal(err)
			}
			m.register(l)
			bound[l] = true
		case k <= 4:
			// A set on one to three distinct volumes: spanning, onto
			// unregistered or quarantined media as the draw falls.
			var vols []string
			for _, i := range rng.Perm(len(labels))[:1+rng.Intn(3)] {
				vols = append(vols, labels[i])
			}
			op = fmt.Sprintf("dump onto %v", vols)
			id := record(t, c, "vol0", 0, now, 0, vols...)
			for _, l := range vols {
				stamp(t, carts[l])
			}
			if err := p.CommitSet(id, vols, now); err != nil {
				t.Fatal(err)
			}
			m.media[id] = vols
			for _, l := range vols {
				m.register(l)
				if m.state[l] == Scratch {
					m.state[l] = Active
				}
				m.sets[l] = append(m.sets[l], id)
			}
		case k == 5:
			live := c.Live()
			if len(live) == 0 {
				continue
			}
			id := live[rng.Intn(len(live))].ID
			op = fmt.Sprintf("expire %d", id)
			if err := c.Expire(id, now); err != nil {
				t.Fatal(err)
			}
			m.expired[id] = true
		case k == 6:
			n := 1 + rng.Intn(3)
			op = fmt.Sprintf("retain last %d", n)
			got, err := p.ApplyRetention(KeepLast{N: n}, "vol0", catalog.Logical, now)
			if err != nil {
				t.Fatal(err)
			}
			// Every set is a full: the n newest live sets stay.
			var want []uint64
			sets := c.Sets()
			for i, kept := len(sets)-1, 0; i >= 0; i-- {
				if id := sets[i].ID; !m.expired[id] {
					if kept++; kept > n {
						want = append([]uint64{id}, want...)
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d %s: expired %v, want %v", step, op, got, want)
			}
			for _, id := range got {
				m.expired[id] = true
			}
		case k <= 8:
			op = "reclaim"
			got, err := p.Reclaim(now)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, l := range m.order {
				if m.view(l) == Expired {
					want = append(want, l)
					m.state[l], m.sets[l] = Scratch, nil
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d reclaim: %v, want %v", step, got, want)
			}
			for _, l := range got {
				if bound[l] && carts[l].Records() != 0 {
					t.Fatalf("step %d: reclaimed %s not erased", step, l)
				}
			}
		case k == 9:
			l := pick()
			op = "quarantine " + l
			if err := p.Quarantine(l, now); err != nil {
				t.Fatal(err)
			}
			m.register(l)
			m.state[l] = Quarantined
		default:
			l := pick()
			op = "erase " + l
			_, known := m.state[l]
			want := known && m.erasable(l)
			if err := p.Erase(l, now); (err == nil) != want {
				t.Fatalf("step %d erase %s: %v, want success %v", step, l, err, want)
			}
			if want {
				m.state[l], m.sets[l] = Scratch, nil
			}
		}

		replayed, err := catalog.Open(&catalog.MemStore{Buf: append([]byte(nil), store.Buf...)})
		if err != nil {
			t.Fatal(err)
		}
		want := m.views()
		if got := poolView(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s: live pool\n%v\nmodel\n%v", step, op, got, want)
		}
		if got := poolView(NewPool("main", replayed)); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s: replayed pool\n%v\nmodel\n%v", step, op, got, want)
		}
		for _, ds := range c.Sets() {
			label := "ok"
			for _, l := range m.media[ds.ID] {
				if m.state[l] == Quarantined {
					label = "quarantined-media"
				}
			}
			if got := c.HealthLabel(ds.ID); got != label {
				t.Fatalf("step %d %s: set %d health %q, want %q", step, op, ds.ID, got, label)
			}
		}
	}
}

// stamp writes one record on cart, so erasing it shows.
func stamp(t *testing.T, cart *tape.Cartridge) {
	t.Helper()
	d := tape.NewDrive(nil, "stamp", tape.Params{})
	d.AddCartridges(cart)
	if err := d.Load(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRecord(nil, []byte{1}); err != nil {
		t.Fatal(err)
	}
}
