// Snapshot diffing for generation-delta cache survival. The serving
// layer caches composition results per endpoint pair; before this file
// existed, any catalog mutation orphaned the entire cache because the
// generation was part of every cache key. The copy-on-write snapshots
// make a far more precise contract cheap: two snapshots share entry and
// materialized-mapping pointers for everything a mutation did not
// touch, so diffing them — ComputeDelta — identifies exactly the
// endpoint pairs whose BFS route changed (different path, a replaced
// mapping revision on the path, or an endpoint-schema update that
// re-materialized an edge), became newly reachable, or became
// unreachable. Every other pair's composition result is provably
// byte-identical across the two generations and can survive the
// mutation untouched.
//
// Route generations make that survival visible on the wire: a Route
// carries the generation of the newest mutation that affected it (the
// largest entry generation along the path), which is stable across
// unrelated mutations — so a cached result's identity, key string and
// pre-encoded bytes never need to change when the catalog moves for
// reasons that do not concern it.
package catalog

import (
	"sort"

	"mapcomp/internal/algebra"
)

// Snap is a handle to one immutable catalog snapshot. It is safe to
// hold indefinitely and to share between goroutines; the snapshot never
// mutates. The zero Snap is not usable.
type Snap struct{ v *view }

// Snap returns a handle to the current snapshot. Two calls with no
// intervening mutation return handles to the same snapshot.
func (c *Catalog) Snap() Snap { return Snap{v: c.snap.Load()} }

// Generation reports the snapshot's catalog generation.
func (s Snap) Generation() uint64 { return s.v.gen }

// Route is one resolved endpoint-pair route inside a snapshot.
type Route struct {
	// Path is the mapping names along the shortest chain, in hop order.
	Path []string
	// Hops is the per-hop detail: which mapping each hop rides, the
	// schemas it connects in the direction traveled, and whether the
	// hop uses the registered direction or a derived inverse. Same
	// length and order as Path.
	Hops []Hop
	// Gen is the route generation: the generation of the newest catalog
	// mutation that affected this route — the largest Generation among
	// the mapping entries on the path and the schema entries they
	// connect. Mutations elsewhere in the catalog leave it unchanged,
	// which is what lets cached results keyed on it survive them.
	Gen uint64

	ms []*algebra.Mapping
}

// Mappings returns the materialized mappings along the path — inverse
// materializations for derived hops — shared read-only with the
// snapshot.
func (r *Route) Mappings() []*algebra.Mapping { return r.ms }

// Route resolves from→to in this snapshot to the shortest chain over
// the bidirectional graph (see resolve), plus the route generation and
// per-hop provenance. On a resolution error the returned route carries
// the partial path BFS explored — the chain to the schema it reached
// last — and no mappings.
func (s Snap) Route(from, to string) (*Route, error) {
	v := s.v
	chain, err := v.resolve(from, to)
	if err != nil {
		r := &Route{}
		for _, e := range chain {
			r.Path = append(r.Path, e.m.Name)
		}
		return r, err
	}
	r := &Route{
		Path: make([]string, len(chain)),
		Hops: make([]Hop, len(chain)),
		ms:   make([]*algebra.Mapping, len(chain)),
	}
	for i, e := range chain {
		m := e.m
		r.Path[i] = m.Name
		r.Hops[i] = Hop{Mapping: m.Name, From: m.From, To: m.To, Prov: e.prov()}
		if e.inv {
			r.Hops[i].From, r.Hops[i].To = m.To, m.From
		}
		r.ms[i] = e.mat
		if m.Generation > r.Gen {
			r.Gen = m.Generation
		}
		if g := v.schemas[m.From].Generation; g > r.Gen {
			r.Gen = g
		}
		if g := v.schemas[m.To].Generation; g > r.Gen {
			r.Gen = g
		}
	}
	return r, nil
}

// PublishHook observes every snapshot publication, called with the
// snapshot being replaced and its replacement. It runs inside the
// catalog's write lock immediately after the new snapshot becomes
// visible to readers, so invocations are strictly ordered by
// generation and no publication can be missed or observed out of
// order; it must not mutate the catalog (deadlock) and should be quick
// — mutations serialize behind it. The serving layer uses it to
// migrate its result cache by the delta between the two snapshots.
type PublishHook func(old, new Snap)

// SetPublishHook attaches (or, with nil, detaches) the publish hook.
// Attach it before the mutations it should observe; there is exactly
// one hook.
func (c *Catalog) SetPublishHook(h PublishHook) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.publish = h
}

// Delta is the set of ordered endpoint pairs whose resolution differs
// between two snapshots. Every pair not listed resolves to an
// identical route — same path, same mapping revisions, same endpoint
// schema revisions — in both snapshots, so a composition result
// computed under the old snapshot is byte-identical to one computed
// under the new.
type Delta struct {
	// FromGen and ToGen are the generations the delta spans.
	FromGen, ToGen uint64
	// Changed lists pairs reachable in both snapshots whose route
	// differs: the path, a mapping revision on it, or an endpoint
	// schema revision of one of its hops changed.
	Changed [][2]string
	// Lost lists pairs reachable in the old snapshot but not the new.
	Lost [][2]string
	// Gained lists pairs reachable in the new snapshot but not the old
	// — nothing cached can exist for them, so they never invalidate.
	Gained [][2]string

	stale map[[2]string]struct{} // Changed ∪ Lost
}

// Invalidated reports whether a cached result for the ordered pair
// (from, to) is stale across this delta: its route changed or its
// endpoints are no longer connected.
func (d *Delta) Invalidated(from, to string) bool {
	_, ok := d.stale[[2]string{from, to}]
	return ok
}

// ComputeDelta diffs two snapshots of the same catalog (old must not be
// newer than new). It exploits the copy-on-write structure sharing:
// a route is unchanged exactly when every hop resolves to the same
// materialized mapping pointer in both snapshots — freeze only reuses a
// materialized mapping when the mapping entry and both endpoint schema
// entries are untouched, so pointer equality captures mapping updates
// and schema re-registrations alike, across any number of intervening
// generations. Cost is two BFS runs per schema, O(S·(S+E)); the output
// pair lists are sorted, so equal snapshots always produce equal
// deltas.
func ComputeDelta(old, new Snap) *Delta {
	ov, nv := old.v, new.v
	d := &Delta{FromGen: ov.gen, ToGen: nv.gen, stale: make(map[[2]string]struct{})}

	// Sources: union of the two schema sets, in sorted order. Mutations
	// never remove schemas, but Restore-built snapshots make the union
	// the honest domain.
	sources := make([]string, 0, len(ov.schemaList)+4)
	for _, e := range ov.schemaList {
		sources = append(sources, e.Name)
	}
	for _, e := range nv.schemaList {
		if _, ok := ov.schemas[e.Name]; !ok {
			sources = append(sources, e.Name)
		}
	}
	sort.Strings(sources)

	for _, src := range sources {
		oi, inOld := ov.schemaIdx[src]
		ni, inNew := nv.schemaIdx[src]
		switch {
		case inOld && inNew:
			d.diffSource(ov, nv, src, oi, ni)
		case inOld:
			// Source vanished: every pair it could reach is lost.
			_, _, oldOrder := ov.bfsFrom(oi)
			for _, x := range oldOrder {
				d.Lost = append(d.Lost, [2]string{src, ov.schemaList[x].Name})
			}
		default:
			// Brand-new source: every pair it reaches is gained.
			_, _, newOrder := nv.bfsFrom(ni)
			for _, x := range newOrder {
				d.Gained = append(d.Gained, [2]string{src, nv.schemaList[x].Name})
			}
		}
	}

	sortPairs(d.Changed)
	sortPairs(d.Lost)
	sortPairs(d.Gained)
	for _, p := range d.Changed {
		d.stale[p] = struct{}{}
	}
	for _, p := range d.Lost {
		d.stale[p] = struct{}{}
	}
	return d
}

// diffSource classifies every destination reachable from src in either
// snapshot. The bfsFrom tree holds exactly the routes Route resolves:
// a node's route is fixed at its discovery, which is deterministic.
// Route comparison propagates along the new BFS tree: a
// node's route changed iff its discovering edge resolves to a
// different materialized mapping (or a different mapping name or
// traversal direction) than in the old tree, or the route to its
// predecessor already changed. The predecessor is implied by the
// discovering edge (its source endpoint), so an identical edge
// guarantees an identical predecessor and the prefix comparison is
// exactly the recursive route comparison. BFS order guarantees the
// predecessor is classified first.
//
// The materialization comparison covers both directions of a mapping
// at once: freeze reuses a derived-inverse materialization exactly when
// it reuses the forward one, so republishing a mapping produces fresh
// pointers for both its forward and its derived edge — every route
// using the mapping in either direction classifies as changed.
func (d *Delta) diffSource(ov, nv *view, src string, oi, ni int) {
	oldVia, _, oldOrder := ov.bfsFrom(oi)
	newVia, newPrev, newOrder := nv.bfsFrom(ni)
	changed := make([]bool, len(nv.schemaList))
	for _, x := range newOrder {
		name := nv.schemaList[x].Name
		ox, inOld := ov.schemaIdx[name]
		if !inOld || oldVia[ox] == nil {
			// Reachable now, not before. Mark the subtree changed: any
			// route through a newly reachable node cannot match an old
			// route, which could not pass through it.
			changed[x] = true
			d.Gained = append(d.Gained, [2]string{src, name})
			continue
		}
		nm, om := newVia[x], oldVia[ox]
		if changed[newPrev[x]] || nm.m.Name != om.m.Name || nm.inv != om.inv || nm.mat != om.mat {
			changed[x] = true
			d.Changed = append(d.Changed, [2]string{src, name})
		}
	}
	for _, x := range oldOrder {
		name := ov.schemaList[x].Name
		nx, inNew := nv.schemaIdx[name]
		if !inNew || newVia[nx] == nil {
			d.Lost = append(d.Lost, [2]string{src, name})
		}
	}
}

func sortPairs(ps [][2]string) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}
