// Per-route publish deltas for generation-delta cache survival. The
// serving layer caches composition results per endpoint pair; before
// this file existed, any catalog mutation orphaned the entire cache
// because the generation was part of every cache key. The copy-on-write
// snapshots make a far more precise contract cheap: two snapshots share
// entry and materialized-mapping pointers for everything a mutation did
// not touch, so a cached result's route can be checked against the new
// snapshot — Delta.Invalidated — and every route that is still the
// route (same path, same mapping revisions, same endpoint schema
// revisions) keeps a result that is provably byte-identical across the
// two generations.
//
// The check is cheap because BFS reads only the graph's shape — each
// mapping's endpoints and whether it has a derived inverse — and never
// a materialization. ComputeDelta is one O(M) merge walk over the two
// mapping lists. When the shape is unchanged every route keeps its path
// and survives unless one of its hop materializations was replaced; on
// a shape change each route is compared with the new snapshot's BFS
// tree from its source, at most one memoized BFS per cached source. No
// schema-pair lists are built.
//
// Route generations make that survival visible on the wire: a Route
// carries the generation of the newest mutation that affected it (the
// largest entry generation along the path), which is stable across
// unrelated mutations — so a cached result's identity, key string and
// pre-encoded bytes never need to change when the catalog moves for
// reasons that do not concern it.
package catalog

import "mapcomp/internal/algebra"

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
// per-hop provenance. The search stops at the target, so its cost is
// the part of the graph within the route's hop count, and it allocates
// only the route: its scratch is pooled. On a resolution error the
// returned route carries the partial path the search explored — the
// chain to the schema it reached last — and no mappings.
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

// Delta answers, for a route resolved in the old snapshot of a
// publish, whether it is still the route in the new one. It holds no
// pair lists: the serving layer asks about each route it has cached,
// and nothing else can be stale. Routes are compared by materialized
// mapping pointer — freeze reuses a materialization exactly when the
// mapping entry and both endpoint schema entries are unchanged, so
// pointer equality captures mapping updates and schema
// re-registrations alike, across any number of intervening
// generations, and an unchanged route also keeps its Route.Gen.
//
// A Delta belongs to one goroutine: Invalidated memoizes BFS trees of
// the new snapshot. The publish hook runs serialized under the
// catalog's write lock, which is all the serving layer needs.
type Delta struct {
	// FromGen and ToGen are the generations the delta spans.
	FromGen, ToGen uint64

	// shapeChanged reports that the publish added or removed an edge
	// of the bidirectional graph: a new, removed or re-pointed mapping,
	// or one whose derived inverse appeared or vanished. BFS reads
	// only that shape, so without a shape change every route keeps its
	// path.
	shapeChanged bool
	// replaced holds the old snapshot's materializations — forward and
	// derived-inverse — that the new snapshot no longer has.
	replaced map[*algebra.Mapping]struct{}
	nv       *view
	// trees memoizes the new snapshot's bfsFrom tree per source index
	// on a shape change.
	trees map[int]bfsTree
}

// bfsTree is one source's bfsFrom result: the discovering edge and the
// predecessor of every node.
type bfsTree struct {
	via  []*edge
	prev []int
}

// ComputeDelta prepares the per-route check between two snapshots of
// the same catalog (old must not be newer than new). It runs no BFS: a
// merge walk over the two name-sorted mapping lists decides whether
// the graph's shape changed and collects the old materializations the
// new snapshot replaced, so its cost is O(M) in the mapping count. BFS
// runs only in Invalidated, and only on a shape change: at most one BFS
// per distinct source among the routes asked about.
func ComputeDelta(old, new Snap) *Delta {
	ov, nv := old.v, new.v
	d := &Delta{FromGen: ov.gen, ToGen: nv.gen, nv: nv}
	replace := func(name string) {
		if d.replaced == nil {
			d.replaced = make(map[*algebra.Mapping]struct{})
		}
		d.replaced[ov.mappings[name]] = struct{}{}
		if inv := ov.inversions[name]; inv.Invertible() {
			d.replaced[inv.Mapping] = struct{}{}
		}
	}
	om, nm := ov.mapList, nv.mapList
	for i, j := 0, 0; i < len(om) || j < len(nm); {
		switch {
		case j == len(nm) || (i < len(om) && om[i].Name < nm[j].Name):
			// A mapping vanished. No mutation removes one, but the walk
			// stays total: its edges left the graph.
			d.shapeChanged = true
			replace(om[i].Name)
			i++
		case i == len(om) || nm[j].Name < om[i].Name:
			d.shapeChanged = true // a new mapping: a new edge
			j++
		default:
			name := om[i].Name
			if ov.mappings[name] != nv.mappings[name] {
				replace(name)
				if om[i].From != nm[j].From || om[i].To != nm[j].To ||
					ov.inversions[name].Invertible() != nv.inversions[name].Invertible() {
					d.shapeChanged = true
				}
			}
			i++
			j++
		}
	}
	return d
}

// Invalidated reports whether r, a route resolved in the delta's old
// snapshot (or one unchanged since), is stale in the new snapshot: its
// pair now resolves to a different path, through a replaced mapping
// revision or endpoint schema revision, or not at all. A route whose
// source schema the new snapshot does not know is invalidated.
//
// Without a shape change every route keeps its path, so r is stale iff
// one of its hop materializations was replaced. After a shape change r
// is compared hop by hop with the new snapshot's BFS tree from its
// source — mapping name, direction, materialization and the final
// schema — which is exactly the route Snap.Route would resolve.
func (d *Delta) Invalidated(r *Route) bool {
	if r == nil || len(r.Hops) == 0 {
		return true
	}
	nv := d.nv
	src, ok := nv.schemaIdx[r.Hops[0].From]
	if !ok {
		return true
	}
	if !d.shapeChanged {
		for _, m := range r.ms {
			if _, ok := d.replaced[m]; ok {
				return true
			}
		}
		return false
	}
	t, ok := d.trees[src]
	if !ok {
		via, prev, _ := nv.bfsFrom(src)
		t = bfsTree{via: via, prev: prev}
		if d.trees == nil {
			d.trees = make(map[int]bfsTree)
		}
		d.trees[src] = t
	}
	x, ok := nv.schemaIdx[r.Hops[len(r.Hops)-1].To]
	if !ok {
		return true
	}
	for i := len(r.Hops) - 1; i >= 0; i-- {
		e, h := t.via[x], &r.Hops[i]
		if e == nil || e.m.Name != h.Mapping || e.inv != (h.Prov == ProvDerivedInverse) || e.mat != r.ms[i] {
			return true
		}
		x = t.prev[x]
	}
	return x != src
}
