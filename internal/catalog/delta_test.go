package catalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mapcomp/internal/algebra"
	"mapcomp/internal/parser"
)

// deltaCatalog builds the graph used across the delta tests:
//
//	a ─m_ab→ b ─m_bc→ c        (a→c is a two-hop chain)
//	x ─m_xy→ y                 (a disjoint island)
func deltaCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	for _, name := range []string{"a", "b", "c", "x", "y"} {
		if _, err := c.Apply(schemaItem(name, schemaOf(t, name))); err != nil {
			t.Fatal(err)
		}
	}
	register := func(name, from, to string) {
		t.Helper()
		if _, err := c.Apply(mappingItem(name, from, to, constraintOf(t, from, to))); err != nil {
			t.Fatal(err)
		}
	}
	register("m_ab", "a", "b")
	register("m_bc", "b", "c")
	register("m_xy", "x", "y")
	return c
}

// schemaOf builds a one-relation schema R<name>/2.
func schemaOf(t *testing.T, name string) *algebra.Schema {
	t.Helper()
	p, err := parser.Parse("schema s { R" + name + "/2; }")
	if err != nil {
		t.Fatal(err)
	}
	return p.Schemas["s"]
}

// constraintOf builds the single containment Rfrom <= Rto.
func constraintOf(t *testing.T, from, to string) algebra.ConstraintSet {
	t.Helper()
	return mappingOf(t, from, to, false)
}

// mappingOf builds the single constraint of a mapping from→to over
// schemaOf's relations: the invertible permutation equality
// proj[2,1](Rfrom) = Rto, or the containment Rfrom <= Rto, which has
// no derived inverse.
func mappingOf(t *testing.T, from, to string, invertible bool) algebra.ConstraintSet {
	t.Helper()
	body := "R" + from + " <= R" + to
	if invertible {
		body = "proj[2,1](R" + from + ") = R" + to
	}
	p, err := parser.Parse(
		"schema f { R" + from + "/2; }\nschema g { R" + to + "/2; }\n" +
			"map m : f -> g { " + body + "; }")
	if err != nil {
		t.Fatal(err)
	}
	return p.Maps["m"].Constraints
}

// routeOf resolves from→to in snap, failing the test when the pair is
// not connected.
func routeOf(t *testing.T, snap Snap, from, to string) *Route {
	t.Helper()
	r, err := snap.Route(from, to)
	if err != nil {
		t.Fatalf("%s→%s at generation %d: %v", from, to, snap.Generation(), err)
	}
	return r
}

// invalidatedPairs lists, in (from, to) order, the pairs connected in
// old whose old route d invalidates — the pairs a cache holding every
// route of old would drop.
func invalidatedPairs(t *testing.T, d *Delta, old Snap) [][2]string {
	t.Helper()
	var out [][2]string
	for from, to := range old.Pairs() {
		if d.Invalidated(routeOf(t, old, from, to)) {
			out = append(out, [2]string{from, to})
		}
	}
	return out
}

// assertGained checks that every pair in ps has no route in old and one
// in new: nothing can be cached for it, so no delta question concerns
// it.
func assertGained(t *testing.T, old, new Snap, ps [][2]string) {
	t.Helper()
	for _, p := range ps {
		if _, err := old.Route(p[0], p[1]); err == nil {
			t.Fatalf("%v was already connected before the mutation", p)
		}
		routeOf(t, new, p[0], p[1])
	}
}

// TestDeltaUnrelatedMutationIsEmpty: registering a disconnected schema
// changes no route — the delta invalidates nothing and every existing
// pair survives.
func TestDeltaUnrelatedMutationIsEmpty(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.Apply(schemaItem("island", schemaOf(t, "island"))); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	if d.FromGen != before.Generation() || d.ToGen != before.Generation()+1 {
		t.Fatalf("delta spans %d→%d, want %d→%d", d.FromGen, d.ToGen, before.Generation(), before.Generation()+1)
	}
	if d.shapeChanged || len(d.replaced) != 0 {
		t.Fatalf("unrelated mutation produced a non-empty delta: %+v", d)
	}
	if got := invalidatedPairs(t, d, before); got != nil {
		t.Fatalf("unrelated mutation invalidated %v", got)
	}
}

// TestDeltaMappingUpdateInvalidatesRoutesThroughIt: replacing m_ab
// invalidates every pair whose route crosses that edge (a→b, a→c) and
// nothing else.
func TestDeltaMappingUpdateInvalidatesRoutesThroughIt(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.Apply(mappingItem("m_ab", "a", "b", constraintOf(t, "a", "b"))); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	if d.shapeChanged {
		t.Fatal("republishing m_ab with the same endpoints changed the graph's shape")
	}
	want := [][2]string{{"a", "b"}, {"a", "c"}}
	if got := invalidatedPairs(t, d, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("invalidated %v, want %v", got, want)
	}
}

// TestDeltaSchemaUpdateInvalidatesTouchingRoutes: re-registering schema
// b re-materializes both edges touching it, so every route through b is
// invalidated — including b as an endpoint.
func TestDeltaSchemaUpdateInvalidatesTouchingRoutes(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.Apply(schemaItem("b", schemaOf(t, "b"))); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	want := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	if got := invalidatedPairs(t, d, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("invalidated %v, want %v", got, want)
	}
}

// TestDeltaNewEdgeGainsAndReroutes: a new mapping c→x connects the two
// components (gained pairs) and a new direct a→c edge re-routes the
// two-hop chain (changed pair).
func TestDeltaNewEdgeGainsAndReroutes(t *testing.T) {
	c := deltaCatalog(t)
	before := c.Snap()
	if _, err := c.Apply(mappingItem("m_cx", "c", "x", constraintOf(t, "c", "x"))); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	if !d.shapeChanged {
		t.Fatal("a new mapping did not change the graph's shape")
	}
	assertGained(t, before, c.Snap(), [][2]string{
		{"a", "x"}, {"a", "y"},
		{"b", "x"}, {"b", "y"},
		{"c", "x"}, {"c", "y"},
	})
	if got := invalidatedPairs(t, d, before); got != nil {
		t.Fatalf("pure extension invalidated %v", got)
	}

	// Now shortcut a→c directly: the a→c route changes from the chain
	// to the direct edge; nothing else reachable from a via b changes.
	before = c.Snap()
	if _, err := c.Apply(mappingItem("m_ac", "a", "c", constraintOf(t, "a", "c"))); err != nil {
		t.Fatal(err)
	}
	d = ComputeDelta(before, c.Snap())
	want := [][2]string{{"a", "c"}, {"a", "x"}, {"a", "y"}}
	if got := invalidatedPairs(t, d, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("invalidated %v, want %v (a's routes through the new shortcut)", got, want)
	}
}

// TestDeltaAgreesWithRouteComparison is the delta's own oracle: across
// a sequence of mutations, a pair connected before the mutation is
// invalidated iff resolving it in both snapshots yields different
// routes (path names or materialized mapping pointers), and route
// generations only move for invalidated pairs.
func TestDeltaAgreesWithRouteComparison(t *testing.T) {
	c := deltaCatalog(t)
	names := []string{"a", "b", "c", "x", "y"}
	mutations := []func(){
		func() { c.Apply(schemaItem("z", schemaOf(t, "z"))) },
		func() { c.Apply(mappingItem("m_xy", "x", "y", constraintOf(t, "x", "y"))) },
		func() { c.Apply(mappingItem("m_yz", "y", "z", constraintOf(t, "y", "z"))) },
		func() { c.Apply(schemaItem("c", schemaOf(t, "c"))) },
		func() { c.Apply(mappingItem("m_ac", "a", "c", constraintOf(t, "a", "c"))) },
	}
	for step, mutate := range mutations {
		before := c.Snap()
		mutate()
		after := c.Snap()
		d := ComputeDelta(before, after)
		for _, from := range names {
			for _, to := range names {
				if from == to {
					continue
				}
				oldR, oldErr := before.Route(from, to)
				newR, newErr := after.Route(from, to)
				switch {
				case oldErr == nil && newErr == nil:
					same := reflect.DeepEqual(oldR.Path, newR.Path)
					if same {
						for i := range oldR.ms {
							if oldR.ms[i] != newR.ms[i] {
								same = false
								break
							}
						}
					}
					if got := d.Invalidated(oldR); got == same {
						t.Fatalf("step %d: %s→%s invalidated=%v but route-same=%v", step, from, to, got, same)
					}
					if same && oldR.Gen != newR.Gen {
						t.Fatalf("step %d: %s→%s route unchanged but routeGen %d→%d", step, from, to, oldR.Gen, newR.Gen)
					}
				case oldErr == nil && newErr != nil:
					if !d.Invalidated(oldR) {
						t.Fatalf("step %d: %s→%s became unreachable but is not invalidated", step, from, to)
					}
				}
				// A pair connected only after the mutation has no old
				// route, so nothing cached can concern it.
			}
		}
	}
}

// TestDeltaMatchesAllPairsOracle checks the per-route delta against the
// all-pairs snapshot diff (allPairsDelta, below) on randomized
// mutation streams: for every pair connected in the old
// snapshot, Invalidated on its old route must agree with the oracle,
// and a surviving route must resolve in the new snapshot to the same
// path and route generation. The streams mix new schemas, new mappings
// (invertible and containment), mapping-only republishes that may flip
// invertibility or move an endpoint, republishes together with both
// endpoint schemas, and schema-only re-registrations, so both halves of
// Invalidated — the shape-unchanged pointer check and the per-source
// BFS comparison — answer both ways.
func TestDeltaMatchesAllPairsOracle(t *testing.T) {
	var cells [2][2]int // [shape changed][invalidated]
	mutationStream(t, func(seed int64, step int, before, after Snap) {
		d := ComputeDelta(before, after)
		oracle := allPairsDelta(before, after)
		shape := 0
		if d.shapeChanged {
			shape = 1
		}
		for from, to := range before.Pairs() {
			r := routeOf(t, before, from, to)
			got := d.Invalidated(r)
			if want := oracle.Invalidated(from, to); got != want {
				t.Fatalf("seed %d step %d: %s→%s (path %v) invalidated=%v, all-pairs oracle says %v (shape changed %v)",
					seed, step, from, to, r.Path, got, want, d.shapeChanged)
			}
			if !got {
				nr := routeOf(t, after, from, to)
				if !reflect.DeepEqual(nr.Path, r.Path) || nr.Gen != r.Gen {
					t.Fatalf("seed %d step %d: %s→%s survived but resolves to %v@%d, was %v@%d",
						seed, step, from, to, nr.Path, nr.Gen, r.Path, r.Gen)
				}
			}
			inv := 0
			if got {
				inv = 1
			}
			cells[shape][inv]++
		}
	})
	t.Logf("pairs checked [shape unchanged, changed] × [kept, invalidated]: %v", cells)
	for shape, row := range cells {
		for inv, n := range row {
			if n == 0 {
				t.Fatalf("no pair with shape changed=%v and invalidated=%v: the streams miss a case", shape == 1, inv == 1)
			}
		}
	}
}

// mutationStream runs the randomized mutation streams: 40 seeds, each
// a 12-schema, 12-mapping catalog followed by 60 mutations that mix new
// schemas, new mappings (invertible and containment), mapping-only
// republishes that may flip invertibility or move an endpoint,
// republishes together with both endpoint schemas, and schema-only
// re-registrations. visit sees the snapshots on either side of every
// mutation.
func mutationStream(t *testing.T, visit func(seed int64, step int, before, after Snap)) {
	t.Helper()
	const (
		seeds   = 40
		steps   = 60
		schemas = 12
	)
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var names, maps []string
		ends := map[string][2]string{}
		newSchema := func() {
			name := fmt.Sprintf("s%d", len(names))
			if _, err := c.Apply(schemaItem(name, schemaOf(t, name))); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		twoSchemas := func() (string, string) {
			from := names[rng.Intn(len(names))]
			to := names[rng.Intn(len(names))]
			for to == from {
				to = names[rng.Intn(len(names))]
			}
			return from, to
		}
		registerMapping := func(name, from, to string) {
			if _, err := c.Apply(mappingItem(name, from, to, mappingOf(t, from, to, rng.Intn(2) == 0))); err != nil {
				t.Fatal(err)
			}
			if _, ok := ends[name]; !ok {
				maps = append(maps, name)
			}
			ends[name] = [2]string{from, to}
		}
		newMapping := func() {
			from, to := twoSchemas()
			registerMapping(fmt.Sprintf("m%d", len(maps)), from, to)
		}
		for i := 0; i < schemas; i++ {
			newSchema()
		}
		for i := 0; i < schemas; i++ {
			newMapping()
		}
		for step := 0; step < steps; step++ {
			before := c.Snap()
			name := maps[rng.Intn(len(maps))]
			switch k := rng.Intn(10); {
			case k == 0:
				newSchema()
			case k <= 2:
				newMapping()
			case k <= 5:
				// Same endpoints; the kind is redrawn, so invertibility
				// flips about half the time.
				registerMapping(name, ends[name][0], ends[name][1])
			case k == 6:
				from, to := twoSchemas()
				registerMapping(name, from, to)
			case k <= 8:
				from, to := ends[name][0], ends[name][1]
				body := "proj[2,1](R" + from + ") = R" + to
				if rng.Intn(2) == 0 {
					body = "R" + from + " <= R" + to
				}
				task := fmt.Sprintf("schema %[1]s { R%[1]s/2; }\nschema %[2]s { R%[2]s/2; }\nmap %[3]s : %[1]s -> %[2]s { %[4]s; }\n", from, to, name, body)
				if _, err := c.Apply(mustParse(t, task)); err != nil {
					t.Fatal(err)
				}
			default:
				s := names[rng.Intn(len(names))]
				if _, err := c.Apply(schemaItem(s, schemaOf(t, s))); err != nil {
					t.Fatal(err)
				}
			}
			after := c.Snap()
			visit(seed, step, before, after)
		}
	}
}

// TestPublishHookOrderedPerMutation: the hook sees every publication,
// in generation order, with adjacent snapshots.
func TestPublishHookOrderedPerMutation(t *testing.T) {
	c := New()
	var gens [][2]uint64
	c.SetPublishHook(func(old, new Snap) {
		gens = append(gens, [2]uint64{old.Generation(), new.Generation()})
	})
	if _, err := c.Apply(schemaItem("a", schemaOf(t, "a"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(schemaItem("b", schemaOf(t, "b"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(mappingItem("m", "a", "b", constraintOf(t, "a", "b"))); err != nil {
		t.Fatal(err)
	}
	// A rejected mutation publishes nothing.
	if _, err := c.Apply(mappingItem("bad", "a", "nowhere", nil)); err == nil {
		t.Fatal("expected rejection")
	}
	want := [][2]uint64{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(gens, want) {
		t.Fatalf("hook observed %v, want %v", gens, want)
	}
}

// TestRouteGenStableAcrossUnrelatedMutations: the route generation of
// a→c is pinned by its own entries and survives unrelated churn.
func TestRouteGenStableAcrossUnrelatedMutations(t *testing.T) {
	c := deltaCatalog(t)
	r, err := c.Snap().Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Path) != 2 || r.Path[0] != "m_ab" || r.Path[1] != "m_bc" {
		t.Fatalf("path = %v", r.Path)
	}
	gen := r.Gen
	for i := 0; i < 3; i++ {
		if _, err := c.Apply(schemaItem("noise", schemaOf(t, "noise"))); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := c.Snap().Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Gen != gen {
		t.Fatalf("routeGen moved %d→%d across unrelated mutations", gen, r2.Gen)
	}
	// Touching an edge on the route moves it to the mutation's gen.
	if _, err := c.Apply(mappingItem("m_bc", "b", "c", constraintOf(t, "b", "c"))); err != nil {
		t.Fatal(err)
	}
	r3, err := c.Snap().Route("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if r3.Gen != c.Generation() {
		t.Fatalf("routeGen = %d after touching the route at generation %d", r3.Gen, c.Generation())
	}
}

// The all-pairs snapshot diff, the reference TestDeltaMatchesAllPairsOracle
// checks Delta against: two BFS runs per schema, then sorted pair
// lists of every changed, lost and gained pair.

// pairDelta is the set of ordered endpoint pairs whose resolution
// differs between two snapshots. Every pair not listed resolves to an
// identical route — same path, same mapping revisions, same endpoint
// schema revisions — in both snapshots, so a composition result
// computed under the old snapshot is byte-identical to one computed
// under the new.
type pairDelta struct {
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
func (d *pairDelta) Invalidated(from, to string) bool {
	_, ok := d.stale[[2]string{from, to}]
	return ok
}

// allPairsDelta diffs two snapshots of the same catalog (old must not be
// newer than new). It exploits the copy-on-write structure sharing:
// a route is unchanged exactly when every hop resolves to the same
// materialized mapping pointer in both snapshots — freeze only reuses a
// materialized mapping when the mapping entry and both endpoint schema
// entries are untouched, so pointer equality captures mapping updates
// and schema re-registrations alike, across any number of intervening
// generations. Cost is two BFS runs per schema, O(S·(S+E)); the output
// pair lists are sorted, so equal snapshots always produce equal
// deltas.
func allPairsDelta(old, new Snap) *pairDelta {
	ov, nv := old.v, new.v
	d := &pairDelta{FromGen: ov.gen, ToGen: nv.gen, stale: make(map[[2]string]struct{})}

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
func (d *pairDelta) diffSource(ov, nv *view, src string, oi, ni int) {
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
