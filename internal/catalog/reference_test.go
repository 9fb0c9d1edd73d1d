package catalog

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"mapcomp/internal/algebra"
	"mapcomp/internal/core"
)

// freezeRef is freeze as it was before the adjacency was built in two
// passes over one backing array and the listings were derived from the
// previous view's: every listing re-sorted, and every node's edge list
// appended separately and sorted. Kept verbatim as the oracle of
// TestFreezeMatchesReference.
func (v *view) freezeRef(prev *view) *view {
	v.schemaList = make([]*SchemaEntry, 0, len(v.schemas))
	for _, e := range v.schemas {
		v.schemaList = append(v.schemaList, e)
	}
	sort.Slice(v.schemaList, func(i, j int) bool { return v.schemaList[i].Name < v.schemaList[j].Name })
	v.mapList = make([]*MappingEntry, 0, len(v.maps))
	for _, e := range v.maps {
		v.mapList = append(v.mapList, e)
	}
	sort.Slice(v.mapList, func(i, j int) bool { return v.mapList[i].Name < v.mapList[j].Name })
	v.schemaIdx = make(map[string]int, len(v.schemaList))
	for i, e := range v.schemaList {
		v.schemaIdx[e.Name] = i
	}
	v.edges = make([][]edge, len(v.schemaList))
	v.mappings = make(map[string]*algebra.Mapping, len(v.mapList))
	v.inversions = make(map[string]*core.Inversion, len(v.mapList))
	for _, m := range v.mapList {
		from, to := v.schemas[m.From], v.schemas[m.To]
		if prev != nil && prev.maps[m.Name] == m &&
			prev.schemas[m.From] == from && prev.schemas[m.To] == to {
			v.mappings[m.Name] = prev.mappings[m.Name]
			v.inversions[m.Name] = prev.inversions[m.Name]
		} else {
			v.mappings[m.Name] = algebra.NewMapping(from.Schema, to.Schema, m.Constraints)
			v.inversions[m.Name] = core.Invert(v.mappings[m.Name])
		}
		fi, ti := v.schemaIdx[m.From], v.schemaIdx[m.To]
		v.edges[fi] = append(v.edges[fi], edge{to: ti, m: m, mat: v.mappings[m.Name]})
		if inv := v.inversions[m.Name]; inv.Invertible() {
			v.edges[ti] = append(v.edges[ti], edge{to: fi, m: m, inv: true, mat: inv.Mapping})
		}
	}
	for _, es := range v.edges {
		sort.Slice(es, func(i, j int) bool {
			if es[i].inv != es[j].inv {
				return !es[i].inv // registered before derived
			}
			return es[i].m.Name < es[j].m.Name
		})
	}
	return v
}

// resolveRef is resolve as it was before the early-exit search on
// pooled scratch: one full bfsFrom sweep from the source, then the
// target's tree path. Kept verbatim as the oracle of
// TestResolveMatchesReference.
func (v *view) resolveRef(from, to string) ([]*edge, error) {
	if _, ok := v.schemas[from]; !ok {
		return nil, fmt.Errorf("catalog: %w %s", ErrUnknownSchema, from)
	}
	if _, ok := v.schemas[to]; !ok {
		return nil, fmt.Errorf("catalog: %w %s", ErrUnknownSchema, to)
	}
	if from == to {
		return nil, fmt.Errorf("catalog: compose endpoints are the same schema %s", from)
	}
	src, dst := v.schemaIdx[from], v.schemaIdx[to]
	via, prev, order := v.bfsFrom(src)
	chainTo := func(i int) []*edge {
		var chain []*edge
		for x := i; via[x] != nil; x = prev[x] {
			chain = append(chain, via[x])
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		return chain
	}
	if via[dst] != nil {
		return chainTo(dst), nil
	}
	frontier := src
	if len(order) > 0 {
		frontier = order[len(order)-1]
	}
	npe := &NoPathError{From: from, To: to}
	npe.ReverseReachable, npe.Blocking = v.reverseReachable(src, dst)
	return chainTo(frontier), npe
}

// routeRef is Snap.Route over resolveRef.
func routeRef(v *view, from, to string) (*Route, error) {
	chain, err := v.resolveRef(from, to)
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

// routeCounts tallies what checkRoutesMatchReference compared.
type routeCounts struct{ routed, noPath, reverseReachable int }

// checkRoutesMatchReference compares Snap.Route with routeRef on every
// ordered pair of distinct schemas of s: the path, the hops with their
// provenance, the route generation, the materialization pointers (so
// each hop rides the very edge the reference chose) and the error —
// including the partial path and the NoPathError of unconnected pairs.
func checkRoutesMatchReference(t *testing.T, s Snap, counts *routeCounts) {
	t.Helper()
	v := s.v
	for _, a := range v.schemaList {
		for _, b := range v.schemaList {
			if a == b {
				continue
			}
			r, err := s.Route(a.Name, b.Name)
			want, wantErr := routeRef(v, a.Name, b.Name)
			if !reflect.DeepEqual(r.Path, want.Path) || !reflect.DeepEqual(r.Hops, want.Hops) ||
				r.Gen != want.Gen || !slices.Equal(r.Mappings(), want.Mappings()) ||
				!reflect.DeepEqual(err, wantErr) {
				t.Fatalf("gen %d %s→%s: Route gave %v %v @%d, err %v; reference %v %v @%d, err %v",
					v.gen, a.Name, b.Name, r.Path, r.Hops, r.Gen, err, want.Path, want.Hops, want.Gen, wantErr)
			}
			var npe *NoPathError
			switch {
			case err == nil:
				counts.routed++
			case errors.As(err, &npe):
				counts.noPath++
				if npe.ReverseReachable {
					counts.reverseReachable++
				}
			default:
				t.Fatalf("gen %d %s→%s: %v", v.gen, a.Name, b.Name, err)
			}
		}
	}
}

// TestResolveMatchesReference: on every snapshot of the
// TestDeltaMatchesAllPairsOracle mutation streams, the early-exit search
// resolves every ordered pair exactly as the full bfsFrom sweep did.
func TestResolveMatchesReference(t *testing.T) {
	var counts routeCounts
	mutationStream(t, func(seed int64, step int, before, after Snap) {
		if step == 0 {
			checkRoutesMatchReference(t, before, &counts)
		}
		checkRoutesMatchReference(t, after, &counts)
	})
	t.Logf("pairs routed %d, unconnected %d (reachable in reverse %d)", counts.routed, counts.noPath, counts.reverseReachable)
	if counts.routed == 0 || counts.noPath == 0 || counts.reverseReachable == 0 || counts.reverseReachable == counts.noPath {
		t.Fatalf("the streams miss a case: %+v", counts)
	}
}

// matFor returns the materialization v holds for e's traversal
// direction.
func (v *view) matFor(e *edge) *algebra.Mapping {
	if e.inv {
		return v.inversions[e.m.Name].Mapping
	}
	return v.mappings[e.m.Name]
}

// checkFreezeMatchesReference freezes the entries of next against prev
// with freeze and with freezeRef and compares the listings, the
// schema index and the adjacency edge by edge. Materializations are
// compared by where they come from: both builds must reuse exactly
// prev's for the same mappings, and every edge must carry its own
// view's materialization.
func checkFreezeMatchesReference(t *testing.T, prev, next *view) {
	t.Helper()
	got := (&view{gen: next.gen, schemas: next.schemas, maps: next.maps}).freeze(prev)
	want := (&view{gen: next.gen, schemas: next.schemas, maps: next.maps}).freezeRef(prev)
	if !slices.Equal(got.schemaList, want.schemaList) || !slices.Equal(got.mapList, want.mapList) {
		t.Fatalf("gen %d: listings differ from the reference", next.gen)
	}
	if !maps.Equal(got.schemaIdx, want.schemaIdx) {
		t.Fatalf("gen %d: schemaIdx %v, reference %v", next.gen, got.schemaIdx, want.schemaIdx)
	}
	if prev != nil {
		for _, m := range got.mapList {
			if (got.mappings[m.Name] == prev.mappings[m.Name]) != (want.mappings[m.Name] == prev.mappings[m.Name]) {
				t.Fatalf("gen %d: mapping %s reused differently from the reference", next.gen, m.Name)
			}
		}
	}
	if len(got.edges) != len(want.edges) {
		t.Fatalf("gen %d: %d adjacency lists, reference %d", next.gen, len(got.edges), len(want.edges))
	}
	for h := range got.edges {
		ge, we := got.edges[h], want.edges[h]
		if len(ge) != len(we) {
			t.Fatalf("gen %d node %d: %d edges, reference %d", next.gen, h, len(ge), len(we))
		}
		for i := range ge {
			g, w := &ge[i], &we[i]
			if g.to != w.to || g.m != w.m || g.inv != w.inv || g.mat != got.matFor(g) || w.mat != want.matFor(w) {
				t.Fatalf("gen %d node %d edge %d: %s inv=%v → %d, reference %s inv=%v → %d",
					next.gen, h, i, g.m.Name, g.inv, g.to, w.m.Name, w.inv, w.to)
			}
		}
	}
}

// TestFreezeMatchesReference: on every step of the
// TestDeltaMatchesAllPairsOracle mutation streams, freeze builds the
// listings, schema index and adjacency freezeRef builds, both from the
// previous snapshot and, every tenth step, from none.
func TestFreezeMatchesReference(t *testing.T) {
	mutationStream(t, func(seed int64, step int, before, after Snap) {
		checkFreezeMatchesReference(t, before.v, after.v)
		if step%10 == 0 {
			checkFreezeMatchesReference(t, nil, after.v)
		}
	})
}

// withRouteScratch makes every routeScratchPool.Get in the test return
// s: it drains the pool and installs a New that hands out s. The test
// must not resolve concurrently.
func withRouteScratch(t *testing.T, s *routeScratch) {
	t.Helper()
	old := routeScratchPool.New
	routeScratchPool.New = func() any { return s }
	for routeScratchPool.Get() != s {
	}
	t.Cleanup(func() { routeScratchPool.New = old })
}

// TestRouteScratchEpochWrap: a scratch whose epoch wraps around clears
// its stamps, so marks left by the search 2³² epochs earlier cannot
// pass for discoveries; a scratch smaller than the snapshot grows.
func TestRouteScratchEpochWrap(t *testing.T) {
	c, _ := powerLawCatalogOf(t, 40, 3)
	snap := c.Snap()
	n := len(snap.v.schemaList)
	s := &routeScratch{
		epoch: math.MaxUint32,
		stamp: make([]uint32, n),
		prev:  make([]int32, n),
		via:   make([]int32, n),
		queue: make([]int32, 0, n),
	}
	for i := range s.stamp {
		s.stamp[i] = 1 // every node "discovered" by the search at epoch 1
	}
	pair := servablePairs(snap, rand.New(rand.NewSource(1)), 1)[0]
	withRouteScratch(t, s)
	a, b := pair[0], pair[1]
	want, wantErr := routeRef(snap.v, a, b)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	// The first search wraps the epoch; the second runs at the epoch
	// the stale stamps carry.
	for i := 0; i < 2; i++ {
		r, err := snap.Route(a, b)
		if err != nil || !reflect.DeepEqual(r.Path, want.Path) {
			t.Fatalf("search %d after wrap-around %s→%s: %v, err %v; want %v", i+1, a, b, r.Path, err, want.Path)
		}
	}
	if s.epoch != 2 {
		t.Fatalf("epoch two searches after wrap-around is %d, want 2", s.epoch)
	}

	// A scratch sized for a smaller snapshot grows to this one.
	small := &routeScratch{stamp: make([]uint32, 2), prev: make([]int32, 2), via: make([]int32, 2), queue: make([]int32, 0, 2)}
	withRouteScratch(t, small)
	checkRoutesMatchReference(t, snap, &routeCounts{})
	if len(small.stamp) != n || len(small.prev) != n || len(small.via) != n || cap(small.queue) != n {
		t.Fatalf("scratch did not grow to %d schemas: %d/%d/%d/%d",
			n, len(small.stamp), len(small.prev), len(small.via), cap(small.queue))
	}
}

// TestConcurrentResolveAcrossSnapshotSizes: goroutines resolve at once
// on snapshots of three sizes, so the pooled scratch moves between
// searches over different graphs; every route must match the reference.
// Run with -race.
func TestConcurrentResolveAcrossSnapshotSizes(t *testing.T) {
	type want struct {
		snap     Snap
		from, to string
		path     []string
		noPath   bool
	}
	var wants []want
	for i, n := range []int{12, 90, 600} {
		c, _ := powerLawCatalogOf(t, n, int64(i+1))
		if i == 0 {
			// An isolated schema: pairs with no path too.
			if _, err := c.Apply(mustParse(t, "schema island { I/1; }")); err != nil {
				t.Fatal(err)
			}
		}
		snap := c.Snap()
		rng := rand.New(rand.NewSource(int64(n)))
		names := snap.v.schemaList
		for k := 0; k < 60; k++ {
			a, b := names[rng.Intn(len(names))].Name, names[rng.Intn(len(names))].Name
			if a == b {
				continue
			}
			r, err := routeRef(snap.v, a, b)
			wants = append(wants, want{snap: snap, from: a, to: b, path: r.Path, noPath: err != nil})
		}
	}
	sort.SliceStable(wants, func(i, j int) bool { return wants[i].from < wants[j].from }) // interleave the sizes

	const goroutines, rounds = 4, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for k := range wants {
					w := &wants[(k+g*len(wants)/goroutines)%len(wants)]
					r, err := w.snap.Route(w.from, w.to)
					if (err != nil) != w.noPath || !slices.Equal(r.Path, w.path) {
						t.Errorf("goroutine %d: %s→%s gave %v, err %v; want %v (no path %v)", g, w.from, w.to, r.Path, err, w.path, w.noPath)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
