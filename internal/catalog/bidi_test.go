package catalog

// Tests for the bidirectional mapping graph: derived-inverse edge
// resolution and provenance, forward preference at equal hop count, the
// hand-written-inverse oracle (byte-equivalence of the derived reverse
// composition), the enriched no-path error, delta invalidation of both
// directions, graph statistics, and the -race hammer of concurrent
// registrations against bidirectional Route reads.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mapcomp/internal/core"
)

// evolutionTask is a three-version schema-evolution chain whose both
// hops are invertible equalities: v1 —e1→ v2 —e2→ v3. The permutation
// projection on e1 exercises the non-trivial invertible shape.
const evolutionTask = `
schema v1 { Emp/2; }
schema v2 { EmpD/2; }
schema v3 { Staff/2; }
map e1 : v1 -> v2 { proj[2,1](Emp) = EmpD; }
map e2 : v2 -> v3 { EmpD = Staff; }
`

// evolutionInverseTask is the hand-written inverse chain: the same
// constraints verbatim, registered in the opposite direction.
const evolutionInverseTask = `
schema v1 { Emp/2; }
schema v2 { EmpD/2; }
schema v3 { Staff/2; }
map r2 : v3 -> v2 { EmpD = Staff; }
map r1 : v2 -> v1 { proj[2,1](Emp) = EmpD; }
`

func evolutionCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if _, err := c.Apply(mustParse(t, evolutionTask)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBidirectionalChainResolution resolves the reverse pair v3→v1
// through derived inverses only: the chain rides e2 then e1 backwards,
// every hop carries derived-inverse provenance, and the materialized
// mappings are the inversions' (input/output signatures swapped).
func TestBidirectionalChainResolution(t *testing.T) {
	c := evolutionCatalog(t)

	route, err := c.Snap().Route("v3", "v1")
	if err != nil {
		t.Fatalf("reverse route: %v", err)
	}
	if fmt.Sprint(route.Path) != "[e2 e1]" {
		t.Fatalf("reverse path = %v, want [e2 e1]", route.Path)
	}
	ms := route.Mappings()
	if len(ms) != 2 || ms[0] == nil || ms[1] == nil {
		t.Fatalf("reverse chain mappings = %v", ms)
	}
	// The first hop composes e2 backwards: input signature is v3's.
	if _, ok := ms[0].In["Staff"]; !ok {
		t.Fatalf("first reverse hop input = %v, want Staff", ms[0].In)
	}
	if _, ok := ms[1].Out["Emp"]; !ok {
		t.Fatalf("last reverse hop output = %v, want Emp", ms[1].Out)
	}
	want := []Hop{
		{Mapping: "e2", From: "v3", To: "v2", Prov: ProvDerivedInverse},
		{Mapping: "e1", From: "v2", To: "v1", Prov: ProvDerivedInverse},
	}
	if fmt.Sprint(route.Hops) != fmt.Sprint(want) {
		t.Fatalf("reverse hops = %+v, want %+v", route.Hops, want)
	}

	// Forward direction still reports registered provenance.
	route, err = c.Snap().Route("v1", "v3")
	if err != nil {
		t.Fatalf("forward route: %v", err)
	}
	for _, h := range route.Hops {
		if h.Prov != ProvRegistered {
			t.Fatalf("forward hop %+v not registered", h)
		}
	}
}

// TestMixedDirectionRoute reaches a target through one forward and one
// derived hop: with w —f→ v2 registered and e1: v1→v2 invertible, the
// pair w→v1 resolves as [f forward, e1 backward].
func TestMixedDirectionRoute(t *testing.T) {
	c := evolutionCatalog(t)
	if _, err := c.Apply(mustParse(t, `
schema w { W/2; }
schema v2 { EmpD/2; }
map f : w -> v2 { W <= EmpD; }
`)); err != nil {
		t.Fatal(err)
	}
	route, err := c.Snap().Route("w", "v1")
	if err != nil {
		t.Fatalf("mixed route: %v", err)
	}
	want := []Hop{
		{Mapping: "f", From: "w", To: "v2", Prov: ProvRegistered},
		{Mapping: "e1", From: "v2", To: "v1", Prov: ProvDerivedInverse},
	}
	if fmt.Sprint(route.Hops) != fmt.Sprint(want) {
		t.Fatalf("mixed hops = %+v, want %+v", route.Hops, want)
	}
}

// TestForwardEdgePreferredAtEqualHops: when a pair is reachable in one
// hop both through a registered mapping and through a derived inverse,
// the registered edge wins — even when the inverse-bearing mapping
// sorts first by name.
func TestForwardEdgePreferredAtEqualHops(t *testing.T) {
	c := New()
	if _, err := c.Apply(mustParse(t, `
schema a { P/2; }
schema b { Q/2; }
map a_backward : b -> a { P = Q; }
map z_forward  : a -> b { P <= Q; }
`)); err != nil {
		t.Fatal(err)
	}
	route, err := c.Snap().Route("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Hops) != 1 || route.Hops[0].Mapping != "z_forward" || route.Hops[0].Prov != ProvRegistered {
		t.Fatalf("equal-hop route took %+v, want registered z_forward", route.Hops)
	}
	// The reverse pair prefers the registered direction of a_backward.
	route, err = c.Snap().Route("b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Hops) != 1 || route.Hops[0].Mapping != "a_backward" || route.Hops[0].Prov != ProvRegistered {
		t.Fatalf("reverse equal-hop route took %+v, want registered a_backward", route.Hops)
	}
}

// TestDerivedChainMatchesHandWrittenInverseOracle is the acceptance
// oracle: composing v3→v1 through derived inverses must produce the
// same result — signature, constraint text, fingerprint, eliminations —
// as a catalog where a human registered the inverse chain by hand
// (identical constraints, swapped direction).
func TestDerivedChainMatchesHandWrittenInverseOracle(t *testing.T) {
	derived := evolutionCatalog(t)
	oracle := New()
	if _, err := oracle.Apply(mustParse(t, evolutionInverseTask)); err != nil {
		t.Fatal(err)
	}

	got, gotRoute, err := compose(context.Background(), derived.Snap(), "v3", "v1")
	if err != nil {
		t.Fatalf("derived compose: %v", err)
	}
	want, wantRoute, err := compose(context.Background(), oracle.Snap(), "v3", "v1")
	if err != nil {
		t.Fatalf("oracle compose: %v", err)
	}
	if fmt.Sprint(gotRoute.Path) != "[e2 e1]" || fmt.Sprint(wantRoute.Path) != "[r2 r1]" {
		t.Fatalf("paths = %v / %v", gotRoute.Path, wantRoute.Path)
	}
	if fmt.Sprint(got.Sig) != fmt.Sprint(want.Sig) {
		t.Fatalf("signatures differ: %v vs %v", got.Sig, want.Sig)
	}
	if got.Constraints.String() != want.Constraints.String() {
		t.Fatalf("constraints differ:\n%s\nvs\n%s", got.Constraints, want.Constraints)
	}
	if gf, wf := got.Constraints.Fingerprint(), want.Constraints.Fingerprint(); gf != wf {
		t.Fatalf("fingerprints differ: %x vs %x", gf, wf)
	}
	if fmt.Sprint(got.Remaining) != fmt.Sprint(want.Remaining) {
		t.Fatalf("remaining differ: %v vs %v", got.Remaining, want.Remaining)
	}
	if fmt.Sprint(got.Eliminated) != fmt.Sprint(want.Eliminated) {
		t.Fatalf("eliminations differ: %v vs %v", got.Eliminated, want.Eliminated)
	}
}

// TestNoPathReverseHint pins the enriched failure: a pair unreachable
// forward but connected by a non-invertible registered mapping reports
// ReverseReachable plus the blocking mapping; a genuinely disconnected
// pair reports neither.
func TestNoPathReverseHint(t *testing.T) {
	c := New()
	if _, err := c.Apply(mustParse(t, `
schema a { P/2; }
schema b { Q/2; }
schema island { I/1; }
map m : a -> b { P <= Q; }
`)); err != nil {
		t.Fatal(err)
	}

	_, err := c.Snap().Route("b", "a")
	var npe *NoPathError
	if !errors.As(err, &npe) {
		t.Fatalf("err = %v, want NoPathError", err)
	}
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("NoPathError does not unwrap to ErrNoPath: %v", err)
	}
	if !npe.ReverseReachable || fmt.Sprint(npe.Blocking) != "[m]" {
		t.Fatalf("hint = reachable=%v blocking=%v, want reachable via [m]", npe.ReverseReachable, npe.Blocking)
	}

	_, err = c.Snap().Route("a", "island")
	if !errors.As(err, &npe) {
		t.Fatalf("err = %v, want NoPathError", err)
	}
	if npe.ReverseReachable || len(npe.Blocking) != 0 {
		t.Fatalf("disconnected pair reported reverse reachability: %+v", npe)
	}
}

// TestDeltaInvalidatesBothDirections: republishing an invertible
// mapping must invalidate the forward AND the reverse pair; an
// unrelated registration must invalidate neither.
func TestDeltaInvalidatesBothDirections(t *testing.T) {
	c := evolutionCatalog(t)
	before := c.Snap()

	// Unrelated mutation: every bidirectional route survives.
	if _, err := c.Apply(schemaItem("noise", schemaOf(t, "noise"))); err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(before, c.Snap())
	for _, p := range [][2]string{{"v1", "v3"}, {"v3", "v1"}, {"v2", "v1"}, {"v3", "v2"}} {
		if d.Invalidated(routeOf(t, before, p[0], p[1])) {
			t.Fatalf("unrelated mutation invalidated %v", p)
		}
	}

	// Republish e1 (same text — still a new revision): both directions
	// of every route using it must invalidate; e2-only routes survive.
	before = c.Snap()
	if _, err := c.Apply(mustParse(t, evolutionTask)); err != nil {
		t.Fatal(err)
	}
	d = ComputeDelta(before, c.Snap())
	for _, p := range [][2]string{{"v1", "v2"}, {"v2", "v1"}, {"v1", "v3"}, {"v3", "v1"}} {
		if !d.Invalidated(routeOf(t, before, p[0], p[1])) {
			t.Fatalf("republish of e1+e2 did not invalidate %v; delta %+v", p, d)
		}
	}

	// Republish only e1 as a one-item Apply: v2↔v3 survives, v1↔v2 dies.
	before = c.Snap()
	e1cs, _ := c.Mapping("e1")
	if _, err := c.Apply(mappingItem("e1", "v1", "v2", e1cs.Constraints)); err != nil {
		t.Fatal(err)
	}
	d = ComputeDelta(before, c.Snap())
	for _, p := range [][2]string{{"v1", "v2"}, {"v2", "v1"}} {
		if !d.Invalidated(routeOf(t, before, p[0], p[1])) {
			t.Fatalf("republish of e1 did not invalidate %v", p)
		}
	}
	for _, p := range [][2]string{{"v2", "v3"}, {"v3", "v2"}} {
		if d.Invalidated(routeOf(t, before, p[0], p[1])) {
			t.Fatalf("republish of e1 spuriously invalidated %v", p)
		}
	}
}

// TestGraphStats checks the snapshot statistics on a catalog with two
// invertible mappings and one containment: edge counts by provenance,
// the verdict tally, the reachability multiplier, and the Pairs sweep
// behind ReachablePairs.
func TestGraphStats(t *testing.T) {
	c := evolutionCatalog(t)
	if _, err := c.Apply(mustParse(t, `
schema z { Z/2; }
schema v3 { Staff/2; }
map cz : v3 -> z { Staff <= Z; }
`)); err != nil {
		t.Fatal(err)
	}
	snap := c.Snap()
	gs := snap.GraphStats()
	if gs.Schemas != 4 || gs.Mappings != 3 {
		t.Fatalf("schemas/mappings = %d/%d, want 4/3", gs.Schemas, gs.Mappings)
	}
	if gs.RegisteredEdges != 3 || gs.DerivedEdges != 2 || gs.InvertibleMappings != 2 {
		t.Fatalf("edges = %d reg, %d derived, %d invertible; want 3/2/2",
			gs.RegisteredEdges, gs.DerivedEdges, gs.InvertibleMappings)
	}
	if gs.Verdicts["ok"] != 2 || gs.Verdicts[string(core.ReasonContainment)] != 1 {
		t.Fatalf("verdicts = %v", gs.Verdicts)
	}
	// Forward: v1→{v2,v3,z}, v2→{v3,z}, v3→{z} = 6 ordered pairs.
	// Full graph: v1↔v2↔v3 all 6 pairs + z reachable from each = 9,
	// z reaches nothing.
	if gs.ForwardReachablePairs != 6 || gs.ReachablePairs != 9 {
		t.Fatalf("reachable pairs = %d full / %d forward, want 9/6",
			gs.ReachablePairs, gs.ForwardReachablePairs)
	}
	// Pairs sweeps the same pairs, sources and targets in name order.
	var pairs []string
	for a, b := range snap.Pairs() {
		pairs = append(pairs, a+">"+b)
	}
	if got := strings.Join(pairs, " "); got != "v1>v2 v1>v3 v1>z v2>v1 v2>v3 v2>z v3>v1 v3>v2 v3>z" {
		t.Fatalf("Pairs = %s", got)
	}
	// Cached: same snapshot returns the same pointer.
	if snap.GraphStats() != gs {
		t.Fatal("GraphStats not cached on the snapshot")
	}
}

// TestConcurrentRegisterAndBidirectionalChain is the -race hammer:
// registration storms (republishes that re-derive inverse edges) racing
// bidirectional Route reads and GraphStats sweeps. Every read must see
// a consistent snapshot: a successful route has materialized mappings
// for every hop and a generation that never decreases per goroutine.
func TestConcurrentRegisterAndBidirectionalChain(t *testing.T) {
	c := evolutionCatalog(t)
	const writers, readers, iters = 2, 4, 300

	var wgW, wgR sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(w int) {
			defer wgW.Done()
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					if _, err := c.Apply(mustParse(t, evolutionTask)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				} else {
					task := fmt.Sprintf("schema noise%d_%d { N/1; }", w, i)
					if _, err := c.Apply(mustParse(t, task)); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	pairsToRead := [][2]string{{"v1", "v3"}, {"v3", "v1"}, {"v2", "v1"}, {"v1", "v2"}}
	for r := 0; r < readers; r++ {
		wgR.Add(1)
		go func(r int) {
			defer wgR.Done()
			var lastGen uint64
			for i := 0; !stop.Load(); i++ {
				p := pairsToRead[i%len(pairsToRead)]
				snap := c.Snap()
				route, err := snap.Route(p[0], p[1])
				if err != nil {
					t.Errorf("reader %d: route %v: %v", r, p, err)
					return
				}
				ms := route.Mappings()
				if len(ms) != len(route.Path) {
					t.Errorf("reader %d: %d mappings for %d names", r, len(ms), len(route.Path))
					return
				}
				for _, m := range ms {
					if m == nil {
						t.Errorf("reader %d: nil mapping in route %v", r, route.Path)
						return
					}
				}
				gen := snap.Generation()
				if gen < lastGen {
					t.Errorf("reader %d: generation went backwards %d -> %d", r, lastGen, gen)
					return
				}
				lastGen = gen
				if i%32 == 0 {
					gs := snap.GraphStats()
					if gs.DerivedEdges > gs.RegisteredEdges {
						t.Errorf("reader %d: %d derived edges for %d registered", r, gs.DerivedEdges, gs.RegisteredEdges)
						return
					}
				}
			}
		}(r)
	}
	// Writers are bounded; readers spin until the writers finish.
	wgW.Wait()
	stop.Store(true)
	wgR.Wait()
}
