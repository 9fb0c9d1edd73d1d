package catalog

import (
	"fmt"
	"math/rand"
	"testing"

	"mapcomp/internal/algebra"
	"mapcomp/internal/parser"
)

// benchChainLen is the hop count of the benchmark catalog's main chain.
const benchChainLen = 12

// benchCatalog builds a catalog shaped like a real deployment: a linear
// evolution chain s0→s1→…→sN plus a dead-end branch off every version,
// so path resolution has genuine graph work (parallel candidates to
// reject, adjacency over a few dozen mappings) rather than a two-node
// toy.
func benchCatalog(b *testing.B) *Catalog {
	b.Helper()
	c := New()
	schema := func(name, rel string) {
		sch := algebra.NewSchema()
		sch.Sig[rel] = 2
		if _, err := c.Apply(schemaItem(name, sch)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i <= benchChainLen; i++ {
		schema(fmt.Sprintf("s%d", i), fmt.Sprintf("R%d", i))
		schema(fmt.Sprintf("dead%d", i), fmt.Sprintf("X%d", i))
	}
	for i := 0; i < benchChainLen; i++ {
		cs := parser.MustParseConstraints(fmt.Sprintf("R%d <= R%d", i, i+1))
		if _, err := c.Apply(mappingItem(fmt.Sprintf("m%d", i), fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", i+1), cs)); err != nil {
			b.Fatal(err)
		}
		dead := parser.MustParseConstraints(fmt.Sprintf("R%d <= X%d", i, i))
		if _, err := c.Apply(mappingItem(fmt.Sprintf("d%d", i), fmt.Sprintf("s%d", i), fmt.Sprintf("dead%d", i), dead)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// BenchmarkCatalogReadParallel measures the concurrent read path that
// every compose request takes before ELIMINATE runs: resolve the
// endpoint pair and materialize the mapping chain. Run with -cpu 8 (or
// higher) to measure contention; EXPERIMENTS.md records the mutex
// baseline against the copy-on-write snapshot store.
func BenchmarkCatalogReadParallel(b *testing.B) {
	c := benchCatalog(b)
	from, to := "s0", fmt.Sprintf("s%d", benchChainLen)
	b.Run("route", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := c.Snap().Route(from, to); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("snapshot", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				schemas, maps, _ := c.Snapshot()
				if len(schemas) == 0 || len(maps) == 0 {
					b.Fatal("empty snapshot")
				}
			}
		})
	})
}

// powerLawSchemas is the schema count of catalog_2k, sockbench's scale
// workload.
const powerLawSchemas = 2000

// BenchmarkRoutePowerLaw measures Snap.Route — the catalog stage of
// every cache miss — on catalog_2k's shape: 2,000 power-law schemas,
// over 5,000 servable pairs drawn as sockbench draws its compose
// targets.
func BenchmarkRoutePowerLaw(b *testing.B) {
	c, _ := powerLawCatalogOf(b, powerLawSchemas, 1)
	snap := c.Snap()
	pairs := servablePairs(snap, rand.New(rand.NewSource(2)), 5000)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		p := pairs[i%len(pairs)]
		if _, err := snap.Route(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkApplyPowerLaw measures one publish on catalog_2k's shape as
// sockbench's publisher sends it: one mapping re-registered unchanged
// together with its two endpoint schemas, so Apply validates, installs
// three new revisions and freezes a new 2,000-schema snapshot.
func BenchmarkApplyPowerLaw(b *testing.B) {
	c, p := powerLawCatalogOf(b, powerLawSchemas, 1)
	bodies := make([]*parser.Problem, 0, len(p.MapOrder))
	for _, name := range p.MapOrder {
		m := p.Maps[name]
		bodies = append(bodies, &parser.Problem{
			Schemas:     map[string]*algebra.Schema{m.From: p.Schemas[m.From], m.To: p.Schemas[m.To]},
			SchemaOrder: []string{m.From, m.To},
			Maps:        map[string]*parser.MapDecl{name: m},
			MapOrder:    []string{name},
		})
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := c.Apply(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// TestRouteAllocBound pins the allocations of a servable Snap.Route:
// the route, its path, hops and mappings, and the chain — none per
// schema, so the count is the same at 200 and at 2,000 schemas.
func TestRouteAllocBound(t *testing.T) {
	const maxAllocs = 8
	counts := map[int]float64{}
	for _, n := range []int{200, powerLawSchemas} {
		c, _ := powerLawCatalogOf(t, n, 1)
		snap := c.Snap()
		pairs := servablePairs(snap, rand.New(rand.NewSource(2)), 50)
		i := 0
		counts[n] = testing.AllocsPerRun(1000, func() {
			p := pairs[i%len(pairs)]
			if _, err := snap.Route(p[0], p[1]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if counts[n] > maxAllocs {
			t.Errorf("Snap.Route at %d schemas makes %.0f allocations, bound is %d", n, counts[n], maxAllocs)
		}
	}
	if counts[200] != counts[powerLawSchemas] {
		t.Errorf("Snap.Route allocations grow with the catalog: %.0f at 200 schemas, %.0f at %d", counts[200], counts[powerLawSchemas], powerLawSchemas)
	}
}
