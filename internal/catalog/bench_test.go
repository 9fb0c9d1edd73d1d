package catalog

import (
	"fmt"
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
