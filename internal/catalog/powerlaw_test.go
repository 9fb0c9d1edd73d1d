package catalog

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mapcomp/internal/parser"
)

// powerLawCatalog builds a connected catalog of len(label)
// single-relation schemas by preferential attachment (each new schema
// links to an existing one drawn with probability proportional to
// degree+1, in a random direction) plus n/5 extra edges with one
// endpoint drawn the same way. Two of every three mappings are
// invertible permutation equalities, the rest forward-only
// containments. Schema i is named after label[i]. It is the generator
// of sockbench's publish_mix and catalog_2k catalogs, which lives in a
// separate module's main package and so cannot be imported.
func powerLawCatalog(rng *rand.Rand, label []int) (*parser.Problem, error) {
	n := len(label)
	type edge struct{ from, to int }
	var edges []edge
	seen := make(map[[2]int]bool)
	// pool holds every schema once plus once per incident edge, so a
	// uniform draw from it weights schemas by degree+1.
	pool := []int{0}
	link := func(u, v int) bool {
		key := [2]int{min(u, v), max(u, v)}
		if u == v || seen[key] {
			return false
		}
		seen[key] = true
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		edges = append(edges, edge{u, v})
		pool = append(pool, u, v)
		return true
	}
	for i := 1; i < n; i++ {
		link(i, pool[rng.Intn(len(pool))])
		pool = append(pool, i)
	}
	for extra := n / 5; extra > 0; {
		if link(rng.Intn(n), pool[rng.Intn(len(pool))]) {
			extra--
		}
	}
	var b strings.Builder
	for _, l := range label {
		fmt.Fprintf(&b, "schema p%[1]d { P%[1]d/2; }\n", l)
	}
	for k, e := range edges {
		from, to := label[e.from], label[e.to]
		if rng.Intn(3) < 2 {
			fmt.Fprintf(&b, "map e%d : p%d -> p%d { proj[2,1](P%d) = P%d; }\n", k, from, to, from, to)
		} else {
			fmt.Fprintf(&b, "map e%d : p%d -> p%d { P%d <= P%d; }\n", k, from, to, from, to)
		}
	}
	p, err := parser.Parse(b.String())
	if err != nil {
		return nil, err
	}
	return p, parser.Validate(p)
}

// powerLawCatalogOf registers an n-schema powerLawCatalog drawn from
// seed in a fresh catalog, in one Apply as mapcompd's set-up does, and
// returns the catalog with the problem it applied.
func powerLawCatalogOf(tb testing.TB, n int, seed int64) (*Catalog, *parser.Problem) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := powerLawCatalog(rng, rng.Perm(n))
	if err != nil {
		tb.Fatal(err)
	}
	c := New()
	if _, err := c.Apply(p); err != nil {
		tb.Fatal(err)
	}
	return c, p
}

// servablePairs draws n distinct ordered pairs uniformly from snap's
// schemas that Route serves, as sockbench samples its compose targets.
func servablePairs(snap Snap, rng *rand.Rand, n int) [][2]string {
	schemas := snap.v.schemaList
	seen := make(map[[2]string]bool, n)
	out := make([][2]string, 0, n)
	for len(out) < n {
		p := [2]string{schemas[rng.Intn(len(schemas))].Name, schemas[rng.Intn(len(schemas))].Name}
		if p[0] == p[1] || seen[p] {
			continue
		}
		if _, err := snap.Route(p[0], p[1]); err != nil {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}
