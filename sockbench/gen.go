package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"mapcomp/internal/algebra"
	"mapcomp/internal/catalog"
	"mapcomp/internal/core"
	"mapcomp/internal/evolution"
	"mapcomp/internal/parser"
)

// workloadNames lists the workloads in the order an all-workload run
// executes them.
var workloadNames = []string{"hot_read", "evolve_miss", "publish_mix", "catalog_2k"}

// Generator sizes. See the package documentation for why each workload
// has the shape it has.
const (
	clusters = 150 // hot_read: disjoint 3-schema clusters

	lineages      = 40 // evolve_miss: independent edit histories
	versions      = 32 // schema versions per lineage (31 edit mappings)
	schemaSize    = 30 // relations in each lineage's first version (§4.1)
	evolvePairs   = 2000
	evolveCacheMB = 1 // -cache-bytes for evolve_miss, in MiB: a steady-state hit rate of 0.1-0.3

	powerLawPairs = 5000 // publish_mix, catalog_2k: read-client pair sample
	scaleCacheMB  = 2    // -cache-bytes for catalog_2k, in MiB: a steady-state hit rate of 0.1-0.3

	defaultCacheMB = 64
)

// workload is one generated catalog plus the closed-loop traffic run
// against it. Everything here is a pure function of the seed.
type workload struct {
	name string
	text string // the catalog as a task file, registered in one request during set-up
	prob *parser.Problem

	pairs   [][2]string // compose targets, shuffled by the seed
	zipf    bool        // Zipf(1.1) over pairs, else uniform
	readers int         // closed-loop compose clients
	// readsPerPublish paces the publisher by the readers: a publish is
	// due after every readsPerPublish reads. Counting reads rather than
	// time keeps the invalidations per read, and with them the hit
	// rate, independent of how fast the host, the reads or the
	// publishes are. Zero means no publisher runs during the timed
	// phase; probe back-to-back publishes follow it instead.
	readsPerPublish int
	probe           int
	warm            bool // set-up restarts mapcompd with -warm after registering
	allHits         bool // every timed compose must be a cache hit
	cacheBytes      int64

	ref   *reference
	notes notes
}

// notes describe a generated workload for the calibration record.
type notes struct {
	Schemas  int            `json:"schemas"`
	Mappings int            `json:"mappings"`
	Pairs    int            `json:"pairs"`
	Hops     map[string]int `json:"hop_histogram"`
	Degree   map[string]int `json:"degree_histogram"`
	// FracEliminated is the mean eliminated/attempted over the pairs
	// whose composition attempted any elimination (Figure 2's quantity).
	FracEliminated float64 `json:"frac_eliminated"`
}

// reference is the in-process oracle: the generated catalog applied to a
// fresh catalog.Catalog, and for each compose target the outcome every
// response must carry.
type reference struct {
	cat  *catalog.Catalog
	want []expect // parallel to workload.pairs
}

type expect struct {
	needle                []byte // `"fingerprint":"%016x"` as it appears in the response body
	hops                  int
	attempted, eliminated int
}

// shapeSeed fixes the topology of the power-law catalogs and the edits
// of the lineages. The run seed relabels their schemas and draws the
// compose targets, request streams and publishes, so every seed
// measures the same amount of work: graph shape alone moves publish
// cost by 2x between seeds, which would hide any regression.
const shapeSeed = 1

// subSeed derives an independent stream seed from the workload seed.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

// buildWorkload generates the named workload for seed and computes its
// reference outcomes. Nothing in here is timed.
func buildWorkload(ctx context.Context, name string, seed int64) (*workload, error) {
	w, err := generate(name, seed)
	if err != nil {
		return nil, err
	}
	if err := w.reference(ctx); err != nil {
		return nil, fmt.Errorf("%s: reference: %w", name, err)
	}
	return w, nil
}

// generate builds the workload's catalog, applies it to the reference
// catalog and picks its compose targets.
func generate(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(shapeSeed))
	w := &workload{name: name, cacheBytes: defaultCacheMB << 20, probe: 40}
	var (
		prob   *parser.Problem
		groups [][]string // schema groups whose ordered pairs are all candidates
		sample int        // 0 = every servable candidate pair
		err    error
	)
	switch name {
	case "hot_read":
		prob, groups, err = clusterCatalog(rng)
		w.zipf, w.readers, w.warm, w.allHits = true, 2, true, true
	case "evolve_miss":
		prob, groups, err = lineageCatalog(shape, rng.Perm(lineages))
		sample = evolvePairs
		w.readers, w.cacheBytes = 2, evolveCacheMB<<20
	case "publish_mix":
		prob, err = powerLawCatalog(shape, rng.Perm(600))
		w.zipf, w.readers, w.readsPerPublish = true, 1, 2000
	case "catalog_2k":
		prob, err = powerLawCatalog(shape, rng.Perm(2000))
		// On a 2-vCPU VM a publish at this size runs ComputeDelta for 1-2.6
		// s on one CPU; beside concurrent reads, how many reads waited
		// behind it followed the host's speed (read p99 spread 0.33 over
		// ten seeds). publish_mix covers reads beside publishes. A second
		// reader doubled p99 and p999 and added only a quarter to the
		// throughput.
		w.readers, w.probe, w.cacheBytes = 1, 5, scaleCacheMB<<20
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, err
	}
	// The oracle parses the rendered text, exactly as mapcompd will.
	w.text = parser.Format(prob)
	if w.prob, err = parseTask(w.text); err != nil {
		return nil, fmt.Errorf("%s: generated catalog: %w", name, err)
	}
	cat := catalog.New()
	if _, err := cat.Apply(w.prob); err != nil {
		return nil, fmt.Errorf("%s: generated catalog: %w", name, err)
	}
	snap := cat.Snap()
	if groups != nil {
		w.pairs = groupPairs(snap, groups)
		rng.Shuffle(len(w.pairs), func(i, j int) { w.pairs[i], w.pairs[j] = w.pairs[j], w.pairs[i] })
		if sample > 0 && sample < len(w.pairs) {
			w.pairs = w.pairs[:sample]
		}
	} else {
		w.pairs = samplePairs(snap, rng, w.prob.SchemaOrder, powerLawPairs)
	}
	w.ref = &reference{cat: cat}
	return w, nil
}

// reference composes every compose target in process
// (Snap.Route → core.ComposeChain) on all CPUs, recording the outcome
// each response must carry, and summarises the workload.
func (w *workload) reference(ctx context.Context) error {
	snap := w.ref.cat.Snap()
	want := make([]expect, len(w.pairs))
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(w.pairs) && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				p := w.pairs[i]
				r, err := snap.Route(p[0], p[1])
				var res *core.Result
				if err == nil {
					res, err = core.ComposeChain(ctx, r.Mappings(), core.DefaultConfig())
				}
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("%s→%s: %w", p[0], p[1], err) })
					return
				}
				want[i] = expect{
					needle:     fmt.Appendf(nil, `"fingerprint":"%016x"`, res.Constraints.Fingerprint()),
					hops:       len(r.Path),
					attempted:  res.Stats.Attempted,
					eliminated: res.Stats.Eliminated,
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	w.ref.want = want
	w.notes = describe(w)
	return firstErr
}

// parseTask parses and validates a task file.
func parseTask(src string) (*parser.Problem, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return p, parser.Validate(p)
}

// clusterCatalog builds 150 disjoint clusters a→b→c. Two of every three
// use invertible permutation equalities, so their reverse pairs are
// served over derived inverses; the seed picks which 50 use forward-only
// containments. 450 schemas, 300 mappings, 750 servable ordered pairs.
func clusterCatalog(rng *rand.Rand) (*parser.Problem, [][]string, error) {
	containment := make(map[int]bool, clusters/3)
	for _, i := range rng.Perm(clusters)[:clusters/3] {
		containment[i] = true
	}
	var b strings.Builder
	groups := make([][]string, clusters)
	for i := 0; i < clusters; i++ {
		fmt.Fprintf(&b, "schema c%[1]da { A%[1]d/2; }\nschema c%[1]db { B%[1]d/2; }\nschema c%[1]dc { C%[1]d/2; }\n", i)
		if containment[i] {
			fmt.Fprintf(&b, "map m%[1]dab : c%[1]da -> c%[1]db { A%[1]d <= B%[1]d; }\nmap m%[1]dbc : c%[1]db -> c%[1]dc { B%[1]d <= C%[1]d; }\n", i)
		} else {
			fmt.Fprintf(&b, "map m%[1]dab : c%[1]da -> c%[1]db { proj[2,1](A%[1]d) = B%[1]d; }\nmap m%[1]dbc : c%[1]db -> c%[1]dc { B%[1]d = C%[1]d; }\n", i)
		}
		groups[i] = []string{fmt.Sprintf("c%da", i), fmt.Sprintf("c%db", i), fmt.Sprintf("c%dc", i)}
	}
	p, err := parseTask(b.String())
	return p, groups, err
}

// lineageCatalog builds 40 lineages of 32 schema versions: each lineage
// starts from evolution.RandomSchema and each later version applies one
// evolution.Apply edit drawn from the §4.1 default event vector (no
// keys), linked to its predecessor by the edit's mapping. Lineage l is
// named after label[l]. The normalization primitives are left out:
// their constraints use the join operator, which mapcompd does not
// register, so it rejects them.
func lineageCatalog(rng *rand.Rand, label []int) (*parser.Problem, [][]string, error) {
	p := &parser.Problem{Schemas: map[string]*algebra.Schema{}, Maps: map[string]*parser.MapDecl{}}
	vec := evolution.DefaultVector(false)
	delete(vec, evolution.N)
	delete(vec, evolution.Nf)
	delete(vec, evolution.Nb)
	groups := make([][]string, lineages)
	for l := 0; l < lineages; l++ {
		par := evolution.DefaultParams(false)
		cur := evolution.RandomSchema(schemaSize, par, rng)
		prev := fmt.Sprintf("l%dv0", label[l])
		p.Schemas[prev], p.SchemaOrder = cur, append(p.SchemaOrder, prev)
		groups[l] = append(groups[l], prev)
		for v := 1; v < versions; v++ {
			var next *algebra.Schema
			var edit *evolution.Edit
			for ok := false; !ok; {
				next = cur.Clone()
				edit, ok = evolution.Apply(vec.Sample(rng), next, par, rng)
			}
			name := fmt.Sprintf("l%dv%d", label[l], v)
			m := fmt.Sprintf("l%de%d", label[l], v)
			p.Schemas[name], p.SchemaOrder = next, append(p.SchemaOrder, name)
			p.Maps[m] = &parser.MapDecl{Name: m, From: prev, To: name, Constraints: edit.Constraints}
			p.MapOrder = append(p.MapOrder, m)
			groups[l] = append(groups[l], name)
			cur, prev = next, name
		}
	}
	return p, groups, parser.Validate(p)
}

// powerLawCatalog builds a connected catalog of len(label)
// single-relation schemas by preferential attachment (each new schema
// links to an existing one drawn with probability proportional to
// degree+1, in a random direction) plus n/5 extra edges with one
// endpoint drawn the same way. Two of every three mappings are
// invertible permutation equalities, the rest forward-only
// containments. Schema i is named after label[i].
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
	return parseTask(b.String())
}

// groupPairs lists every servable ordered pair inside each group.
func groupPairs(snap catalog.Snap, groups [][]string) [][2]string {
	var out [][2]string
	for _, g := range groups {
		for _, a := range g {
			for _, b := range g {
				if a != b && servable(snap, a, b) {
					out = append(out, [2]string{a, b})
				}
			}
		}
	}
	return out
}

// samplePairs draws n distinct servable ordered pairs uniformly from the
// catalog's schemas.
func samplePairs(snap catalog.Snap, rng *rand.Rand, schemas []string, n int) [][2]string {
	seen := make(map[[2]string]bool, n)
	out := make([][2]string, 0, n)
	for len(out) < n {
		p := [2]string{schemas[rng.Intn(len(schemas))], schemas[rng.Intn(len(schemas))]}
		if p[0] == p[1] || seen[p] || !servable(snap, p[0], p[1]) {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

func servable(snap catalog.Snap, from, to string) bool {
	_, err := snap.Route(from, to)
	return err == nil
}

// describe summarises a workload: sizes, the hop-depth histogram of its
// compose targets, the schema degree histogram (power-of-two buckets) and
// the reference elimination fraction.
func describe(w *workload) notes {
	n := notes{
		Schemas: len(w.prob.SchemaOrder), Mappings: len(w.prob.MapOrder), Pairs: len(w.pairs),
		Hops: map[string]int{}, Degree: map[string]int{},
	}
	var frac float64
	var tried int
	for _, e := range w.ref.want {
		n.Hops[fmt.Sprint(e.hops)]++
		if e.attempted > 0 {
			frac += float64(e.eliminated) / float64(e.attempted)
			tried++
		}
	}
	if tried > 0 {
		n.FracEliminated = frac / float64(tried)
	}
	deg := make(map[string]int, len(w.prob.SchemaOrder))
	for _, m := range w.prob.Maps {
		deg[m.From]++
		deg[m.To]++
	}
	for _, s := range w.prob.SchemaOrder {
		lo := 1
		for lo*2 <= deg[s] {
			lo *= 2
		}
		n.Degree[fmt.Sprintf("%d-%d", lo, 2*lo-1)]++
	}
	return n
}

// publishBody renders the task file that re-registers mapping name
// together with its two endpoint schemas, unchanged.
func (w *workload) publishBody(name string) string {
	m := w.prob.Maps[name]
	return parser.Format(&parser.Problem{
		Schemas:     map[string]*algebra.Schema{m.From: w.prob.Schemas[m.From], m.To: w.prob.Schemas[m.To]},
		SchemaOrder: []string{m.From, m.To},
		Maps:        map[string]*parser.MapDecl{name: m},
		MapOrder:    []string{name},
	})
}
