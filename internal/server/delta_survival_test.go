package server

// Tests for generation-delta cache survival: the equivalence property
// test (delta-invalidated cache ≡ full recompute, byte for byte), the
// mixed-workload survival floors, the default cache bound, the -race
// migration hammer (registration storm against saturated reads,
// counter identity per publish) and Warm: its skip of surviving
// entries, and its pair sweep at catalog shape.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"mapcomp/internal/parser"
)

// clusterTask renders a self-contained registration body for cluster i:
// a three-schema chain c<i>a → c<i>b → c<i>c. Re-registering the body
// bumps the cluster's schema and mapping revisions, invalidating
// exactly the cluster's routes and nothing else. Odd clusters use
// invertible permutation equalities, so their reverse pairs resolve
// through derived-inverse edges; even clusters keep the historical
// containments (forward-only), so both graph shapes are always in play.
func clusterTask(i int) string {
	op := "<="
	lhs := "A%d"
	if i%2 == 1 {
		op = "="
		lhs = "proj[2,1](A%d)"
	}
	body := `
schema c%da { A%d/2; }
schema c%db { B%d/2; }
schema c%dc { C%d/2; }
map m%dab : c%da -> c%db { ` + lhs + ` ` + op + ` B%d; }
map m%dbc : c%db -> c%dc { B%d ` + op + ` C%d; }
`
	return fmt.Sprintf(body, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i, i)
}

// clusterPairs are the forward-connected ordered pairs inside one
// cluster — resolvable in every cluster regardless of invertibility.
func clusterPairs(i int) [][2]string {
	a, b, c := fmt.Sprintf("c%da", i), fmt.Sprintf("c%db", i), fmt.Sprintf("c%dc", i)
	return [][2]string{{a, b}, {b, c}, {a, c}}
}

// clusterAllPairs adds the reverse pairs for odd (invertible) clusters,
// where they resolve through derived-inverse edges.
func clusterAllPairs(i int) [][2]string {
	ps := clusterPairs(i)
	if i%2 == 1 {
		for _, p := range clusterPairs(i) {
			ps = append(ps, [2]string{p[1], p[0]})
		}
	}
	return ps
}

// normalizeResponse strips the two legitimately volatile response
// fields — the cached flag and the measured composition durations — and
// re-renders through the canonical encoder. Every other byte (path,
// route generation, key, constraints, fingerprint, eliminations,
// attempt counts) must be identical across a migrated entry, a fresh
// recompute and an entry rebuilt after invalidation.
func normalizeResponse(t *testing.T, rec *httptest.ResponseRecorder) []byte {
	t.Helper()
	resp := decode[ComposeResponse](t, rec)
	resp.Cached = false
	if resp.Result != nil {
		resp.Result.Stats.DurationMS = 0
	}
	b, err := marshalWire(&resp)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	return b
}

// TestDeltaEquivalenceProperty interleaves catalog mutations with
// composes over two servers fed identical mutation streams: one with
// delta invalidation and one with the cache disabled — the
// full-recompute oracle. After every mutation the full pair sweep must
// agree byte-for-byte (modulo the cached flag, measured durations and
// request IDs) on status code and body, so no route-changed pair is
// ever served a stale migrated entry (the oracle recomputes
// everything, every time). A randomized first phase keeps the graph's
// shape (cluster re-registrations, unrelated noise schemas); a
// scripted second phase changes it: shortcut mappings a→c turn
// two-hop routes into one hop, and republishing an invertible
// cluster's first mapping as a containment reroutes or disconnects
// its reverse pairs (404 on both servers) until a later republish
// makes it invertible again. The delta server must also have actually
// survived: it composes each pair once, plus at most the ≤ 6 pairs of
// the cluster each route-changing mutation touched.
func TestDeltaEquivalenceProperty(t *testing.T) {
	const clusters = 6
	delta := New(Config{})
	oracle := newUncachedServer(Config{})
	servers := []*Server{delta, oracle}

	apply := func(body string) {
		t.Helper()
		for _, s := range servers {
			if rec := do(t, s, "POST", "/v1/register", body); rec.Code != http.StatusOK {
				t.Fatalf("register: %d %s", rec.Code, rec.Body)
			}
		}
	}
	// registerMapping republishes (or adds) one mapping between two
	// cluster schemas without touching the schemas themselves, which
	// only a hand-built problem applied through the catalog API can do:
	// a register body must declare them.
	registerMapping := func(name, from, to, fromRel, toRel, body string) {
		t.Helper()
		p, err := parser.Parse(fmt.Sprintf("schema %s { %s/2; }\nschema %s { %s/2; }\nmap %s : %s -> %s { %s; }\n",
			from, fromRel, to, toRel, name, from, to, body))
		if err != nil {
			t.Fatal(err)
		}
		one := &parser.Problem{Maps: map[string]*parser.MapDecl{name: p.Maps[name]}, MapOrder: []string{name}}
		for _, s := range servers {
			if _, err := s.cat.Apply(one); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < clusters; i++ {
		apply(clusterTask(i))
	}

	// The sweep covers the reverse pairs of the invertible clusters too:
	// reverse-direction entries ride derived-inverse edges and must obey
	// the same survival contract — byte-identical to a full recompute,
	// surviving unrelated mutations and dropping when their mapping
	// republishes (freeze re-derives the inverse, so both directions
	// invalidate).
	pairs, notFound := 0, 0
	sweep := func(step string) {
		t.Helper()
		for i := 0; i < clusters; i++ {
			for _, p := range clusterAllPairs(i) {
				body := fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])
				var codes []int
				var got [][]byte
				for _, s := range servers {
					rec := do(t, s, "POST", "/v1/compose", body)
					codes = append(codes, rec.Code)
					switch rec.Code {
					case http.StatusOK:
						got = append(got, normalizeResponse(t, rec))
					case http.StatusNotFound:
						eb := decode[ErrorJSON](t, rec)
						eb.RequestID = ""
						b, err := marshalWire(&eb)
						if err != nil {
							t.Fatalf("normalize: %v", err)
						}
						got = append(got, b)
					default:
						t.Fatalf("%s: compose %s: %d %s", step, body, rec.Code, rec.Body)
					}
				}
				if codes[0] != codes[1] || !bytes.Equal(got[0], got[1]) {
					t.Fatalf("%s: %s: delta cache diverged from full recompute:\ndelta  %d %s\noracle %d %s",
						step, body, codes[0], got[0], codes[1], got[1])
				}
				if codes[0] == http.StatusNotFound {
					notFound++
				}
				if step == "initial" {
					pairs++
				}
			}
		}
	}

	sweep("initial")
	rng := rand.New(rand.NewSource(61))
	routeChanges := 0
	step := func(name string, mutate func()) {
		t.Helper()
		mutate()
		// A few random composes first, so the sweep also compares pairs
		// whose entries were touched at different recencies.
		for k := 0; k < 4; k++ {
			p := clusterPairs(rng.Intn(clusters))[rng.Intn(3)]
			body := fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])
			for _, s := range servers {
				if rec := do(t, s, "POST", "/v1/compose", body); rec.Code != http.StatusOK {
					t.Fatalf("compose %s: %d %s", body, rec.Code, rec.Body)
				}
			}
		}
		sweep(name)
	}

	// Same-shape mutations: mostly cluster re-registrations (route-
	// changing for that cluster), sometimes an unrelated noise schema
	// (route-changing for nothing).
	for i := 0; i < 12; i++ {
		step(fmt.Sprintf("step %d", i), func() {
			if rng.Intn(3) == 0 {
				apply(fmt.Sprintf("schema noise%d { N%d/1; }", i, i))
				return
			}
			apply(clusterTask(rng.Intn(clusters)))
			routeChanges++
		})
	}

	// Shape changes, each touching one cluster. A shortcut m<i>ac is
	// invertible on odd clusters, like the rest of the cluster.
	shortcut := func(i int) func() {
		return func() {
			body := fmt.Sprintf("A%d <= C%d", i, i)
			if i%2 == 1 {
				body = fmt.Sprintf("proj[2,1](A%d) = C%d", i, i)
			}
			registerMapping(fmt.Sprintf("m%dac", i), fmt.Sprintf("c%da", i), fmt.Sprintf("c%dc", i),
				fmt.Sprintf("A%d", i), fmt.Sprintf("C%d", i), body)
			routeChanges++
		}
	}
	// flip republishes an odd cluster's m<i>ab as a containment or back
	// as an invertible equality, removing or restoring its derived
	// inverse edge.
	flip := func(i int, invertible bool) func() {
		return func() {
			body := fmt.Sprintf("A%d <= B%d", i, i)
			if invertible {
				body = fmt.Sprintf("proj[2,1](A%d) = B%d", i, i)
			}
			registerMapping(fmt.Sprintf("m%dab", i), fmt.Sprintf("c%da", i), fmt.Sprintf("c%db", i),
				fmt.Sprintf("A%d", i), fmt.Sprintf("B%d", i), body)
			routeChanges++
		}
	}
	for _, sc := range []struct {
		name   string
		mutate func()
	}{
		// c1a→c1c and c1c→c1a go from two hops to one.
		{"shortcut c1", shortcut(1)},
		{"shortcut c2", shortcut(2)},
		// c1b→c1a loses its inverse edge and reroutes through c1c.
		{"containment m1ab", flip(1, false)},
		{"re-register c3", func() { apply(clusterTask(3)); routeChanges++ }},
		// c1b→c1a is one hop again; its cached two-hop route does not
		// cross m1ab, so only the shape change can invalidate it.
		{"invertible m1ab", flip(1, true)},
		// c3b→c3a and c3c→c3a become unreachable: 404 on both servers.
		{"containment m3ab", flip(3, false)},
		{"noise", func() { apply("schema noiseshape { NS/1; }") }},
		// ...and come back.
		{"invertible m3ab", flip(3, true)},
	} {
		step(sc.name, sc.mutate)
	}
	if notFound == 0 {
		t.Fatal("no sweep saw an unreachable pair: the invertibility flip did not bite")
	}

	// The whole point: the delta cache must have actually survived. A
	// route-changing mutation drops only its own cluster's ≤ 6 pairs,
	// and a noise schema drops nothing, so every other compose is a hit.
	dc := delta.Stats()
	if limit := int64(pairs + 6*routeChanges); dc.Composes > limit {
		t.Fatalf("delta server composed %d times, want ≤ %d (%d pairs + 6 × %d route-changing mutations)",
			dc.Composes, limit, pairs, routeChanges)
	}
	if dc.EntriesMigrated == 0 {
		t.Fatal("no entries were ever migrated")
	}
	t.Logf("%d composes (limit %d), %d unreachable sweeps, %d migrated, %d dropped",
		dc.Composes, pairs+6*routeChanges, notFound, dc.EntriesMigrated, dc.EntriesDropped)
}

// TestMixedWorkloadSurvivalFloor pins cache survival under a steady
// read/write mix with absolute floors. The catalog is 150 disjoint
// clusters with every pair warmed. Each of 30 rounds sends 100 seeded
// composes and then re-registers one cluster. A publish can drop only
// its own cluster's ≤ 6 pairs, so the rounds run at most 6 ELIMINATEs
// each, and the steady-state hit rate stays at least 0.94.
func TestMixedWorkloadSurvivalFloor(t *testing.T) {
	const (
		clusters       = 150
		rounds         = 30
		composesPerReg = 100
	)
	s := New(Config{CacheBytes: 64 << 20})
	for i := 0; i < clusters; i++ {
		if rec := do(t, s, "POST", "/v1/register", clusterTask(i)); rec.Code != http.StatusOK {
			t.Fatalf("register: %d %s", rec.Code, rec.Body)
		}
	}
	compose := func(p [2]string) {
		t.Helper()
		if rec := do(t, s, "POST", "/v1/compose", fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])); rec.Code != http.StatusOK {
			t.Fatalf("compose %v: %d %s", p, rec.Code, rec.Body)
		}
	}
	for i := 0; i < clusters; i++ {
		for _, p := range clusterAllPairs(i) {
			compose(p)
		}
	}

	before := s.Stats()
	rng := rand.New(rand.NewSource(61))
	for r := 0; r < rounds; r++ {
		for i := 0; i < composesPerReg; i++ {
			ps := clusterAllPairs(rng.Intn(clusters))
			compose(ps[rng.Intn(len(ps))])
		}
		if rec := do(t, s, "POST", "/v1/register", clusterTask(rng.Intn(clusters))); rec.Code != http.StatusOK {
			t.Fatalf("re-register: %d %s", rec.Code, rec.Body)
		}
	}
	after := s.Stats()

	if composes := after.Composes - before.Composes; composes > 6*rounds {
		t.Fatalf("%d ELIMINATE runs after warm-up, want ≤ %d (6 per re-registration)", composes, 6*rounds)
	}
	hitRate := float64(after.CacheHits-before.CacheHits) / float64(rounds*composesPerReg)
	if hitRate < 0.94 {
		t.Fatalf("steady-state hit rate %.3f, want ≥ 0.94", hitRate)
	}
	t.Logf("steady-state hit rate %.3f over %d composes", hitRate, rounds*composesPerReg)
}

// TestDefaultCacheBound pins what a zero Config means: the cache is not
// unbounded but holds DefaultCacheBytes, split across its shards, and
// Warm is capped at the entry count that budget could hold. A negative
// byte budget means the same as zero. The budget holds far more than
// the 257 small results composed here, so none is evicted.
func TestDefaultCacheBound(t *testing.T) {
	const pairs = 257
	var sb strings.Builder
	for i := 0; i < pairs; i++ {
		fmt.Fprintf(&sb, "schema d%da { DA%d/1; }\nschema d%db { DB%d/1; }\nmap d%d : d%da -> d%db { DA%d <= DB%d; }\n", i, i, i, i, i, i, i, i, i)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"zero", Config{}}, {"negative-bytes", Config{CacheBytes: -5}}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.cfg)
			if rec := do(t, s, "POST", "/v1/register", sb.String()); rec.Code != http.StatusOK {
				t.Fatalf("register: %d %s", rec.Code, rec.Body)
			}
			var budget int64
			for _, sh := range s.cache.shards {
				budget += sh.maxBytes
			}
			if budget != DefaultCacheBytes {
				t.Fatalf("shard budgets sum to %d, want DefaultCacheBytes = %d", budget, DefaultCacheBytes)
			}
			if s.cacheCap != DefaultCacheBytes/entryOverhead {
				t.Fatalf("Warm cap = %d, want %d", s.cacheCap, DefaultCacheBytes/entryOverhead)
			}
			for i := 0; i < pairs; i++ {
				if rec := do(t, s, "POST", "/v1/compose", fmt.Sprintf(`{"from":"d%da","to":"d%db"}`, i, i)); rec.Code != http.StatusOK {
					t.Fatalf("compose %d: %d %s", i, rec.Code, rec.Body)
				}
			}
			st := s.Stats()
			if st.Composes != pairs || st.CacheEntries != pairs {
				t.Fatalf("composes = %d, cache entries = %d, want %d of each", st.Composes, st.CacheEntries, pairs)
			}
			if st.CacheBytes > DefaultCacheBytes {
				t.Fatalf("cache bytes = %d, over the %d budget", st.CacheBytes, DefaultCacheBytes)
			}
		})
	}
}

// TestMigrationHammer runs a registration storm (both route-changing
// cluster re-registrations and unrelated noise schemas) against
// saturated concurrent composes under -race, asserting on every single
// publish the counter identity candidates = migrated + dropped — every
// pre-publish entry is classified exactly once, none lost, none seen
// twice — and that no request ever observes a torn view (non-200, or a
// response for the wrong pair).
func TestMigrationHammer(t *testing.T) {
	const clusters = 4
	s := New(Config{})
	s.cache = newResultCache(DefaultCacheBytes, 8)
	var mu sync.Mutex
	var records []migrationRecord
	s.migrateHook = func(r migrationRecord) {
		mu.Lock()
		records = append(records, r)
		mu.Unlock()
	}
	for i := 0; i < clusters; i++ {
		if rec := do(t, s, "POST", "/v1/register", clusterTask(i)); rec.Code != http.StatusOK {
			t.Fatalf("register: %d %s", rec.Code, rec.Body)
		}
	}

	const (
		readWorkers = 6
		regWorkers  = 2
		iters       = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < readWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				p := clusterPairs(rng.Intn(clusters))[rng.Intn(3)]
				rec := do(t, s, "POST", "/v1/compose", fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1]))
				if rec.Code != http.StatusOK {
					t.Errorf("compose %v: %d %s", p, rec.Code, rec.Body)
					return
				}
				resp := decode[ComposeResponse](t, rec)
				if resp.From != p[0] || resp.To != p[1] {
					t.Errorf("torn response: asked %v, got %s→%s", p, resp.From, resp.To)
					return
				}
			}
		}(w)
	}
	for w := 0; w < regWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < iters/2; i++ {
				var body string
				if rng.Intn(2) == 0 {
					body = clusterTask(rng.Intn(clusters))
				} else {
					body = fmt.Sprintf("schema hnoise%d_%d { H%d_%d/1; }", w, i, w, i)
				}
				if rec := do(t, s, "POST", "/v1/register", body); rec.Code != http.StatusOK {
					t.Errorf("register: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	mu.Lock()
	defer mu.Unlock()
	if len(records) != clusters+regWorkers*(iters/2) {
		t.Fatalf("observed %d migrations, want one per publish (%d)", len(records), clusters+regWorkers*(iters/2))
	}
	var lastGen uint64
	for _, r := range records {
		if r.candidates != r.migrated+r.dropped {
			t.Fatalf("publish %d→%d: candidates %d != migrated %d + dropped %d",
				r.fromGen, r.toGen, r.candidates, r.migrated, r.dropped)
		}
		if r.fromGen != lastGen || r.toGen != lastGen+1 {
			t.Fatalf("publishes out of order: %d→%d after generation %d", r.fromGen, r.toGen, lastGen)
		}
		lastGen = r.toGen
	}
}

// TestWarmSkipsMigratedEntries: a warm-up after entries survived a
// migration recomputes nothing; after a route-changing mutation it
// recomputes exactly the invalidated pairs.
func TestWarmSkipsMigratedEntries(t *testing.T) {
	s := New(Config{})
	if rec := do(t, s, "POST", "/v1/register", clusterTask(0)); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	for _, p := range clusterPairs(0) {
		if rec := do(t, s, "POST", "/v1/compose", fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1])); rec.Code != http.StatusOK {
			t.Fatalf("compose: %d %s", rec.Code, rec.Body)
		}
	}
	// Unrelated mutation: all three entries migrate in place.
	if rec := do(t, s, "POST", "/v1/register", "schema warmnoise { W/1; }"); rec.Code != http.StatusOK {
		t.Fatalf("register noise: %d %s", rec.Code, rec.Body)
	}
	before := s.Stats().Composes
	if n := s.Warm(context.Background()); n != 0 {
		t.Fatalf("Warm recomputed %d surviving pairs, want 0", n)
	}
	if got := s.Stats().Composes; got != before {
		t.Fatalf("Warm ran %d compositions for surviving entries", got-before)
	}
	// Route-changing mutation: the cluster's entries drop, Warm rebuilds
	// exactly them.
	if rec := do(t, s, "POST", "/v1/register", clusterTask(0)); rec.Code != http.StatusOK {
		t.Fatalf("re-register: %d %s", rec.Code, rec.Body)
	}
	if n := s.Warm(context.Background()); n != 3 {
		t.Fatalf("Warm rebuilt %d pairs, want the 3 invalidated", n)
	}
	if got := s.Stats().Composes; got != before+3 {
		t.Fatalf("composes = %d, want %d", got, before+3)
	}
}

// shapeCatalog registers 40 disjoint 3-schema clusters shaped like the
// benchmark's cluster catalog: two thirds invertible (proj[2,1](A) = B,
// B = C), so their reverse pairs resolve through derived inverses, and
// one third containments, which connect forward only. It returns every
// connected ordered pair, sorted by (from, to).
func shapeCatalog(t *testing.T, s *Server) [][2]string {
	t.Helper()
	var sb strings.Builder
	var pairs [][2]string
	for i := 0; i < 40; i++ {
		a, b, c := fmt.Sprintf("c%da", i), fmt.Sprintf("c%db", i), fmt.Sprintf("c%dc", i)
		fmt.Fprintf(&sb, "schema %s { A%d/2; }\nschema %s { B%d/2; }\nschema %s { C%d/2; }\n", a, i, b, i, c, i)
		pairs = append(pairs, [2]string{a, b}, [2]string{b, c}, [2]string{a, c})
		if i%3 == 2 {
			fmt.Fprintf(&sb, "map m%[1]dab : %[2]s -> %[3]s { A%[1]d <= B%[1]d; }\nmap m%[1]dbc : %[3]s -> %[4]s { B%[1]d <= C%[1]d; }\n", i, a, b, c)
			continue
		}
		fmt.Fprintf(&sb, "map m%[1]dab : %[2]s -> %[3]s { proj[2,1](A%[1]d) = B%[1]d; }\nmap m%[1]dbc : %[3]s -> %[4]s { B%[1]d = C%[1]d; }\n", i, a, b, c)
		pairs = append(pairs, [2]string{b, a}, [2]string{c, b}, [2]string{c, a})
	}
	if rec := do(t, s, "POST", "/v1/register", sb.String()); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	// A space sorts before every name character, so this is (from, to)
	// order.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0]+" "+pairs[i][1] < pairs[j][0]+" "+pairs[j][1] })
	return pairs
}

// TestWarmAtCatalogShape: uncapped, Warm composes every reachable pair —
// derived-inverse pairs included — so each one is then a hit; capped,
// it composes exactly the first cacheCap connected pairs in (from, to)
// name order, cacheCap being the budget over entryOverhead.
func TestWarmAtCatalogShape(t *testing.T) {
	t.Run("uncapped", func(t *testing.T) {
		s := New(Config{})
		pairs := shapeCatalog(t, s)
		n := s.Warm(context.Background())
		st := s.Stats()
		if n != st.ReachablePairs || n != len(pairs) {
			t.Fatalf("Warm = %d, reachable pairs = %d, connected pairs = %d", n, st.ReachablePairs, len(pairs))
		}
		if st.Composes != int64(n) || st.Warmed != int64(n) {
			t.Fatalf("composes = %d, warmed = %d, want %d", st.Composes, st.Warmed, n)
		}
		for _, p := range pairs {
			rec := do(t, s, "POST", "/v1/compose", fmt.Sprintf(`{"from":%q,"to":%q}`, p[0], p[1]))
			if rec.Code != http.StatusOK {
				t.Fatalf("compose %v: %d %s", p, rec.Code, rec.Body)
			}
			if !decode[ComposeResponse](t, rec).Cached {
				t.Fatalf("pair %v not warmed", p)
			}
		}
		if got := s.Stats().Composes; got != int64(n) {
			t.Fatalf("composes after warm hits = %d, want %d", got, n)
		}
	})
	t.Run("capped", func(t *testing.T) {
		// 9 = c0's 6 pairs + c10a's 2 + one of c10b's ("c10" sorts
		// before "c1a"): the cap cuts a source's targets, where name
		// order (c10b>c10a) and BFS discovery order (c10b>c10c) differ.
		const capacity = 9
		s := New(Config{CacheBytes: capacity * entryOverhead})
		if s.cacheCap != capacity {
			t.Fatalf("Warm cap = %d, want %d", s.cacheCap, capacity)
		}
		// A roomy one-shard cache, so the cap alone — not eviction —
		// decides which pairs end up cached.
		s.cache = newResultCache(1<<20, 1)
		pairs := shapeCatalog(t, s)
		if n := s.Warm(context.Background()); n != capacity {
			t.Fatalf("Warm = %d, want the cap %d", n, capacity)
		}
		if got := s.Stats().Composes; got != capacity {
			t.Fatalf("composes = %d, want %d", got, capacity)
		}
		gen := s.cat.Generation()
		for i, p := range pairs {
			if got, want := s.cache.valid(pairKey{from: p[0], to: p[1], cfg: s.cfgFP}, gen), i < capacity; got != want {
				t.Fatalf("pair %d %v cached = %v, want %v: Warm must take the first %d in name order", i, p, got, want, capacity)
			}
		}
	})
}
