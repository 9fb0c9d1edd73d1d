// Package catalog is an in-memory, versioned store of named schemas and
// mappings — the registry behind the mapcompd composition service. The
// paper presents COMPOSE as a one-shot batch procedure, but its intended
// deployments (schema evolution, data integration, ETL pipelines, §1)
// are long-lived: mappings are registered once and composed many times
// along chains σ1→σ2→…→σn. The catalog holds the registered artifacts,
// assigns every successful mutation a monotonically increasing
// generation (the cache-invalidation token of the serving layer), and
// maintains a directed mapping graph over schema names so a requested
// σA→σB composition resolves to a shortest multi-hop chain of
// registered mappings, composed left to right via core.ComposeChain.
//
// The store is copy-on-write: the entire catalog state — entries,
// generation, sorted listings, and the precomputed BFS adjacency of the
// mapping graph — lives in one immutable snapshot behind an
// atomic.Pointer. Reads (Generation, Schema, Mapping, Snapshot, Snap)
// load the pointer and never take a lock, so they scale with cores.
// Route resolution, pair enumeration, graph statistics and inversion
// verdicts are methods on the Snap handle only, so a reader that needs
// several of them sees one snapshot. Mutations serialize under a write
// mutex, validate and log against the current snapshot, then publish a
// fresh one.
// Entries are immutable once installed: updates install fresh entries
// with a bumped per-name version, so a snapshot handed out to a reader
// stays valid forever. A single reader observes non-decreasing
// generations across calls (atomic pointer stores are ordered by the
// mutation lock).
//
// The store itself is memory-only; durability is layered on through two
// hooks. A Logger attached via SetLogger receives every mutation inside
// the write lock immediately before it commits (internal/persist
// implements it with a checksummed write-ahead log), and Restore
// installs a recovered snapshot — entries, versions, generations and the
// generation counter — into a virgin catalog, after which replaying
// logged mutations through Apply reconstructs the exact pre-crash state.
//
// The copy-on-write snapshots also power precise cache invalidation:
// Snap hands out an immutable snapshot, Snap.Route resolves a pair to
// its chain plus a route generation (the newest mutation that affected
// the route), ComputeDelta and Delta.Invalidated tell whether a route
// resolved before a publish is still the route after it, and
// SetPublishHook lets the serving layer observe every publication in
// order so it can migrate its result cache route by route instead of
// wiping it (see delta.go).
package catalog

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapcomp/internal/algebra"
	"mapcomp/internal/core"
	"mapcomp/internal/obs"
	"mapcomp/internal/parser"
)

// Mutation timings, covering the whole write-locked section of Apply:
// validation, the WAL append + fsync (via logMutation), the
// copy-on-write rebuild and publish (delta computation included, since
// PublishHook runs inside the lock). Rejected attempts are recorded
// too — they hold the same lock and stall the same writers.
var mutationSeconds = obs.Hist("mapcomp_catalog_mutation_seconds", `kind="apply"`)

// Sentinel errors for composition-request resolution, so callers (the
// HTTP layer) can classify failures without matching message text.
var (
	// ErrUnknownSchema reports a composition endpoint that is not a
	// registered schema.
	ErrUnknownSchema = errors.New("unknown schema")
	// ErrNoPath reports that no chain of registered mappings connects
	// the requested endpoints.
	ErrNoPath = errors.New("no mapping path")
	// ErrPersist wraps a durability-logger failure: the mutation itself
	// was valid but could not be made durable, so the HTTP layer should
	// report a retryable server-side error, not a request conflict.
	ErrPersist = errors.New("persisting mutation")
)

// SchemaEntry is one installed revision of a named schema.
type SchemaEntry struct {
	Name string
	// Version is the per-name revision, 1 on first registration.
	Version int
	// Generation is the catalog generation that installed this revision.
	Generation uint64
	Schema     *algebra.Schema
}

// MappingEntry is one installed revision of a named mapping between two
// registered schemas.
type MappingEntry struct {
	Name        string
	From, To    string
	Version     int
	Generation  uint64
	Constraints algebra.ConstraintSet
}

// Mutation describes one Apply at the moment it commits. Gen is the
// generation the mutation installs (current generation + 1); because
// every logged mutation bumps the generation by exactly one, Gen doubles
// as the mutation's sequence number in a durability log.
type Mutation struct {
	Gen uint64
	// Problem is the caller's parsed task file; the logger must encode
	// it before returning.
	Problem *parser.Problem
}

// Logger receives every mutation immediately before it commits, inside
// the catalog's write lock: when it returns an error the mutation is
// rejected and the snapshot readers see is never replaced, so a crash at
// any point leaves the log covering a superset of the published state —
// never the reverse. Batch Apply emits a single Mutation, which is what
// keeps it atomic across a crash: the whole batch is in the log or none
// of it.
type Logger interface {
	AppendMutation(*Mutation) error
}

// Provenance says how a graph edge came to exist.
type Provenance string

// The two edge provenances: an edge registered explicitly, and an edge
// derived by inverting a registered mapping whose every constraint
// passed the quasi-inverse judgement (core.Invert).
const (
	ProvRegistered     Provenance = "registered"
	ProvDerivedInverse Provenance = "derived-inverse"
)

// Hop is one edge of a resolved route, in traversal order: the mapping
// it rides, the schemas it connects in the direction traveled, and
// whether the traversal used the registered direction or a derived
// inverse.
type Hop struct {
	Mapping  string
	From, To string
	Prov     Provenance
}

// view is one immutable catalog snapshot. Everything a read needs —
// entry maps, sorted listings, the dense-index BFS adjacency of the
// bidirectional mapping graph, and the materialized algebra.Mapping per
// edge (inverses included) — is precomputed when the view is built
// (once per mutation), so readers share it without copying, locking, or
// per-request materialization.
type view struct {
	gen     uint64
	schemas map[string]*SchemaEntry
	maps    map[string]*MappingEntry

	// schemaList and mapList are the listings sorted by name.
	schemaList []*SchemaEntry
	mapList    []*MappingEntry

	// schemaIdx assigns each schema a dense index into edges, so BFS
	// runs over slices instead of maps. Views with the same schema
	// names share one map.
	schemaIdx map[string]int
	// edges is the adjacency by schema index; every node's list is a
	// window of one backing array. Per source the registered edges come
	// before the derived-inverse ones, each group in mapping-name order
	// (freeze places them so), so path discovery order — and hence
	// tie-breaks — are deterministic and forward edges win equal-hop
	// ties. resolve names an edge by its source and its position in
	// the source's list.
	edges [][]edge

	// mappings holds one materialized algebra.Mapping per entry, shared
	// by every Route over this view. NewMapping clones its
	// inputs and the compose stack never mutates a source mapping, so
	// sharing is safe and a compose request materializes nothing.
	mappings map[string]*algebra.Mapping
	// inversions holds the quasi-inverse judgement per entry, computed
	// from the materialized mapping and pointer-reused across views
	// exactly when the materialization is — so the inverse mapping
	// pointer is as stable as the forward one, which is what lets
	// Delta.Invalidated classify reverse routes by pointer equality.
	inversions map[string]*core.Inversion

	// graph caches the lazily computed reachability/verdict statistics
	// for this snapshot (see GraphStats).
	graph atomic.Pointer[GraphStats]
}

// edge is one directed edge of the mapping graph: a registered mapping
// traversed forward, or — when the mapping's inversion verdicts all
// pass — the same mapping traversed backwards via its derived inverse.
// mat is the mapping to compose for this traversal direction.
type edge struct {
	to  int
	m   *MappingEntry
	inv bool
	mat *algebra.Mapping
}

// prov returns the edge's provenance.
func (e *edge) prov() Provenance {
	if e.inv {
		return ProvDerivedInverse
	}
	return ProvRegistered
}

// freeze builds the derived read structures from the entry maps. prev
// is the view this one was derived from (nil for the first): entries
// are immutable and pointer-shared across views, so any mapping whose
// entry and endpoint schema entries are unchanged reuses prev's
// materialized algebra.Mapping and inversion instead of recomputing
// them — without this, installing N mappings one Apply at a time (as
// WAL replay of N registrations does on boot) would cost O(N²)
// constraint clones. Derived-inverse edges are recomputed here,
// deterministically, on every snapshot build — never logged or
// persisted — so existing data directories load unchanged and replay
// reconstructs the same bidirectional graph.
//
// The listings start from prev's sorted ones and are sorted again only
// when a name was added; when the schema names are prev's, schemaIdx is
// prev's map. The adjacency is one backing array filled in two passes
// over the name-sorted mapList, registered edges first and then
// derived ones, so every node's list comes out in tie-break order
// without a sort.
func (v *view) freeze(prev *view) *view {
	if prev == nil {
		prev = &view{}
	}
	var renamed bool
	v.schemaList, renamed = relist(prev.schemaList, prev.schemas, v.schemas, func(e *SchemaEntry) string { return e.Name })
	v.mapList, _ = relist(prev.mapList, prev.maps, v.maps, func(e *MappingEntry) string { return e.Name })
	if renamed || prev.schemaIdx == nil {
		v.schemaIdx = make(map[string]int, len(v.schemaList))
		for i, e := range v.schemaList {
			v.schemaIdx[e.Name] = i
		}
	} else {
		v.schemaIdx = prev.schemaIdx
	}
	v.mappings = make(map[string]*algebra.Mapping, len(v.mapList))
	v.inversions = make(map[string]*core.Inversion, len(v.mapList))
	// off[i+1] counts node i's edges; the prefix sums below then make
	// node i's list adj[off[i]:off[i+1]]. ends caches per mapList entry
	// what the two passes place, so they look nothing up by name.
	off := make([]int, len(v.schemaList)+1)
	type mapEnds struct {
		from, to int
		mat      *algebra.Mapping
		inv      *core.Inversion
	}
	ends := make([]mapEnds, len(v.mapList))
	for k, m := range v.mapList {
		from, to := v.schemas[m.From], v.schemas[m.To]
		mat, inv := prev.mappings[m.Name], prev.inversions[m.Name]
		if prev.maps[m.Name] != m || prev.schemas[m.From] != from || prev.schemas[m.To] != to {
			mat = algebra.NewMapping(from.Schema, to.Schema, m.Constraints)
			inv = core.Invert(mat)
		}
		v.mappings[m.Name], v.inversions[m.Name] = mat, inv
		ends[k] = mapEnds{from: v.schemaIdx[m.From], to: v.schemaIdx[m.To], mat: mat, inv: inv}
		off[ends[k].from+1]++
		if inv.Invertible() {
			off[ends[k].to+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	adj := make([]edge, off[len(off)-1])
	v.edges = make([][]edge, len(v.schemaList))
	for i := range v.edges {
		v.edges[i] = adj[off[i]:off[i]:off[i+1]]
	}
	for k, m := range v.mapList {
		e := &ends[k]
		v.edges[e.from] = append(v.edges[e.from], edge{to: e.to, m: m, mat: e.mat})
	}
	for k, m := range v.mapList {
		if e := &ends[k]; e.inv.Invertible() {
			v.edges[e.to] = append(v.edges[e.to], edge{to: e.from, m: m, inv: true, mat: e.inv.Mapping})
		}
	}
	return v
}

// relist returns the entries of cur sorted by name. It starts from
// prevList, prev's sorted listing of the map prev: the names that
// survive keep their order and take cur's entries, new names are
// appended, and the list is sorted only when there were new names.
// renamed reports that the name set differs from prev's.
func relist[E any](prevList []E, prev, cur map[string]E, name func(E) string) (list []E, renamed bool) {
	list = make([]E, 0, len(cur))
	for _, e := range prevList {
		if c, ok := cur[name(e)]; ok {
			list = append(list, c)
		}
	}
	renamed = len(list) != len(prevList)
	if len(list) == len(cur) {
		return list, renamed
	}
	for n, e := range cur {
		if _, ok := prev[n]; !ok {
			list = append(list, e)
		}
	}
	slices.SortFunc(list, func(a, b E) int { return strings.Compare(name(a), name(b)) })
	return list, true
}

// mutate returns a draft copying the entry maps of v; the caller
// installs new entries into the draft and freezes it. Entries themselves
// are immutable and shared between views.
func (v *view) mutate() *view {
	return &view{gen: v.gen, schemas: maps.Clone(v.schemas), maps: maps.Clone(v.maps)}
}

// Catalog is the copy-on-write store. The zero value is not usable; use
// New.
type Catalog struct {
	// mu serializes mutations (and logger/hook attachment); reads never
	// take it.
	mu     sync.Mutex
	snap   atomic.Pointer[view]
	logger Logger
	// publish, when attached, observes every snapshot publication in
	// order, inside mu, right after the new snapshot becomes visible
	// (see PublishHook in delta.go).
	publish PublishHook
}

// published stores next as the current snapshot and notifies the
// publish hook. Caller holds mu; prev is the snapshot next replaces.
func (c *Catalog) published(prev, next *view) {
	c.snap.Store(next)
	if c.publish != nil {
		c.publish(Snap{v: prev}, Snap{v: next})
	}
}

// New returns an empty catalog at generation 0.
func New() *Catalog {
	c := &Catalog{}
	c.snap.Store((&view{
		schemas: make(map[string]*SchemaEntry),
		maps:    make(map[string]*MappingEntry),
	}).freeze(nil))
	return c
}

// Generation returns the current catalog generation: 0 for an empty
// catalog, incremented by one for every successful mutation (an Apply
// counts as one mutation however many artifacts it installs).
func (c *Catalog) Generation() uint64 {
	return c.snap.Load().gen
}

// SetLogger attaches (or, with nil, detaches) the durability logger.
// Attach it after recovery has replayed any existing log, so replayed
// mutations are not re-logged.
func (c *Catalog) SetLogger(l Logger) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.logger = l
}

// logMutation emits m to the attached logger, if any. Caller holds the
// mutation lock and must abort the mutation on error.
func (c *Catalog) logMutation(m *Mutation) error {
	if c.logger == nil {
		return nil
	}
	if err := c.logger.AppendMutation(m); err != nil {
		return fmt.Errorf("catalog: %w %d: %v", ErrPersist, m.Gen, err)
	}
	return nil
}

// checkMapping validates a mapping's constraints over the union of its
// endpoint signatures; Apply (for incoming mappings and for registered
// ones on an updated schema) and Restore both funnel through it.
func checkMapping(name string, from, to *algebra.Schema, cs algebra.ConstraintSet) error {
	sig, err := from.Sig.Merge(to.Sig)
	if err != nil {
		return fmt.Errorf("catalog: mapping %s: %w", name, err)
	}
	if err := cs.Check(sig); err != nil {
		return fmt.Errorf("catalog: mapping %s: %w", name, err)
	}
	return nil
}

// recheckMappings validates every registered mapping with an endpoint
// in updated against the proposed signatures, skipping the mappings
// named in replaced (Apply validates those as incoming). A mapping
// touching no updated schema keeps exactly the schema entries it was
// validated against, so it is not checked again.
func recheckMappings(v *view, updated map[string]*algebra.Schema, replaced map[string]*parser.MapDecl) error {
	for _, m := range v.mapList {
		from, fromUpdated := updated[m.From]
		to, toUpdated := updated[m.To]
		if !fromUpdated && !toUpdated {
			continue
		}
		if _, ok := replaced[m.Name]; ok {
			continue
		}
		if !fromUpdated {
			from = v.schemas[m.From].Schema
		}
		if !toUpdated {
			to = v.schemas[m.To].Schema
		}
		if err := checkMapping(m.Name, from, to, m.Constraints); err != nil {
			name := m.From
			if !fromUpdated {
				name = m.To
			}
			return fmt.Errorf("catalog: schema %s update rejected: %w", name, err)
		}
	}
	return nil
}

// Apply registers every schema and mapping of a parsed problem as one
// atomic mutation, the catalog's only write path apart from Restore:
// either everything validates and installs under a single generation
// bump, or nothing changes. Compose declarations in the problem are
// ignored — the service composes on demand. Returns the new generation.
func (c *Catalog) Apply(p *parser.Problem) (uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func(start time.Time) { mutationSeconds.Observe(time.Since(start)) }(time.Now())
	cur := c.snap.Load()
	if len(p.SchemaOrder) == 0 && len(p.MapOrder) == 0 {
		// Nothing to install: don't burn a generation (and with it every
		// cached result keyed on the current one).
		return cur.gen, nil
	}

	// Stage the schemas as they will be after the apply, so new
	// mappings can reference new schemas and mapping re-validation sees
	// updated signatures.
	updated := make(map[string]*algebra.Schema, len(p.SchemaOrder))
	for _, name := range p.SchemaOrder {
		if name == "" {
			return cur.gen, fmt.Errorf("catalog: schema name must be non-empty")
		}
		sch := p.Schemas[name]
		if sch == nil || len(sch.Sig) == 0 {
			return cur.gen, fmt.Errorf("catalog: schema %s has no relations", name)
		}
		updated[name] = sch
	}
	staged := func(name string) (*algebra.Schema, bool) {
		if sch, ok := updated[name]; ok {
			return sch, true
		}
		e, ok := cur.schemas[name]
		if !ok {
			return nil, false
		}
		return e.Schema, true
	}
	// Every pre-existing mapping on an updated schema must stay
	// well-formed, and every incoming mapping must validate against the
	// staged schemas.
	if err := recheckMappings(cur, updated, p.Maps); err != nil {
		return cur.gen, err
	}
	for _, name := range p.MapOrder {
		d := p.Maps[name]
		if name == "" || d == nil {
			return cur.gen, fmt.Errorf("catalog: mapping %q is unnamed or has no declaration", name)
		}
		from, ok := staged(d.From)
		if !ok {
			return cur.gen, fmt.Errorf("catalog: mapping %s references unknown schema %s", name, d.From)
		}
		to, ok := staged(d.To)
		if !ok {
			return cur.gen, fmt.Errorf("catalog: mapping %s references unknown schema %s", name, d.To)
		}
		if err := checkMapping(name, from, to, d.Constraints); err != nil {
			return cur.gen, err
		}
	}

	// Commit under one generation bump, logged as one record so the
	// batch stays atomic across a crash.
	if err := c.logMutation(&Mutation{Gen: cur.gen + 1, Problem: p}); err != nil {
		return cur.gen, err
	}
	next := cur.mutate()
	next.gen++
	for _, name := range p.SchemaOrder {
		entry := &SchemaEntry{Name: name, Version: 1, Generation: next.gen, Schema: p.Schemas[name].Clone()}
		if old, ok := cur.schemas[name]; ok {
			entry.Version = old.Version + 1
		}
		next.schemas[name] = entry
	}
	for _, name := range p.MapOrder {
		d := p.Maps[name]
		entry := &MappingEntry{
			Name: name, From: d.From, To: d.To,
			Version: 1, Generation: next.gen,
			Constraints: d.Constraints.Clone(),
		}
		if old, ok := cur.maps[name]; ok {
			entry.Version = old.Version + 1
		}
		next.maps[name] = entry
	}
	c.published(cur, next.freeze(cur))
	return next.gen, nil
}

// Schema returns the current revision of a named schema.
func (c *Catalog) Schema(name string) (*SchemaEntry, bool) {
	e, ok := c.snap.Load().schemas[name]
	return e, ok
}

// Mapping returns the current revision of a named mapping.
func (c *Catalog) Mapping(name string) (*MappingEntry, bool) {
	e, ok := c.snap.Load().maps[name]
	return e, ok
}

// Snapshot returns the schema and mapping listings (sorted by name) plus
// the generation, all from one immutable snapshot so the three are
// mutually consistent.
func (c *Catalog) Snapshot() ([]*SchemaEntry, []*MappingEntry, uint64) {
	v := c.snap.Load()
	return v.schemaList, v.mapList, v.gen
}

// NoPathError is the ErrNoPath failure enriched with what the
// bidirectional graph knows about the miss: whether traversing
// registered mappings against their direction would have reached the
// target, and which mappings on such a path block it by being
// non-invertible. Unwraps to ErrNoPath.
type NoPathError struct {
	From, To string
	// ReverseReachable reports that a path exists if registered
	// mappings could be walked backwards regardless of invertibility —
	// the fix is registering (or making invertible) an inverse.
	ReverseReachable bool
	// Blocking lists the mappings traversed backwards on that
	// hypothetical path whose inversion verdicts failed, sorted.
	Blocking []string
}

// Error keeps the historical "catalog: no mapping path from X to Y"
// prefix and appends the reverse-reachability hint when there is one.
func (e *NoPathError) Error() string {
	msg := fmt.Sprintf("catalog: %v from %s to %s", ErrNoPath, e.From, e.To)
	if e.ReverseReachable {
		msg += fmt.Sprintf("; reachable in reverse, blocked by non-invertible mapping(s) %v", e.Blocking)
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrNoPath) hold.
func (e *NoPathError) Unwrap() error { return ErrNoPath }

// bfsFrom runs breadth-first search over the bidirectional graph from
// src, returning the discovering edge per node (nil for src and
// unreached nodes), each discovered node's predecessor, and the
// discovery order. The search is level-synchronized with two relaxation
// passes per level — every registered edge out of the level before any
// derived-inverse edge — so a node reachable at the same hop count both
// ways is always discovered through a registered edge. On a graph with
// no derived edges the traversal degenerates to the classic FIFO BFS
// this replaced, preserving its discovery order and tie-breaks exactly.
// It builds the whole tree in fresh slices, for the callers that read
// many targets of one source (Pairs, Warm, graphStats and
// Delta.Invalidated's per-source memo); resolve runs the same search on
// pooled scratch and stops at its target.
func (v *view) bfsFrom(src int) (via []*edge, prev []int, order []int) {
	n := len(v.schemaList)
	via = make([]*edge, n)
	prev = make([]int, n)
	order = make([]int, 0, n)
	visited := make([]bool, n)
	visited[src] = true
	level := []int{src}
	for len(level) > 0 {
		var next []int
		for _, derived := range [2]bool{false, true} {
			for _, h := range level {
				es := v.edges[h]
				for i := range es {
					e := &es[i]
					if e.inv != derived || visited[e.to] {
						continue
					}
					visited[e.to] = true
					via[e.to] = e
					prev[e.to] = h
					next = append(next, e.to)
					order = append(order, e.to)
				}
			}
		}
		level = next
	}
	return via, prev, order
}

// routeScratch is the working memory of one resolve search, reused
// through routeScratchPool so a route allocates nothing per schema.
// Arrays are indexed by schema index and grow to the largest snapshot
// searched; entries are valid only where stamp equals the current
// epoch, so a new search starts by bumping the epoch instead of
// clearing.
type routeScratch struct {
	epoch uint32
	// stamp[x] == epoch marks x as discovered by the current search.
	stamp []uint32
	// prev[x] is x's predecessor on the search tree and via[x] the
	// index of x's discovering edge in edges[prev[x]].
	prev, via []int32
	// queue holds the discovered nodes in discovery order, src first;
	// each level is a contiguous run.
	queue []int32
}

// routeScratchPool holds *routeScratch values. Each resolve takes one
// for the duration of its search, so concurrent readers never share
// one, even across snapshots of different sizes.
var routeScratchPool = sync.Pool{New: func() any { return new(routeScratch) }}

// resolve turns the schema pair from→to into the shortest chain of
// edges over the bidirectional graph (registered mappings plus derived
// inverses where the inversion verdicts allow; forward edges win
// equal-hop ties). It runs bfsFrom's level-synchronized search on
// pooled scratch and stops the moment it discovers to: a node's
// discovering edge is final once set, and each level's registered pass
// runs before its derived pass, so the chain is the path bfsFrom's tree
// holds. When to is unreachable the search sweeps from's whole
// component; resolve then returns the partial chain to the schema
// discovered last, wrapped in a NoPathError that also reports whether
// ignoring invertibility would have connected the pair.
func (v *view) resolve(from, to string) ([]*edge, error) {
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

	s := routeScratchPool.Get().(*routeScratch)
	defer routeScratchPool.Put(s)
	if n := len(v.schemaList); len(s.stamp) < n {
		s.stamp, s.prev, s.via = make([]uint32, n), make([]int32, n), make([]int32, n)
		s.queue = make([]int32, 0, n)
	}
	if s.epoch++; s.epoch == 0 {
		// Wrapped: stamps from 2³² searches ago would match again.
		clear(s.stamp)
		s.epoch = 1
	}
	s.stamp[src] = s.epoch
	queue := append(s.queue[:0], int32(src))
	found := false
search:
	for lo := 0; lo < len(queue); {
		hi := len(queue)
		for _, derived := range [2]bool{false, true} {
			for _, h := range queue[lo:hi] {
				es := v.edges[h]
				for i := range es {
					e := &es[i]
					if e.inv != derived || s.stamp[e.to] == s.epoch {
						continue
					}
					s.stamp[e.to] = s.epoch
					s.prev[e.to], s.via[e.to] = h, int32(i)
					queue = append(queue, int32(e.to))
					if e.to == dst {
						found = true
						break search
					}
				}
			}
		}
		lo = hi
	}

	// The chain ends at dst, or at the schema discovered last.
	end := int(queue[len(queue)-1])
	hops := 0
	for x := end; x != src; x = int(s.prev[x]) {
		hops++
	}
	chain := make([]*edge, hops)
	for x := end; x != src; x = int(s.prev[x]) {
		hops--
		chain[hops] = &v.edges[s.prev[x]][s.via[x]]
	}
	if found {
		return chain, nil
	}
	npe := &NoPathError{From: from, To: to}
	npe.ReverseReachable, npe.Blocking = v.reverseReachable(src, dst)
	return chain, npe
}

// reverseReachable reports whether dst becomes reachable from src once
// every registered mapping may also be walked backwards, regardless of
// its inversion verdicts — the counterfactual behind the NoPathError
// hint — and which non-invertible mappings the found path crosses
// backwards (sorted). Derived edges that really exist are not blockers.
func (v *view) reverseReachable(src, dst int) (bool, []string) {
	n := len(v.schemaList)
	// back[i] collects the registered edges arriving at i, walkable
	// backwards in the counterfactual graph.
	back := make([][]*edge, n)
	for h := range v.edges {
		es := v.edges[h]
		for i := range es {
			if !es[i].inv {
				back[es[i].to] = append(back[es[i].to], &es[i])
			}
		}
	}
	type step struct {
		prev    int
		blocker string // mapping crossed backwards without a real inverse
	}
	steps := make([]*step, n)
	visited := make([]bool, n)
	visited[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h == dst {
			seen := map[string]bool{}
			var blocking []string
			for x := dst; x != src; x = steps[x].prev {
				if b := steps[x].blocker; b != "" && !seen[b] {
					seen[b] = true
					blocking = append(blocking, b)
				}
			}
			sort.Strings(blocking)
			return true, blocking
		}
		for i := range v.edges[h] {
			e := &v.edges[h][i]
			if !visited[e.to] {
				visited[e.to] = true
				steps[e.to] = &step{prev: h}
				queue = append(queue, e.to)
			}
		}
		for _, e := range back[h] {
			// e runs some→h registered; walk it backwards to its source.
			fi := v.schemaIdx[e.m.From]
			if !visited[fi] {
				visited[fi] = true
				blocker := ""
				if !v.inversions[e.m.Name].Invertible() {
					blocker = e.m.Name
				}
				steps[fi] = &step{prev: h, blocker: blocker}
				queue = append(queue, fi)
			}
		}
	}
	return false, nil
}

// Restore installs a recovered state wholesale: schema and mapping
// entries with their original versions and generations, plus the
// generation counter. It is the snapshot-loading half of crash
// recovery (log replay then re-runs Apply). It only operates on a
// virgin catalog — generation 0, no entries, no logger — and
// re-validates every mapping against the restored schemas, so a
// tampered or inconsistent snapshot fails loudly instead of installing
// a catalog Apply could never have built.
func (c *Catalog) Restore(schemas []*SchemaEntry, maps []*MappingEntry, gen uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snap.Load()
	if cur.gen != 0 || len(cur.schemas) != 0 || len(cur.maps) != 0 || c.logger != nil {
		return fmt.Errorf("catalog: Restore needs a virgin catalog without a logger")
	}
	next := cur.mutate()
	for _, e := range schemas {
		if e == nil || e.Name == "" || e.Schema == nil || len(e.Schema.Sig) == 0 {
			return fmt.Errorf("catalog: restore: invalid schema entry")
		}
		if e.Generation > gen {
			return fmt.Errorf("catalog: restore: schema %s at generation %d exceeds catalog generation %d", e.Name, e.Generation, gen)
		}
		if _, dup := next.schemas[e.Name]; dup {
			return fmt.Errorf("catalog: restore: schema %s appears twice", e.Name)
		}
		next.schemas[e.Name] = &SchemaEntry{
			Name: e.Name, Version: e.Version, Generation: e.Generation,
			Schema: e.Schema.Clone(),
		}
	}
	for _, m := range maps {
		if m == nil || m.Name == "" {
			return fmt.Errorf("catalog: restore: invalid mapping entry")
		}
		if m.Generation > gen {
			return fmt.Errorf("catalog: restore: mapping %s at generation %d exceeds catalog generation %d", m.Name, m.Generation, gen)
		}
		if _, dup := next.maps[m.Name]; dup {
			return fmt.Errorf("catalog: restore: mapping %s appears twice", m.Name)
		}
		fs, ok := next.schemas[m.From]
		if !ok {
			return fmt.Errorf("catalog: restore: mapping %s references unknown schema %s", m.Name, m.From)
		}
		ts, ok := next.schemas[m.To]
		if !ok {
			return fmt.Errorf("catalog: restore: mapping %s references unknown schema %s", m.Name, m.To)
		}
		if err := checkMapping(m.Name, fs.Schema, ts.Schema, m.Constraints); err != nil {
			return fmt.Errorf("catalog: restore: %w", err)
		}
		next.maps[m.Name] = &MappingEntry{
			Name: m.Name, From: m.From, To: m.To,
			Version: m.Version, Generation: m.Generation,
			Constraints: m.Constraints.Clone(),
		}
	}
	next.gen = gen
	c.published(cur, next.freeze(cur))
	return nil
}
