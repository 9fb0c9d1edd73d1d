// Package server implements the mapcompd HTTP/JSON API: a serving layer
// over internal/catalog that registers schemas and mappings (accepting
// the internal/parser text format as the wire payload) and answers
// single and batched composition requests. Results are cached in a
// sharded cache bounded by one byte budget (Config.CacheBytes) and
// keyed on (endpoint pair, config fingerprint) alone, with the catalog
// generation as a validated-at watermark: entries store the response
// pre-encoded in the wire format, so repeated requests are served
// without re-running ELIMINATE and without marshaling anything — a hit
// is a lock-free shard probe plus a byte copy to the socket — and
// identical in-flight requests are coalesced to a single computation.
// Catalog mutations do not wipe the cache: a
// publish hook checks each cached entry's route against the new
// snapshot (catalog.ComputeDelta, Delta.Invalidated), drops only the
// entries whose route actually changed, and migrates every other entry
// in place by bumping its watermark. Every read of the
// catalog goes through one immutable catalog.Snap: a compose request, a
// batch, a warm-up sweep and a stats snapshot each see one generation.
// Everything is stdlib net/http; the server is safe for concurrent use.
//
// Endpoints (all under /v1):
//
//	POST /v1/register       text-format task file → install schemas+mappings
//	POST /v1/compose        {"from","to"} → composition over the catalog
//	POST /v1/compose/batch  {"requests":[{"from","to"},…]} → outcomes in order
//	GET  /v1/results/{key}  fetch a cached composition by its key
//	GET  /v1/catalog        full catalog listing with versions
//	GET  /v1/stats          instrumentation counters (cache hits, ELIMINATE runs)
//	GET  /v1/healthz        liveness probe
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mapcomp/internal/catalog"
	"mapcomp/internal/core"
	"mapcomp/internal/obs"
	_ "mapcomp/internal/ops" // register join, semijoin, antijoin, lojoin, tc
	"mapcomp/internal/par"
	"mapcomp/internal/parser"
	"mapcomp/internal/persist"
)

// DefaultCacheBytes is the result cache's byte budget when
// Config.CacheBytes is zero or negative.
const DefaultCacheBytes = 64 << 20

// maxBodyBytes bounds request bodies; task files in the text format are
// small (the paper-scale suite is a few hundred KB).
const maxBodyBytes = 8 << 20

// maxBatch bounds the number of pairs in one batch request.
const maxBatch = 1024

// Config configures a Server.
type Config struct {
	// Catalog is the backing store; nil creates a fresh empty catalog.
	Catalog *catalog.Catalog
	// CacheBytes bounds the result cache by exact byte footprint
	// (pre-encoded body and key sizes plus fixed per-entry overhead).
	// Zero or negative means DefaultCacheBytes. The shard count derives
	// from GOMAXPROCS and shrinks for small budgets.
	CacheBytes int64
	// Compose selects the algorithm configuration; nil means
	// core.DefaultConfig().
	Compose *core.Config
	// Persist, when non-nil, is the durability backend whose counters
	// /v1/stats exposes. The server does not drive it — cmd/mapcompd
	// owns recovery, logging and snapshot cadence — it only reports.
	Persist *persist.Store
	// ComposeTimeout bounds every composition run (cmd/mapcompd's
	// -compose-timeout). 0 means no server-side deadline. A request may
	// shorten its own deadline via timeout_ms but never extend past this
	// bound. An expired deadline preempts ELIMINATE between strategy
	// attempts and surfaces as 504 with the partial statistics; the
	// result is never cached.
	ComposeTimeout time.Duration
	// SlowRequest, when positive, samples requests that take at least
	// this long to the structured log (mapcompd -slow-ms). Zero
	// disables sampling — and with it the response-writer wrapping, so
	// the hit path is untouched.
	SlowRequest time.Duration
	// Logger receives slow-request samples; nil means slog.Default().
	Logger *slog.Logger
}

// Server is the HTTP handler. Create with New.
type Server struct {
	cat      *catalog.Catalog
	cfg      *core.Config
	cfgFP    uint64
	cache    *resultCache   // nil only in tests: the uncached reference path
	cacheCap int            // Warm's pair cap: the most entries the budget can hold
	persist  *persist.Store // nil without a durability backend
	timeout  time.Duration  // server-side compose deadline; 0 = none
	slow     time.Duration  // slow-request log threshold; 0 = off
	logger   *slog.Logger
	mux      *http.ServeMux

	composes      atomic.Int64 // compositions actually run
	cacheHits     atomic.Int64 // compose requests served from the LRU
	coalescedHits atomic.Int64
	resultFetches atomic.Int64 // GET /v1/results hits
	elimAttempts  atomic.Int64 // summed Stats.Attempted of the runs
	warmed        atomic.Int64 // pairs precomputed by Warm

	migrations      atomic.Int64 // catalog publishes the cache transitioned across
	entriesMigrated atomic.Int64 // entries whose watermark was bumped in place
	entriesDropped  atomic.Int64 // entries a publish invalidated
	deltaUS         atomic.Int64 // cumulative ComputeDelta (shape diff) time, µs

	// composeHook, when non-nil, runs inside every real composition
	// before ComposeChain, receiving the composition's context; tests
	// use it to hold computations open (or until the deadline has
	// demonstrably expired) so coalescing and preemption are observable.
	composeHook func(context.Context)
	// migrateHook, when non-nil, observes every publish-driven cache
	// migration with its per-publish counters; the race hammer uses it
	// to assert the candidates = migrated + dropped identity on every
	// generation.
	migrateHook func(migrationRecord)
}

// migrationRecord is one publish-driven cache transition as observed by
// the migrate hook.
type migrationRecord struct {
	fromGen, toGen                uint64
	candidates, migrated, dropped int
}

// New builds a Server around cfg. The server installs itself as the
// catalog's publish hook, so every mutation — whoever drives it —
// migrates the cache by the snapshot delta.
func New(cfg Config) *Server {
	s := &Server{cat: cfg.Catalog, cfg: cfg.Compose, persist: cfg.Persist,
		timeout: cfg.ComposeTimeout, slow: cfg.SlowRequest, logger: cfg.Logger}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	if s.cat == nil {
		s.cat = catalog.New()
	}
	if s.cfg == nil {
		s.cfg = core.DefaultConfig()
	}
	s.cfgFP = s.cfg.Fingerprint()
	budget := cfg.CacheBytes
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	s.cache = newResultCache(budget, 0)
	// Cap Warm's pair sweep at the smallest entry count that could
	// exhaust the budget.
	s.cacheCap = int(budget / entryOverhead)
	s.cat.SetPublishHook(s.onPublish)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/register", s.handleRegister)
	mux.HandleFunc("POST /v1/compose", s.handleCompose)
	mux.HandleFunc("POST /v1/compose/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Catalog returns the backing catalog (shared, safe for concurrent use).
func (s *Server) Catalog() *catalog.Catalog { return s.cat }

// ServeHTTP is the ingress: every request gets an X-Request-Id (echoed
// in the response headers and, via writeError, in error bodies) before
// dispatch. When slow-request sampling is armed the response writer is
// wrapped to capture the status and the whole request is timed; with it
// off (the default, and the benchmark configuration) the handlers get
// the original writer and no extra timing.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := nextRequestID()
	w.Header()["X-Request-Id"] = []string{id}
	if s.slow <= 0 {
		s.mux.ServeHTTP(w, r)
		return
	}
	sw := statusWriter{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(&sw, r)
	if d := time.Since(start); d >= s.slow {
		slowRequestsTotal.Inc()
		s.logger.Warn("slow request",
			"method", r.Method, "path", r.URL.Path, "status", sw.status,
			"dur_ms", float64(d.Microseconds())/1000, "request_id", id)
	}
}

// Stats snapshots the instrumentation counters. The three compose
// counters are loaded in one pass and Requests is derived as their sum,
// so the identity hits + composes + coalesced == requests holds exactly
// in every snapshot, load or no load; likewise the cache numbers
// (entries, bytes, per-shard split) come from a single load of each
// shard's published view, so they are mutually consistent rather than
// three racing sweeps, and the generation and graph counters come from
// one catalog snapshot, so a concurrent publish cannot pair generation
// N with the graph of N+1.
func (s *Server) Stats() StatsResponse {
	snap := s.cat.Snap()
	hits := s.cacheHits.Load()
	composes := s.composes.Load()
	coalesced := s.coalescedHits.Load()
	out := StatsResponse{
		Generation:        snap.Generation(),
		Requests:          hits + composes + coalesced,
		Composes:          composes,
		CacheHits:         hits,
		Coalesced:         coalesced,
		ResultFetches:     s.resultFetches.Load(),
		EliminateAttempts: s.elimAttempts.Load(),
		Warmed:            s.warmed.Load(),
		Migrations:        s.migrations.Load(),
		EntriesMigrated:   s.entriesMigrated.Load(),
		EntriesDropped:    s.entriesDropped.Load(),
		DeltaComputeUS:    s.deltaUS.Load(),
	}
	if s.cache != nil {
		cs := s.cache.stats()
		out.CacheEntries = cs.entries
		out.CacheBytes = cs.bytes
		out.CacheShardCount = len(s.cache.shards)
		out.CacheShardEntries = cs.perShard
	}
	gs := snap.GraphStats()
	out.RegisteredEdges = gs.RegisteredEdges
	out.DerivedEdges = gs.DerivedEdges
	out.InvertibleMappings = gs.InvertibleMappings
	out.ReachablePairs = gs.ReachablePairs
	out.ForwardReachablePairs = gs.ForwardReachablePairs
	if len(gs.Verdicts) > 0 {
		out.InversionVerdicts = gs.Verdicts
	}
	if s.persist != nil {
		st := s.persist.Stats()
		out.Persist = &st
	}
	return out
}

// Warm precomputes compositions for the catalog's connected ordered
// schema pairs, filling the result cache so the first client request
// after a restart is a hit instead of a cold ELIMINATE run. Warm reads
// one catalog snapshot: its Pairs sweep (one BFS per source) supplies
// the pairs in (from, to) name order, and the compositions run against
// it on the internal/par worker pool and stop claiming pairs once ctx
// is cancelled (cmd/mapcompd passes its shutdown context, so a SIGTERM
// during warm-up is not held hostage by the remaining pairs). The
// number of pairs attempted is capped at the cache capacity (warming
// beyond it would evict its own entries), so a capped warm-up takes the
// first pairs in that order. Warm returns the number of
// pairs actually cached — the same count /v1/stats reports as "warmed"
// — and skips pairs whose composition fails: Warm is an optimization
// pass, the request path reports real errors. Pairs already cached with
// a current watermark are skipped, so a warm-up after recovery does not
// recompute entries that survived via migration. Each pair runs under
// the server's compose deadline, if any, so one pathological pair
// cannot stall the whole warm-up. cmd/mapcompd runs Warm in the
// background after recovery.
func (s *Server) Warm(ctx context.Context) int {
	if s.cache == nil {
		return 0
	}
	snap := s.cat.Snap()
	gen := snap.Generation()
	var pairs [][2]string
	for from, to := range snap.Pairs() {
		if len(pairs) >= s.cacheCap {
			break
		}
		if !s.cache.valid(pairKey{from: from, to: to, cfg: s.cfgFP}, gen) {
			pairs = append(pairs, [2]string{from, to})
		}
	}
	var ok atomic.Int64
	_ = par.DoContext(ctx, len(pairs), func(i int) {
		pairCtx, cancel := s.composeContext(ctx, 0)
		defer cancel()
		if _, _, err := s.compose(pairCtx, snap, pairs[i][0], pairs[i][1]); err == nil {
			ok.Add(1)
		}
	})
	s.warmed.Add(ok.Load())
	return int(ok.Load())
}

// writeRaw serves a pre-encoded wire body (no trailing newline) exactly
// as writeJSON would have: the newline the canonical encoder appends is
// written back, and the explicit Content-Length lets net/http skip
// chunked framing for large cached bodies.
func writeRaw(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)+1))
	w.WriteHeader(code)
	_, _ = w.Write(body)
	_, _ = io.WriteString(w, "\n")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := marshalWire(v)
	if err != nil {
		http.Error(w, `{"error":"server: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	writeRaw(w, code, body)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorJSON{Error: err.Error(), RequestID: requestID(w)})
}

// composeStatus maps a resolution/composition error to an HTTP status:
// a preempted composition is a gateway timeout, missing artifacts are
// 404, everything else is a client error.
func composeStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	if errors.Is(err, catalog.ErrUnknownSchema) || errors.Is(err, catalog.ErrNoPath) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// pathError decorates a composition failure with the route the failed
// run itself resolved — partial for a resolution failure, full for a
// composition failure — from the same catalog snapshot the run used, so
// the error body cannot contradict the error under concurrent
// registration. It renders as the underlying error (batch items embed
// just the message) and unwraps for errors.Is/As classification.
type pathError struct {
	path []string
	err  error
}

func (e *pathError) Error() string { return e.err.Error() }
func (e *pathError) Unwrap() error { return e.err }

// composeError builds the error body for a failed composition: the
// route the failed run resolved (see pathError) and, for a preempted
// run, the statistics accumulated before the deadline hit. A run that
// died before resolving anything (deadline already expired at the cache
// probe) reports snap's route as a best effort — the snapshot the
// request was served against. A no-path failure additionally reports
// whether the reverse direction would reach the target and which
// non-invertible mappings block the derived path, so the client learns
// the fix is registering or unlocking an inverse.
func composeError(snap catalog.Snap, from, to string, err error) ErrorJSON {
	out := ErrorJSON{Error: err.Error()}
	var withPath *pathError
	if errors.As(err, &withPath) {
		out.Path = withPath.path
	} else if route, _ := snap.Route(from, to); len(route.Path) > 0 {
		out.Path = route.Path
	}
	var noPath *catalog.NoPathError
	if errors.As(err, &noPath) {
		out.ReverseReachable = noPath.ReverseReachable
		out.InverseBlockedBy = noPath.Blocking
	}
	var canceled *core.Canceled
	if errors.As(err, &canceled) {
		st := newStatsJSON(canceled.Stats)
		out.Stats = &st
	}
	return out
}

// composeContext derives the deadline for one composition from the
// request context: the server-wide bound (ComposeTimeout), optionally
// shortened — never extended — by the request's timeout_ms. A timeout_ms
// too large for a time.Duration (≳292 years in milliseconds) is treated
// as "no shortening" rather than multiplied into an overflowed negative
// duration, which would have let a client slip past the server-wide cap
// (found by FuzzComposeRequest).
func (s *Server) composeContext(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	timeout := s.timeout
	if timeoutMS > 0 && timeoutMS <= math.MaxInt64/int64(time.Millisecond) {
		req := time.Duration(timeoutMS) * time.Millisecond
		if timeout == 0 || req < timeout {
			timeout = req
		}
	}
	if timeout <= 0 {
		// No deadline to add: pass the request context through rather
		// than paying a WithCancel allocation on every request.
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// writeBodyError classifies a body-read failure: an http.MaxBytesReader
// overflow is an explicit 413 — and closes the connection — rather than
// a silently-truncated prefix that might parse or an unbounded read an
// attacker can drive to OOM; anything else is a 400.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("server: %s body exceeds %d bytes", what, tooBig.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad %s request: %v", what, err))
}

// readBody drains the request body through http.MaxBytesReader.
func readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeBodyError(w, what, err)
		return nil, false
	}
	return src, true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.serveRegister(w, r) {
		registerOKSecs.Observe(time.Since(start))
	} else {
		registerErrSecs.Observe(time.Since(start))
	}
}

func (s *Server) serveRegister(w http.ResponseWriter, r *http.Request) bool {
	src, ok := readBody(w, r, "register")
	if !ok {
		return false
	}
	p, err := parser.Parse(string(src))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	if err := parser.Validate(p); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	gen, err := s.cat.Apply(p)
	if err != nil {
		// A durability failure is the server's problem, not the
		// client's: 503 invites a retry, 409 means fix the payload.
		if errors.Is(err, catalog.ErrPersist) {
			writeError(w, http.StatusServiceUnavailable, err)
			return false
		}
		writeError(w, http.StatusConflict, err)
		return false
	}
	writeJSON(w, http.StatusOK, RegisterResponse{
		Generation: gen,
		Schemas:    append([]string{}, p.SchemaOrder...),
		Mappings:   append([]string{}, p.MapOrder...),
	})
	return true
}

// keyString renders a cache key as the wire handle clients fetch results
// by. Schema names are identifiers, so '.' never collides. gen is the
// route generation — the newest mutation that affected this route — so
// the handle (like the entry it names) is stable across unrelated
// catalog mutations.
func keyString(gen uint64, pair pairKey) string {
	return fmt.Sprintf("g%d.%s.%s.%016x", gen, pair.from, pair.to, pair.cfg)
}

// compose resolves and composes one pair of snap through the cache. The
// cache is probed on the pair alone (snap's generation only gates the
// entry's watermark), so a hit skips not just ELIMINATE but also path
// resolution, chain materialization and — because the entry carries its
// pre-encoded wire bytes — response encoding; even the key string is
// only rendered inside the computation. A miss resolves the route in
// snap and watermarks the new entry at snap's generation. The
// response's Generation and Key carry the route generation, which
// unrelated mutations never move — a migrated entry and a fresh
// recompute of an unchanged route are byte-identical. ctx preempts the
// composition between elimination strategies; a preempted run is never
// cached and its in-flight slot is handed off to any live waiter (see
// resultCache).
func (s *Server) compose(ctx context.Context, snap catalog.Snap, from, to string) (*cacheEntry, hitKind, error) {
	pair := pairKey{from: from, to: to, cfg: s.cfgFP}
	run := func(ctx context.Context) (*ComposeResponse, *catalog.Route, uint64, error) {
		if s.composeHook != nil {
			s.composeHook(ctx)
		}
		route, err := snap.Route(from, to)
		if err != nil {
			// route.Path is the partial route this snapshot resolved.
			return nil, nil, 0, &pathError{path: route.Path, err: err}
		}
		res, err := core.ComposeChain(ctx, route.Mappings(), s.cfg)
		if err != nil {
			return nil, nil, 0, &pathError{path: route.Path, err: err}
		}
		s.composes.Add(1)
		s.elimAttempts.Add(int64(res.Stats.Attempted))
		// Verdict partition (Arenas et al.): symbols survived → partial;
		// Skolem functions in the result → skolemized; else closed-form.
		// Aborted (deadline) runs never reach here — the handler records
		// them from the 504 path.
		verdict := "closed"
		switch {
		case len(res.Remaining) > 0:
			verdict = "partial"
		case res.Constraints.ContainsSkolem():
			verdict = "skolemized"
		}
		verdictSeconds[verdict].Observe(res.Stats.Duration)
		hops := make([]HopJSON, len(route.Hops))
		for i, h := range route.Hops {
			hops[i] = HopJSON{Mapping: h.Mapping, From: h.From, To: h.To, Provenance: string(h.Prov)}
		}
		return &ComposeResponse{
			From: from, To: to, Path: route.Path, Hops: hops,
			Generation: route.Gen, Key: keyString(route.Gen, pair),
			Result: NewResultJSON(res),
		}, route, snap.Generation(), nil
	}
	if s.cache == nil {
		resp, _, _, err := run(ctx)
		if err != nil {
			return nil, computed, err
		}
		return &cacheEntry{pair: pair, resp: resp}, computed, nil
	}
	ent, kind, err := s.cache.do(ctx, pair, snap.Generation(), run)
	switch kind {
	case cacheHit:
		s.cacheHits.Add(1)
	case coalesced:
		s.coalescedHits.Add(1)
	}
	return ent, kind, err
}

// respond returns a per-caller copy of resp with the Cached flag set:
// the caller that ran the composition reports false, everyone served
// from the cache or an in-flight computation reports true.
func respond(resp *ComposeResponse, kind hitKind) *ComposeResponse {
	out := *resp
	out.Cached = kind != computed
	return &out
}

// writeEntry serves one composition outcome. Anything served from the
// cache — a hit, a coalesced waiter — writes the entry's pre-encoded
// cached=true bytes verbatim (zero marshals); the caller that computed
// pays the one encode for its cached=false body. The nil-enc fallback
// covers cache-disabled servers and the (theoretical) encode failure.
func writeEntry(w http.ResponseWriter, ent *cacheEntry, kind hitKind) {
	if kind != computed && ent.enc != nil {
		writeRaw(w, http.StatusOK, ent.enc)
		return
	}
	writeJSON(w, http.StatusOK, respond(ent.resp, kind))
}

// entryWire returns the wire bytes of one outcome for splicing into a
// batch envelope: cached outcomes reuse the entry's pre-encoded bytes,
// fresh computations encode once.
func entryWire(ent *cacheEntry, kind hitKind) ([]byte, error) {
	if kind != computed && ent.enc != nil {
		return ent.enc, nil
	}
	return marshalWire(respond(ent.resp, kind))
}

// bodyBufs pools the scratch buffers request bodies are read into.
// json.Unmarshal copies every string it keeps, so a buffer never
// outlives its handler call. Buffers grown past maxPooledBody (a large
// batch body can reach maxBodyBytes = 8 MiB) are dropped instead of
// pooled, so a burst of huge requests cannot pin one oversized buffer
// per P until the next GC; compose bodies are normally tens of bytes.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// readBodyBuf reads the request body through MaxBytesReader into a
// pooled buffer. The caller owns putBodyBuf-ing the buffer when the
// bytes are no longer referenced — the zero-alloc scanner hands out
// sub-slices of it, so the return must happen after the request is
// fully served, never earlier. A MaxBytesReader overflow surfaces as
// the error (classify with writeBodyError → 413).
func readBodyBuf(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	buf := bodyBufs.Get().(*bytes.Buffer)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		putBodyBuf(buf)
		return nil, err
	}
	return buf, nil
}

// putBodyBuf recycles a body buffer. Buffers grown past maxPooledBody
// are dropped, keeping the discipline documented on bodyBufs.
func putBodyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyBufs.Put(buf)
	}
}

func (s *Server) handleCompose(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	out := s.serveCompose(w, r)
	d := time.Since(start)
	composeSeconds[out].Observe(d)
	if out == outTimeout {
		verdictSeconds["aborted"].Observe(d)
	}
}

// serveCompose runs one compose request and reports its outcome for
// the route histograms. A traced request ("trace":true) carries an
// obs.Trace in its context — the layers below record their stages into
// it — and its response is marshaled fresh with the trace block (the
// pre-encoded cache bytes stay trace-free).
//
// The request body goes through the zero-alloc scanner first: on the
// bodies it recognizes (which is every body mapcompose and the
// benchmarks send) the scanned view probes the result cache with
// zero-copy strings aliasing the pooled buffer, so a cache hit decodes,
// probes and serves without a single heap allocation for parsing —
// TestComposeHitPathAllocBound pins the whole hit path's budget.
// Anything the scanner declines falls back to json.Unmarshal with
// identical semantics (FuzzComposeRequest enforces the equivalence).
func (s *Server) serveCompose(w http.ResponseWriter, r *http.Request) composeOutcome {
	buf, err := readBodyBuf(w, r)
	if err != nil {
		writeBodyError(w, "compose", err)
		return outError
	}
	defer putBodyBuf(buf)
	body := buf.Bytes()

	snap := s.cat.Snap()
	var req ComposeRequest
	if view, scanned := scanComposeRequest(body); scanned {
		if s.cache != nil && !view.trace && len(view.from) > 0 && len(view.to) > 0 {
			// The zero-copy fast path: probe with strings aliasing the
			// body buffer. A hit is served entirely from stored bytes; a
			// miss materializes the request and takes the ordinary path
			// (which owns every string it retains).
			if ent, ok := s.cache.probe(view.pair(s.cfgFP), snap.Generation()); ok {
				s.cacheHits.Add(1)
				writeEntry(w, ent, cacheHit)
				return outHit
			}
		}
		req = view.request()
	} else if err := json.Unmarshal(body, &req); err != nil {
		writeBodyError(w, "compose", err)
		return outError
	}
	if req.From == "" || req.To == "" {
		writeError(w, http.StatusBadRequest, errors.New("server: compose request needs from and to"))
		return outError
	}
	ctx, cancel := s.composeContext(r.Context(), req.TimeoutMS)
	defer cancel()
	var ent *cacheEntry
	var kind hitKind
	var tr *obs.Trace
	if req.Trace {
		ctx, tr = obs.WithTrace(ctx)
		t0 := time.Now()
		ent, kind, err = s.compose(ctx, snap, req.From, req.To)
		tr.Observe("server/compose", time.Since(t0))
	} else {
		ent, kind, err = s.compose(ctx, snap, req.From, req.To)
	}
	if err != nil {
		status := composeStatus(err)
		errBody := composeError(snap, req.From, req.To, err)
		errBody.RequestID = requestID(w)
		writeJSON(w, status, &errBody)
		if status == http.StatusGatewayTimeout {
			return outTimeout
		}
		return outError
	}
	if tr != nil {
		resp := respond(ent.resp, kind)
		resp.Trace = newTraceJSON(requestID(w), tr)
		writeJSON(w, http.StatusOK, resp)
	} else {
		writeEntry(w, ent, kind)
	}
	switch kind {
	case cacheHit:
		return outHit
	case coalesced:
		return outCoalesced
	default:
		return outMiss
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.serveBatch(w, r) {
		batchOKSeconds.Observe(time.Since(start))
	} else {
		batchErrSeconds.Observe(time.Since(start))
	}
}

// batchOut is one in-flight batch outcome: raw holds the item's
// pre-encoded response document, status/errBody the structured
// failure — the same
// ErrorJSON body and HTTP status the pair would have produced as a
// single compose request.
type batchOut struct {
	raw     []byte
	status  int
	errBody *ErrorJSON
}

func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) bool {
	buf, err := readBodyBuf(w, r)
	if err != nil {
		writeBodyError(w, "batch", err)
		return false
	}
	defer putBodyBuf(buf)
	body := buf.Bytes()

	var req BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeBodyError(w, "batch", err)
		return false
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("server: batch request needs at least one pair"))
		return false
	}
	if len(req.Requests) > maxBatch {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: batch of %d exceeds limit %d", len(req.Requests), maxBatch))
		return false
	}
	reqID := requestID(w)
	items := make([]batchOut, len(req.Requests))
	// The batch fans out over the worker pool under the request context:
	// a disconnected client stops the sweep, and each item gets its own
	// compose deadline so one pathological pair cannot eat the batch.
	// Every item resolves against one catalog snapshot.
	snap := s.cat.Snap()
	ctxErr := par.DoContext(r.Context(), len(req.Requests), func(i int) {
		q := req.Requests[i]
		if q.From == "" || q.To == "" {
			items[i].status = http.StatusBadRequest
			items[i].errBody = &ErrorJSON{Error: "server: compose request needs from and to", RequestID: reqID}
			return
		}
		ctx, cancel := s.composeContext(r.Context(), q.TimeoutMS)
		defer cancel()
		var tr *obs.Trace
		if q.Trace {
			ctx, tr = obs.WithTrace(ctx)
		}
		ent, kind, err := s.compose(ctx, snap, q.From, q.To)
		if err != nil {
			eb := composeError(snap, q.From, q.To, err)
			eb.RequestID = reqID
			items[i].status = composeStatus(err)
			items[i].errBody = &eb
			return
		}
		var raw []byte
		if tr != nil {
			resp := respond(ent.resp, kind)
			resp.Trace = newTraceJSON(reqID, tr)
			raw, err = marshalWire(resp)
		} else {
			raw, err = entryWire(ent, kind)
		}
		if err != nil {
			items[i].status = http.StatusInternalServerError
			items[i].errBody = &ErrorJSON{Error: err.Error(), RequestID: reqID}
			return
		}
		items[i].raw = raw
	})
	// DoContext reports the context's error exactly when cancellation
	// left items unrun. Those items must not ship as empty objects:
	// mark each one with an explicit cancellation error and surface the
	// batch-level outcome in the envelope, so a client can tell "this
	// pair failed" from "the batch died before this pair ran".
	canceled := ctxErr != nil
	if canceled {
		for i := range items {
			if items[i].raw == nil && items[i].errBody == nil {
				items[i].status = http.StatusGatewayTimeout
				items[i].errBody = &ErrorJSON{
					Error:     "server: batch canceled before this item ran: " + ctxErr.Error(),
					RequestID: reqID,
				}
			}
		}
	}
	wireItems := make([]batchItemWire, len(items))
	for i := range items {
		wireItems[i] = batchItemWire{Response: items[i].raw, Status: items[i].status, Error: items[i].errBody}
	}
	writeJSON(w, http.StatusOK, batchResponseWire{Results: wireItems, Canceled: canceled})
	return !canceled
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	key := r.PathValue("key")
	if s.cache != nil {
		if ent, ok := s.cache.get(key); ok {
			s.resultFetches.Add(1)
			writeEntry(w, ent, cacheHit)
			fetchHitSeconds.Observe(time.Since(start))
			return
		}
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("server: no cached result for key %s", key))
	fetchMissSeconds.Observe(time.Since(start))
}

func (s *Server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	schemas, maps, gen := s.cat.Snapshot()
	out := CatalogResponse{
		Generation: gen,
		Schemas:    make([]SchemaJSON, len(schemas)),
		Mappings:   make([]MappingJSON, len(maps)),
	}
	for i, e := range schemas {
		sj := SchemaJSON{
			Name: e.Name, Version: e.Version, Generation: e.Generation,
			Relations: make(map[string]int, len(e.Schema.Sig)),
		}
		for name, ar := range e.Schema.Sig {
			sj.Relations[name] = ar
		}
		if len(e.Schema.Keys) > 0 {
			sj.Keys = make(map[string][]int, len(e.Schema.Keys))
			for name, cols := range e.Schema.Keys {
				sj.Keys[name] = cols
			}
		}
		out.Schemas[i] = sj
	}
	for i, e := range maps {
		mj := MappingJSON{
			Name: e.Name, From: e.From, To: e.To,
			Version: e.Version, Generation: e.Generation,
			Constraints: make([]string, len(e.Constraints)),
		}
		for j, c := range e.Constraints {
			mj.Constraints[j] = c.String()
		}
		out.Mappings[i] = mj
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
