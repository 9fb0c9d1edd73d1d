package server

// Serving telemetry: the per-route/per-outcome request histograms, the
// verdict-partitioned compose histograms, the GET /metrics endpoint
// (Prometheus text format, stdlib only), and the per-request trace
// support (X-Request-Id, "trace":true). Instruments are resolved once
// at package init so the hit path pays two time.Now calls and one
// histogram Observe — nothing else.

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"

	"mapcomp/internal/obs"
)

// composeOutcome classifies one compose request for the route
// histograms.
type composeOutcome int

const (
	outHit composeOutcome = iota
	outMiss
	outCoalesced
	outTimeout
	outError
)

// reqHistName is the end-to-end request latency histogram, partitioned
// by route and outcome. CI greps /metrics for its compose series after
// the smoke chain request.
const reqHistName = "mapcomp_http_request_seconds"

var (
	composeSeconds = [...]*obs.Histogram{
		outHit:       obs.Hist(reqHistName, `route="compose",outcome="hit"`),
		outMiss:      obs.Hist(reqHistName, `route="compose",outcome="miss"`),
		outCoalesced: obs.Hist(reqHistName, `route="compose",outcome="coalesced"`),
		outTimeout:   obs.Hist(reqHistName, `route="compose",outcome="timeout"`),
		outError:     obs.Hist(reqHistName, `route="compose",outcome="error"`),
	}
	batchOKSeconds    = obs.Hist(reqHistName, `route="batch",outcome="ok"`)
	batchErrSeconds   = obs.Hist(reqHistName, `route="batch",outcome="error"`)
	fetchHitSeconds   = obs.Hist(reqHistName, `route="fetch",outcome="hit"`)
	fetchMissSeconds  = obs.Hist(reqHistName, `route="fetch",outcome="miss"`)
	registerOKSecs    = obs.Hist(reqHistName, `route="register",outcome="ok"`)
	registerErrSecs   = obs.Hist(reqHistName, `route="register",outcome="error"`)
	slowRequestsTotal = obs.Count("mapcomp_slow_requests_total", "")
)

// Verdict-partitioned composition timings (Arenas et al.: closed-form
// vs Skolemized vs aborted). A run with surviving σ2 symbols is
// "partial" (the §1.3 best-effort contract), one whose result still
// carries Skolem functions is "skolemized", a clean first-order result
// is "closed", and a deadline-preempted run is "aborted". The observed
// value is the composition's own duration (aborted: the request's).
var verdictSeconds = map[string]*obs.Histogram{
	"closed":     obs.Hist("mapcomp_compose_verdict_seconds", `verdict="closed"`),
	"skolemized": obs.Hist("mapcomp_compose_verdict_seconds", `verdict="skolemized"`),
	"partial":    obs.Hist("mapcomp_compose_verdict_seconds", `verdict="partial"`),
	"aborted":    obs.Hist("mapcomp_compose_verdict_seconds", `verdict="aborted"`),
}

// Cache-survival timings: the publish hook's two phases as histograms
// (the delta_compute_us stats counter stays for compatibility; these
// carry the distribution). The delta histogram times ComputeDelta's
// shape diff, one pass over the mapping lists; the per-entry route
// checks, and any BFS a shape change makes them run, land in the
// migrate histogram. Both run inside the catalog write lock, so both
// sit inside the catalog_apply ledger row.
var (
	deltaComputeSeconds = obs.Hist("mapcomp_cache_delta_compute_seconds", "")
	cacheMigrateSeconds = obs.Hist("mapcomp_cache_migrate_seconds", "")
)

// reqSeq and idPrefix build X-Request-Id values: a per-process random
// prefix (so IDs from different replicas never collide in aggregated
// logs) plus a sequence number. One ID costs two small allocations and
// no locking.
var (
	reqSeq   atomic.Uint64
	idPrefix = func() string {
		var b [4]byte
		_, _ = rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
)

func nextRequestID() string {
	b := make([]byte, 0, 26)
	b = append(b, idPrefix...)
	b = append(b, '-')
	b = strconv.AppendUint(b, reqSeq.Add(1), 16)
	return string(b)
}

// requestID reads back the ID ServeHTTP assigned, for error bodies and
// trace documents. The response header is the single source of truth —
// the ID is deliberately not threaded through contexts, which would
// cost a context allocation per request on the hit path.
func requestID(w http.ResponseWriter) string {
	return w.Header().Get("X-Request-Id")
}

// statusWriter captures the response status for slow-request logging.
// It only wraps the ResponseWriter when logging is armed, so the
// default path hands handlers the original writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// newTraceJSON renders a request's recorded stages for the inline
// "trace":true response block.
func newTraceJSON(requestID string, tr *obs.Trace) *TraceJSON {
	stages := tr.Stages()
	out := &TraceJSON{RequestID: requestID, Stages: make([]StageJSON, len(stages))}
	for i, st := range stages {
		out.Stages[i] = StageJSON{Name: st.Name, DurUS: float64(st.Dur.Nanoseconds()) / 1000}
	}
	return out
}

// handleMetrics serves GET /metrics: the server's own gauges (rendered
// from one Stats() pass, so the counter identity holds within the
// scrape) followed by every registered histogram and counter. The
// handler reads no request body, takes no singleflight slot and holds
// no lock beyond the registry's map mutex, so it stays responsive
// during a compose timeout storm.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	s.writeServerMetrics(&buf)
	obs.Default.WritePrometheus(&buf)
	_, _ = w.Write(buf.Bytes())
}

// MetricsHandler exposes the /metrics endpoint as a standalone handler,
// for mounting on a private debug listener (mapcompd -debug-addr).
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// writeServerMetrics renders the server's lifetime counters and cache
// gauges in the Prometheus text format, all derived from a single
// Stats() snapshot.
func (s *Server) writeServerMetrics(buf *bytes.Buffer) {
	st := s.Stats()
	counter := func(name string, v int64) {
		fmt.Fprintf(buf, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(buf, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	counter("mapcomp_requests_total", st.Requests)
	counter("mapcomp_composes_total", st.Composes)
	counter("mapcomp_cache_hits_total", st.CacheHits)
	counter("mapcomp_coalesced_total", st.Coalesced)
	counter("mapcomp_result_fetches_total", st.ResultFetches)
	counter("mapcomp_eliminate_attempts_total", st.EliminateAttempts)
	counter("mapcomp_cache_migrations_total", st.Migrations)
	counter("mapcomp_cache_entries_migrated_total", st.EntriesMigrated)
	counter("mapcomp_cache_entries_dropped_total", st.EntriesDropped)
	counter("mapcomp_warmed_total", st.Warmed)
	gauge("mapcomp_generation", int64(st.Generation))
	gauge("mapcomp_cache_entries", int64(st.CacheEntries))
	gauge("mapcomp_cache_bytes", st.CacheBytes)
	// Bidirectional mapping-graph gauges, from the same snapshot. The
	// verdict gauge is labeled by reason so dashboards can plot exactly
	// which constraint shapes block inversion.
	gauge("mapcomp_registered_edges", int64(st.RegisteredEdges))
	gauge("mapcomp_derived_inverse_edges", int64(st.DerivedEdges))
	gauge("mapcomp_invertible_mappings", int64(st.InvertibleMappings))
	gauge("mapcomp_reachable_pairs", int64(st.ReachablePairs))
	gauge("mapcomp_forward_reachable_pairs", int64(st.ForwardReachablePairs))
	if len(st.InversionVerdicts) > 0 {
		fmt.Fprintf(buf, "# TYPE mapcomp_inversion_verdicts gauge\n")
		reasons := make([]string, 0, len(st.InversionVerdicts))
		for r := range st.InversionVerdicts {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(buf, "mapcomp_inversion_verdicts{reason=%q} %d\n", r, st.InversionVerdicts[r])
		}
	}
}
