package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"

	"mapcomp/internal/core"
	"mapcomp/internal/persist"
)

// Wire types of the mapcompd HTTP/JSON API. cmd/mapcompose reuses
// ResultJSON (via NamedResultJSON) for its -format json output, so the
// command line and the service emit identical result documents.

// EncodeWire writes v in the canonical wire encoding every response
// body uses: JSON with HTML escaping disabled (constraints render
// operators like <= literally) and a trailing newline. indent is the
// per-level indent string ("" emits the compact single-line form the
// HTTP handlers serve; cmd/mapcompose passes two spaces). Having one
// encoder means the bytes a cache entry pre-encodes, the bytes writeJSON
// marshals, the bytes batch responses splice and the documents
// mapcompose emits can never drift apart.
func EncodeWire(w io.Writer, v any, indent string) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if indent != "" {
		enc.SetIndent("", indent)
	}
	return enc.Encode(v)
}

// wireEncodes counts response-body marshals. The hit path serves
// pre-encoded bytes and must never bump it — the zero-marshal tests and
// BenchmarkServerComposeHit assert exactly that.
var wireEncodes atomic.Int64

// marshalWire renders v as one compact wire body without the trailing
// newline EncodeWire appends (writeRaw adds it back when serving, and
// batch responses splice the bare bytes as a json.RawMessage).
func marshalWire(v any) ([]byte, error) {
	wireEncodes.Add(1)
	var buf bytes.Buffer
	if err := EncodeWire(&buf, v, ""); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	return b[:len(b)-1], nil
}

// ErrorJSON is the body of every non-2xx response. For failed compose
// requests Path names the route resolved so far — the partial route
// toward the target when no chain connects the endpoints (ErrNoPath),
// or the fully resolved chain when composition itself failed — and
// Stats carries the partial progress of a run preempted by its deadline
// (504), so a timeout reports how far ELIMINATE got instead of nothing.
type ErrorJSON struct {
	Error string     `json:"error"`
	Path  []string   `json:"path,omitempty"`
	Stats *StatsJSON `json:"stats,omitempty"`
	// ReverseReachable marks a no-path failure where walking registered
	// mappings against their direction would have reached the target:
	// the fix is registering an inverse, or making the mappings listed
	// in InverseBlockedBy invertible.
	ReverseReachable bool `json:"reverse_reachable,omitempty"`
	// InverseBlockedBy lists the mappings whose failed inversion
	// verdicts block the reverse path, sorted.
	InverseBlockedBy []string `json:"inverse_blocked_by,omitempty"`
	// RequestID echoes the X-Request-Id the server assigned at ingress,
	// so a failed request can be found in the logs from its body alone.
	RequestID string `json:"request_id,omitempty"`
}

// StatsJSON mirrors core.Stats.
type StatsJSON struct {
	Attempted   int            `json:"attempted"`
	Eliminated  int            `json:"eliminated"`
	ByStep      map[string]int `json:"by_step,omitempty"`
	BlowupFails int            `json:"blowup_fails,omitempty"`
	DurationMS  float64        `json:"duration_ms"`
}

// ResultJSON is the wire form of a core.Result. Constraints render in
// the parser's concrete syntax, so a client can feed them back through
// the text format; Fingerprint is the order-independent
// ConstraintSet.Fingerprint as 16 hex digits.
type ResultJSON struct {
	Signature   map[string]int    `json:"signature"`
	Constraints []string          `json:"constraints"`
	Eliminated  map[string]string `json:"eliminated,omitempty"`
	Remaining   []string          `json:"remaining,omitempty"`
	Fingerprint string            `json:"fingerprint"`
	Stats       StatsJSON         `json:"stats"`
}

// newStatsJSON converts run statistics to their wire form; error bodies
// reuse it for the partial stats of a preempted composition.
func newStatsJSON(st *core.Stats) StatsJSON {
	out := StatsJSON{
		Attempted:   st.Attempted,
		Eliminated:  st.Eliminated,
		BlowupFails: st.BlowupFails,
		DurationMS:  float64(st.Duration.Microseconds()) / 1000,
	}
	if len(st.ByStep) > 0 {
		out.ByStep = make(map[string]int, len(st.ByStep))
		for s, n := range st.ByStep {
			out.ByStep[string(s)] = n
		}
	}
	return out
}

// NewResultJSON converts a composition result to its wire form.
func NewResultJSON(r *core.Result) *ResultJSON {
	out := &ResultJSON{
		Signature:   make(map[string]int, len(r.Sig)),
		Constraints: make([]string, len(r.Constraints)),
		Remaining:   r.Remaining,
		Fingerprint: fmt.Sprintf("%016x", r.Constraints.Fingerprint()),
		Stats:       newStatsJSON(r.Stats),
	}
	for name, ar := range r.Sig {
		out.Signature[name] = ar
	}
	for i, c := range r.Constraints {
		out.Constraints[i] = c.String()
	}
	if len(r.Eliminated) > 0 {
		out.Eliminated = make(map[string]string, len(r.Eliminated))
		for s, step := range r.Eliminated {
			out.Eliminated[s] = string(step)
		}
	}
	return out
}

// NamedResultJSON is the document cmd/mapcompose emits per compose
// declaration with -format json.
type NamedResultJSON struct {
	Name   string      `json:"name"`
	Result *ResultJSON `json:"result"`
}

// RegisterResponse reports one catalog mutation.
type RegisterResponse struct {
	Generation uint64   `json:"generation"`
	Schemas    []string `json:"schemas"`
	Mappings   []string `json:"mappings"`
}

// ComposeRequest asks for the composition σFrom→σTo over the current
// catalog. TimeoutMS, when positive, bounds this request's composition
// in milliseconds; the effective deadline is the tighter of it and the
// server's -compose-timeout (a request can shorten its deadline, never
// extend past the server's). An expired deadline returns 504 with the
// partial statistics, and the preempted result is never cached.
type ComposeRequest struct {
	From      string `json:"from"`
	To        string `json:"to"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Trace requests the inline stage-timing breakdown: the response
	// carries a TraceJSON with per-stage durations (chain hops, server
	// compose time). Traced responses are marshaled fresh — they never
	// reuse the cache's pre-encoded bytes — so tracing is strictly
	// opt-in diagnostic traffic.
	Trace bool `json:"trace,omitempty"`
}

// ComposeResponse carries one composition outcome. Key identifies the
// cached result (fetchable via GET /v1/results/{key}); Cached reports
// whether this response was served from the result cache rather than by
// running ELIMINATE.
type ComposeResponse struct {
	From string   `json:"from"`
	To   string   `json:"to"`
	Path []string `json:"path"`
	// Hops details each hop of Path: the schemas it connects in the
	// direction traveled and whether it rides the registered mapping
	// forward or its derived inverse.
	Hops       []HopJSON   `json:"hops,omitempty"`
	Generation uint64      `json:"generation"`
	Key        string      `json:"key"`
	Cached     bool        `json:"cached"`
	Result     *ResultJSON `json:"result"`
	// Trace carries the stage-timing breakdown of a "trace":true
	// request; absent otherwise (cached entries pre-encode without it).
	Trace *TraceJSON `json:"trace,omitempty"`
}

// HopJSON is the wire form of one route hop. Provenance is
// "registered" for a mapping traversed in its registered direction and
// "derived-inverse" for a hop riding the mapping's quasi-inverse.
type HopJSON struct {
	Mapping    string `json:"mapping"`
	From       string `json:"from"`
	To         string `json:"to"`
	Provenance string `json:"provenance"`
}

// TraceJSON is the inline stage-timing breakdown of a traced request.
type TraceJSON struct {
	RequestID string      `json:"request_id,omitempty"`
	Stages    []StageJSON `json:"stages"`
}

// StageJSON is one named stage timing (a chain hop, the server's
// compose span) in microseconds.
type StageJSON struct {
	Name  string  `json:"name"`
	DurUS float64 `json:"dur_us"`
}

// BatchRequest asks for several compositions in one round trip.
type BatchRequest struct {
	Requests []ComposeRequest `json:"requests"`
}

// BatchItem is one outcome of a batch: a response or a per-item error
// (a bad pair does not fail the rest of the batch). A failed item
// carries the same structured ErrorJSON body single compose returns —
// partial stats, reverse-reachability hints, request ID — plus the
// HTTP status single compose would have answered with, so batching
// loses no error fidelity. Exactly one of Response and Error is set.
type BatchItem struct {
	Response *ComposeResponse `json:"response,omitempty"`
	// Status is the HTTP status the item would have received as a single
	// compose request (400/404/504); 0 on success.
	Status int        `json:"status,omitempty"`
	Error  *ErrorJSON `json:"error,omitempty"`
}

// BatchResponse carries the outcomes in request order. Canceled
// reports that the request's context ended before every item ran:
// the unprocessed items carry an explicit cancellation error (never an
// empty object), and the processed ones are genuine outcomes.
type BatchResponse struct {
	Results  []BatchItem `json:"results"`
	Canceled bool        `json:"canceled,omitempty"`
}

// batchItemWire and batchResponseWire are the server-side encode shapes
// of BatchItem/BatchResponse: Response holds the item's pre-encoded
// wire bytes (a cached entry's bytes verbatim for hits, one marshal for
// fresh computations), spliced into the envelope as a json.RawMessage
// so a batch of hits re-encodes nothing per item. Clients decode the
// identical wire form with the public types.
type batchItemWire struct {
	Response json.RawMessage `json:"response,omitempty"`
	Status   int             `json:"status,omitempty"`
	Error    *ErrorJSON      `json:"error,omitempty"`
}

type batchResponseWire struct {
	Results  []batchItemWire `json:"results"`
	Canceled bool            `json:"canceled,omitempty"`
}

// SchemaJSON describes one catalog schema revision.
type SchemaJSON struct {
	Name       string           `json:"name"`
	Version    int              `json:"version"`
	Generation uint64           `json:"generation"`
	Relations  map[string]int   `json:"relations"`
	Keys       map[string][]int `json:"keys,omitempty"`
}

// MappingJSON describes one catalog mapping revision.
type MappingJSON struct {
	Name        string   `json:"name"`
	From        string   `json:"from"`
	To          string   `json:"to"`
	Version     int      `json:"version"`
	Generation  uint64   `json:"generation"`
	Constraints []string `json:"constraints"`
}

// CatalogResponse is the full catalog listing.
type CatalogResponse struct {
	Generation uint64        `json:"generation"`
	Schemas    []SchemaJSON  `json:"schemas"`
	Mappings   []MappingJSON `json:"mappings"`
}

// StatsResponse is the server's instrumentation snapshot. Composes
// counts compositions actually run (cache misses), EliminateAttempts the
// summed per-symbol ELIMINATE attempts of those runs — the step-count
// instrumentation that lets tests and operators verify cache hits do not
// re-run the algorithm. CacheHits counts compose requests served from
// the LRU, Coalesced requests that waited on an identical in-flight
// computation instead of starting their own, and ResultFetches cached
// results served via GET /v1/results/{key} (kept separate so the
// hit-rate ratio CacheHits:Composes stays meaningful).
// Warmed counts cache entries precomputed by the post-recovery warm-up
// pass, and Persist carries the durability backend's counters (WAL
// size, snapshot coverage, recovery summary) when the daemon runs with
// a data directory. CacheShardCount is the result cache's shard count
// (derived from GOMAXPROCS, fewer for small budgets) and
// CacheShardEntries the per-shard entry counts, so an operator can see
// whether the key-hash distribution is balanced.
//
// The migration block instruments generation-delta cache survival:
// Migrations counts catalog publishes the cache transitioned across,
// EntriesMigrated/EntriesDropped the cumulative per-publish split of
// surviving vs delta-invalidated entries, and DeltaComputeUS the
// cumulative snapshot shape-diff time in microseconds (the per-entry
// route checks count as migration). CacheBytes is the exact byte charge
// of the cached entries — pre-encoded bodies, keys and per-entry
// overhead — which the Config.CacheBytes budget bounds.
type StatsResponse struct {
	Generation uint64 `json:"generation"`
	// Requests is derived as CacheHits + Composes + Coalesced from one
	// load of each counter, so the identity holds in every snapshot.
	Requests          int64 `json:"requests"`
	Composes          int64 `json:"composes"`
	CacheHits         int64 `json:"cache_hits"`
	Coalesced         int64 `json:"coalesced"`
	ResultFetches     int64 `json:"result_fetches"`
	EliminateAttempts int64 `json:"eliminate_attempts"`
	CacheEntries      int   `json:"cache_entries"`
	CacheBytes        int64 `json:"cache_bytes,omitempty"`
	CacheShardCount   int   `json:"cache_shards,omitempty"`
	CacheShardEntries []int `json:"cache_shard_entries,omitempty"`
	Migrations        int64 `json:"migrations,omitempty"`
	EntriesMigrated   int64 `json:"entries_migrated,omitempty"`
	EntriesDropped    int64 `json:"entries_dropped,omitempty"`
	DeltaComputeUS    int64 `json:"delta_compute_us,omitempty"`
	Warmed            int64 `json:"warmed,omitempty"`
	// Bidirectional-graph statistics, from the snapshot Generation
	// names: edge counts by provenance, reachable ordered pairs over the
	// full graph vs registered edges only, and the constraint-level
	// inversion verdict tally keyed by reason ("ok" for invertible).
	RegisteredEdges       int            `json:"registered_edges,omitempty"`
	DerivedEdges          int            `json:"derived_edges,omitempty"`
	InvertibleMappings    int            `json:"invertible_mappings,omitempty"`
	ReachablePairs        int            `json:"reachable_pairs,omitempty"`
	ForwardReachablePairs int            `json:"forward_reachable_pairs,omitempty"`
	InversionVerdicts     map[string]int `json:"inversion_verdicts,omitempty"`
	Persist               *persist.Stats `json:"persist,omitempty"`
}
