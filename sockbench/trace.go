package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapcomp/internal/catalog"
	"mapcomp/internal/persist"
	"mapcomp/internal/server"
)

// span is one timed interval of a request or a publish. Spans of one
// request share its ID (the server's X-Request-Id); Parent names the
// enclosing span of the same ID.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Tag    string `json:"tag,omitempty"` // "hit" or "miss" on client.request
	Start  int64  `json:"start_ns"`      // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the part its children cover
}

// recorder keeps spans in memory while on; they are written out once,
// when the traced run ends.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(id, name, parent, tag string, start, end time.Time) {
	if !r.on.Load() {
		return
	}
	s := span{ID: id, Name: name, Parent: parent, Tag: tag,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// setSelfTimes fills every span's self time: its duration minus the
// union of its children's intervals clipped to its own, so overlapping
// children are not subtracted twice.
func setSelfTimes(spans []span) {
	byID := make(map[string][]int)
	for i, s := range spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	for _, idx := range byID {
		for _, pi := range idx {
			p := &spans[pi]
			var kids [][2]int64
			for _, ci := range idx {
				if c := spans[ci]; ci != pi && c.Parent == p.Name {
					if lo, hi := max(c.Start, p.Start), min(c.End, p.End); lo < hi {
						kids = append(kids, [2]int64{lo, hi})
					}
				}
			}
			p.Self = p.End - p.Start - covered(kids)
		}
	}
}

// covered is the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, lo, hi int64
	for i, x := range iv {
		if i == 0 || x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else {
			hi = max(hi, x[1])
		}
	}
	return total + hi - lo
}

// overAttribution is how far the named children of a ledger row may add
// up beyond their parent before the run is flagged.
const overAttribution = 1.10

// ledgerRow attributes a parent's total time to its named children.
type ledgerRow struct {
	Parent       string             `json:"parent"`
	ParentMS     float64            `json:"parent_ms"`
	ChildrenMS   map[string]float64 `json:"children_ms"`
	Unattributed float64            `json:"unattributed_share"`
	Flagged      bool               `json:"over_attributed"`
}

func newLedgerRow(parent string, parentMS float64, children map[string]float64) ledgerRow {
	var sum float64
	for _, v := range children {
		sum += v
	}
	return ledgerRow{Parent: parent, ParentMS: parentMS, ChildrenMS: children,
		Unattributed: ratio(parentMS-sum, parentMS), Flagged: sum > parentMS*overAttribution}
}

// spanHandler records server.handle around Server.ServeHTTP for compose
// requests while tracing is on, and adds nothing while it is off.
type spanHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() || r.URL.Path != "/v1/compose" {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.add(w.Header().Get("X-Request-Id"), "server.handle", "client.request", "", start, time.Now())
}

// timedLogger is the catalog's durability logger: persist.Store, with a
// persist.wal_append span around every append. id is the publish being
// applied; only the single publishing goroutine sets it.
type timedLogger struct {
	store *persist.Store
	rec   *recorder
	id    string
}

func (l *timedLogger) AppendMutation(m *catalog.Mutation) error {
	start := time.Now()
	err := l.store.AppendMutation(m)
	l.rec.add(l.id, "persist.wal_append", "catalog.apply", "", start, time.Now())
	return err
}

// tracedPublisher publishes in process, as the trace ledger needs:
// parser.Parse and parser.Validate, then Catalog.Apply, which logs to
// the WAL and runs the server's publish hook (delta and migrate).
type tracedPublisher struct {
	cat *catalog.Catalog
	wal *timedLogger
	rec *recorder
	n   int
}

func (p *tracedPublisher) publish(_ context.Context, text string) error {
	p.n++
	id := "publish-" + strconv.Itoa(p.n)
	start := time.Now()
	prob, err := parseTask(text)
	parsed := time.Now()
	p.rec.add(id, "parser.parse", "client.publish", "", start, parsed)
	if err == nil {
		p.wal.id = id
		_, err = p.cat.Apply(prob)
	}
	end := time.Now()
	p.rec.add(id, "catalog.apply", "client.publish", "", parsed, end)
	p.rec.add(id, "client.publish", "", "", start, end)
	return err
}

// serverStats is the part of GET /v1/stats the benchmark reads.
type serverStats struct {
	Requests              float64 `json:"requests"`
	CacheHits             float64 `json:"cache_hits"`
	CacheEntries          float64 `json:"cache_entries"`
	CacheBytes            float64 `json:"cache_bytes"`
	Migrations            float64 `json:"migrations"`
	EntriesMigrated       float64 `json:"entries_migrated"`
	EntriesDropped        float64 `json:"entries_dropped"`
	EliminateAttempts     float64 `json:"eliminate_attempts"`
	ReachablePairs        float64 `json:"reachable_pairs"`
	ForwardReachablePairs float64 `json:"forward_reachable_pairs"`
}

// scrape reads GET /metrics into series → value. Only _sum, _count and
// counter series are read; quantile lines are skipped.
func scrape(ctx context.Context, c *conn) (map[string]float64, error) {
	var buf bytes.Buffer
	status, _, err := c.do(ctx, http.MethodGet, "/metrics", nil, &buf)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") || strings.Contains(line, "quantile=") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// metricsDiff reads /metrics series differences over the traced window.
// A series the server no longer exports yields NaN (reported as null)
// and one warning.
type metricsDiff struct {
	before, after map[string]float64
	warned        map[string]bool
}

func (m *metricsDiff) delta(series string) float64 {
	a, okA := m.after[series]
	b, okB := m.before[series]
	if !okA || !okB {
		if !m.warned[series] {
			m.warned[series] = true
			fmt.Fprintf(os.Stderr, "sockbench: warning: /metrics has no series %s; its layer metric is null\n", series)
		}
		return math.NaN()
	}
	return a - b
}

// mean is the per-observation mean of a histogram over the window, in
// the given unit (1e3 for ms, 1e6 for µs); 0 when nothing was observed.
func (m *metricsDiff) mean(name, labels string, unit float64) float64 {
	sum, count := m.delta(name+"_sum"+labels), m.delta(name+"_count"+labels)
	return ratio(sum*unit, count)
}

var runtimeSamples = []string{"/sched/pauses/total/gc:seconds", "/sched/latencies:seconds", "/gc/cycles/total:gc-cycles"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// histDiffQuantile is the q-quantile, in µs, of the observations a
// runtime histogram gained between two reads: the upper bound of the
// bucket holding it (its lower bound for the open last bucket).
func histDiffQuantile(a, b metrics.Value, q float64) float64 {
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return math.NaN()
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	var total uint64
	for i := range hb.Counts {
		total += hb.Counts[i] - ha.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i := range hb.Counts {
		seen += hb.Counts[i] - ha.Counts[i]
		if float64(seen) >= q*float64(total) {
			v := hb.Buckets[i+1]
			if math.IsInf(v, 1) {
				v = hb.Buckets[i]
			}
			return v * 1e6
		}
	}
	return math.NaN()
}

// runTraced replays the workload against an in-process server.New
// behind a loopback http.Server and derives the per-layer metrics and
// the ledger from spans, /v1/stats, /metrics and runtime/metrics.
func runTraced(ctx context.Context, w *workload, seed int64, secs time.Duration) (*outcome, error) {
	dir, err := runDir(w.name + "-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	cat := catalog.New()
	if err := store.Recover(cat); err != nil {
		return nil, err
	}
	rec := newRecorder()
	wal := &timedLogger{store: store, rec: rec}
	cat.SetLogger(wal)
	srv := server.New(server.Config{Catalog: cat, CacheBytes: w.cacheBytes, Persist: store, ComposeTimeout: composeTimeout})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: &spanHandler{next: srv, rec: rec}}
	var bg sync.WaitGroup
	bgCtx, stopBg := context.WithCancel(ctx)
	bg.Add(2)
	go func() {
		defer bg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed once Close runs below
	}()
	go func() { // snapshot cadence, as mapcompd runs it
		defer bg.Done()
		for {
			select {
			case <-bgCtx.Done():
				return
			case <-store.SnapshotNeeded():
				if err := store.Snapshot(cat); err != nil {
					fmt.Fprintln(os.Stderr, "sockbench: snapshot:", err)
				}
			}
		}
	}()
	defer func() {
		stopBg()
		hs.Close()
		bg.Wait()
	}()

	c := newConn(ln.Addr().String())
	defer c.close()
	pub := &tracedPublisher{cat: cat, wal: wal, rec: rec}
	if err := pub.publish(ctx, w.text); err != nil {
		return nil, fmt.Errorf("set-up register: %w", err)
	}
	if w.warm {
		srv.Warm(ctx)
	}
	tr := newTraffic(w, seed)
	tg := &target{conn: c, publish: pub.publish}
	if ph := tr.run(ctx, tg, warmupFor(secs)); ph.mismatch != nil {
		return nil, ph.mismatch
	}
	// The untraced baseline for trace.overhead_us runs before the traced
	// window: the publish probe at its end invalidates cached pairs.
	untraced := tr.run(ctx, tg, max(secs/2, time.Second))
	tg.observe = func(pair int, id string, start, end time.Time, body []byte) {
		tag := "hit"
		if bytes.Contains(body, cachedFalse) {
			tag = "miss"
			p := w.pairs[pair]
			snap := cat.Snap()
			t0 := time.Now()
			_, _ = snap.Route(p[0], p[1]) // replayed for its timing; the response was already checked
			rec.add(id, "catalog.route", "server.handle", "", t0, time.Now())
		}
		rec.add(id, "client.request", "", tag, start, end)
	}

	var st0, st1 serverStats
	if err := c.getJSON(ctx, "/v1/stats", &st0); err != nil {
		return nil, err
	}
	m0, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	rec.on.Store(true)
	ph := tr.run(ctx, tg, secs)
	probe := ph
	if w.readsPerPublish == 0 {
		probe = tr.probe(ctx, tg, w.probe)
	}
	rec.on.Store(false)
	rt1 := readRuntime()
	if err := c.getJSON(ctx, "/v1/stats", &st1); err != nil {
		return nil, err
	}
	m1, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}

	o := &outcome{workload: w.name, mismatch: firstErr(ph.mismatch, probe.mismatch, untraced.mismatch), notes: w.notes}
	o.attempted = ph.attempted()
	o.failed = ph.failed
	if w.readsPerPublish == 0 {
		o.attempted += probe.attempted()
		o.failed += probe.failed
	}
	o.hitRate = ratio(st1.CacheHits-st0.CacheHits, st1.Requests-st0.Requests)
	o.multiplier = ratio(st1.ReachablePairs, st1.ForwardReachablePairs)

	rec.mu.Lock()
	spans := rec.spans
	rec.mu.Unlock()
	setSelfTimes(spans)
	md := &metricsDiff{before: m0, after: m1, warned: map[string]bool{}}
	v, ledger := layerMetrics(w, spans, md, st0, st1)
	v["server.cache.hit_rate"] = o.hitRate
	v["runtime.gc_pause_p99_us"] = histDiffQuantile(rt0[0].Value, rt1[0].Value, 0.99)
	v["runtime.sched_latency_p99_us"] = histDiffQuantile(rt0[1].Value, rt1[1].Value, 0.99)
	v["runtime.gc_cycles"] = float64(rt1[2].Value.Uint64() - rt0[2].Value.Uint64())
	v["trace.overhead_us"] = v["client.request_p50_us"] - quantile(untraced.composeUS, 0.5)
	o.ledger = ledger
	for _, d := range perLayer {
		o.metrics = append(o.metrics, measured{metricDef: d, value: v[d.name]})
	}
	path, err := writeSpans(w.name, seed, ledger, spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sockbench: %s: %d spans written to %s\n", w.name, len(spans), path)
	return o, nil
}

// layerMetrics derives the span-, stats- and /metrics-based layer
// metrics and the ledger rows.
func layerMetrics(w *workload, spans []span, md *metricsDiff, st0, st1 serverStats) (map[string]float64, []ledgerRow) {
	v := make(map[string]float64)
	durs := make(map[string][]float64) // span name (client.request and server.handle split by hit/miss) → µs
	totalMS := make(map[string]float64)
	tagOf := make(map[string]string)
	for _, s := range spans {
		if s.Name == "client.request" {
			tagOf[s.ID] = s.Tag
		}
	}
	var transport []float64
	for _, s := range spans {
		name := s.Name
		if name == "server.handle" || name == "client.request" {
			name += "." + tagOf[s.ID]
		}
		us := float64(s.End-s.Start) / 1e3
		durs[name] = append(durs[name], us)
		totalMS[name] += us / 1e3
		if s.Name == "client.request" {
			transport = append(transport, float64(s.Self)/1e3)
		}
	}
	v["server.handle_hit_p50_us"] = quantile(durs["server.handle.hit"], 0.5)
	v["server.handle_hit_p99_us"] = quantile(durs["server.handle.hit"], 0.99)
	v["server.handle_miss_p50_us"] = quantile(durs["server.handle.miss"], 0.5)
	v["server.handle_miss_p99_us"] = quantile(durs["server.handle.miss"], 0.99)
	v["server.transport_p50_us"] = quantile(transport, 0.5)
	requests := append(durs["client.request.hit"], durs["client.request.miss"]...)
	v["client.request_p50_us"] = quantile(requests, 0.5)
	v["client.request_p999_us"] = quantile(requests, 0.999)
	v["catalog.route_p50_us"] = quantile(durs["catalog.route"], 0.5)
	v["catalog.route_p99_us"] = quantile(durs["catalog.route"], 0.99)
	v["catalog.apply_p50_ms"] = quantile(durs["catalog.apply"], 0.5) / 1e3
	v["catalog.apply_p90_ms"] = quantile(durs["catalog.apply"], 0.9) / 1e3
	v["persist.wal_append_p50_us"] = quantile(durs["persist.wal_append"], 0.5)
	v["persist.wal_append_p99_us"] = quantile(durs["persist.wal_append"], 0.99)
	v["parser.parse_us"] = quantile(durs["parser.parse"], 0.5)

	v["server.cache.entries"] = st1.CacheEntries
	v["server.cache.bytes"] = st1.CacheBytes
	pubs := st1.Migrations - st0.Migrations
	v["server.cache.dropped_per_publish"] = ratio(st1.EntriesDropped-st0.EntriesDropped, pubs)
	v["server.cache.migrated_per_publish"] = ratio(st1.EntriesMigrated-st0.EntriesMigrated, pubs)
	v["core.eliminate_attempts"] = st1.EliminateAttempts - st0.EliminateAttempts
	v["core.frac_eliminated"] = w.notes.FracEliminated

	v["server.cache.migrate_ms"] = md.mean("mapcomp_cache_migrate_seconds", "", 1e3)
	v["catalog.delta_ms"] = md.mean("mapcomp_cache_delta_compute_seconds", "", 1e3)
	v["persist.fsync_us"] = md.mean("mapcomp_wal_fsync_seconds", "", 1e6)
	var composeSum, composes float64
	for _, verdict := range []string{"closed", "skolemized", "partial"} {
		l := `{verdict="` + verdict + `"}`
		composeSum += md.delta("mapcomp_compose_verdict_seconds_sum" + l)
		composes += md.delta("mapcomp_compose_verdict_seconds_count" + l)
	}
	v["core.compose_ms"] = ratio(composeSum*1e3, composes)
	v["core.hop_us"] = md.mean("mapcomp_chain_hop_seconds", "", 1e6)
	v["core.hops_per_compose"] = ratio(md.delta("mapcomp_chain_hop_seconds_count"), composes)
	for short, label := range map[string]string{"unfold": "unfold", "left": "left-compose", "right": "right-compose"} {
		l := `{strategy="` + label + `"}`
		v["core.strategy_us."+short] = md.mean("mapcomp_eliminate_strategy_seconds", l, 1e6)
		v["core.strategy_count."+short] = md.delta("mapcomp_eliminate_strategy_seconds_count" + l)
	}
	v["core.blowup_aborts"] = md.delta("mapcomp_eliminate_blowup_aborts_total")

	clientMS := totalMS["client.request.hit"] + totalMS["client.request.miss"]
	handleMS := totalMS["server.handle.hit"] + totalMS["server.handle.miss"]
	ledger := []ledgerRow{
		newLedgerRow("client.request", clientMS, map[string]float64{"server.handle": handleMS}),
		newLedgerRow("server.handle.miss", totalMS["server.handle.miss"], map[string]float64{
			"catalog.route": totalMS["catalog.route"], "core.compose": composeSum * 1e3}),
		newLedgerRow("client.publish", totalMS["client.publish"], map[string]float64{
			"parser.parse": totalMS["parser.parse"], "catalog.apply": totalMS["catalog.apply"]}),
		newLedgerRow("catalog.apply", totalMS["catalog.apply"], map[string]float64{
			"persist.wal_append":   totalMS["persist.wal_append"],
			"catalog.delta":        md.delta("mapcomp_cache_delta_compute_seconds_sum") * 1e3,
			"server.cache.migrate": md.delta("mapcomp_cache_migrate_seconds_sum") * 1e3}),
	}
	v["ledger.client_request.unattributed"] = ledger[0].Unattributed
	v["ledger.server_handle_miss.unattributed"] = ledger[1].Unattributed
	v["ledger.client_publish.unattributed"] = ledger[2].Unattributed
	v["ledger.catalog_apply.unattributed"] = ledger[3].Unattributed
	var flagged float64
	for _, r := range ledger {
		if r.Flagged {
			flagged++
			fmt.Fprintf(os.Stderr, "sockbench: %s: ledger over-attributed: %s children sum beyond %.0f%% of %.3f ms: %v\n",
				w.name, r.Parent, overAttribution*100, r.ParentMS, r.ChildrenMS)
		}
	}
	v["ledger.over_attributed"] = flagged
	return v, ledger
}

// writeSpans writes the traced run's spans and ledger as one JSON file.
func writeSpans(workload string, seed int64, ledger []ledgerRow, spans []span) (string, error) {
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string      `json:"workload"`
		Seed     int64       `json:"seed"`
		Ledger   []ledgerRow `json:"ledger"`
		Spans    []span      `json:"spans"`
	}{workload, seed, ledger, spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
