package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

const (
	// buildDir holds everything a run writes; run.sh builds into it too.
	buildDir = ".bench_build"
	// A run sets the daemon up at least minSetups times, and up to
	// maxSetups while the set-ups so far took under setupBudget, so cheap
	// (and so relatively noisy) set-ups are sampled more; setup_s is the
	// median.
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
	// composeTimeout is mapcompd's -compose-timeout: far above any
	// generated pair's cost, so a 504 means a regression, not load.
	composeTimeout = 10 * time.Second
)

// warmupFor is the discarded warm-up before a timed phase of secs: 3 s,
// or half the phase when that is shorter. It fills the result cache to
// its steady state; hot_read's is already full from -warm.
func warmupFor(secs time.Duration) time.Duration { return min(3*time.Second, secs/2) }

type metricDef struct{ name, unit string }

// endToEnd are the metrics a mapcompd user sees, reported untraced.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"compose_p50_us", "us"},
	{"compose_p99_us", "us"},
	{"compose_rps", "1/s"},
	{"publish_p50_ms", "ms"},
	{"server_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDef{
	{"server.handle_hit_p50_us", "us"},
	{"server.handle_hit_p99_us", "us"},
	{"server.handle_miss_p50_us", "us"},
	{"server.handle_miss_p99_us", "us"},
	{"server.transport_p50_us", "us"},
	{"server.cache.hit_rate", "ratio"},
	{"server.cache.entries", "count"},
	{"server.cache.bytes", "bytes"},
	{"server.cache.dropped_per_publish", "count"},
	{"server.cache.migrated_per_publish", "count"},
	{"server.cache.migrate_ms", "ms"},
	{"catalog.route_p50_us", "us"},
	{"catalog.route_p99_us", "us"},
	{"catalog.apply_p50_ms", "ms"},
	{"catalog.apply_p90_ms", "ms"},
	{"catalog.delta_ms", "ms"},
	{"core.compose_ms", "ms"},
	{"core.hop_us", "us"},
	{"core.hops_per_compose", "count"},
	{"core.strategy_us.unfold", "us"},
	{"core.strategy_us.left", "us"},
	{"core.strategy_us.right", "us"},
	{"core.strategy_count.unfold", "count"},
	{"core.strategy_count.left", "count"},
	{"core.strategy_count.right", "count"},
	{"core.blowup_aborts", "count"},
	{"core.eliminate_attempts", "count"},
	{"core.frac_eliminated", "ratio"},
	{"persist.wal_append_p50_us", "us"},
	{"persist.wal_append_p99_us", "us"},
	{"persist.fsync_us", "us"},
	{"parser.parse_us", "us"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"client.request_p50_us", "us"},
	{"client.request_p999_us", "us"},
	{"trace.overhead_us", "us"},
	{"ledger.client_request.unattributed", "ratio"},
	{"ledger.server_handle_miss.unattributed", "ratio"},
	{"ledger.client_publish.unattributed", "ratio"},
	{"ledger.catalog_apply.unattributed", "ratio"},
	{"ledger.over_attributed", "count"},
}

// measured is one metric's value; NaN is reported as null.
type measured struct {
	metricDef
	value   float64
	samples int // observations behind a percentile, 0 when not one
}

// outcome is one workload's result.
type outcome struct {
	workload  string
	mismatch  error // the first response that contradicted the reference
	attempted int
	failed    int
	metrics   []measured

	hitRate    float64 // cache hits per compose request over the timed phase
	multiplier float64 // reachable pairs over forward-only reachable pairs
	steal      float64 // share of the machine's CPU time the hypervisor stole during the run
	notes      notes
	ledger     []ledgerRow
}

func (o *outcome) correct() bool { return o.mismatch == nil && o.failed == 0 }

// runDir creates a fresh directory for one run's data under buildDir.
func runDir(prefix string) (string, error) {
	base := filepath.Join(buildDir, "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix+"-")
}

// setUp starts mapcompd on a fresh data directory and registers the
// catalog in one request. A warm workload then restarts the daemon over
// that directory with -warm, as a deployment restart would, and waits
// for the warm-up to finish.
func setUp(ctx context.Context, w *workload, dataDir string) (*daemon, *conn, error) {
	args := []string{"-data-dir", dataDir, "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10),
		"-compose-timeout", composeTimeout.String()}
	d, err := startDaemon(ctx, args...)
	if err != nil {
		return nil, nil, err
	}
	c := newConn(d.addr)
	var health map[string]string
	if err := c.getJSON(ctx, "/v1/healthz", &health); err != nil {
		return nil, nil, d.fail(err)
	}
	if err := c.register(ctx, w.text); err != nil {
		return nil, nil, d.fail(err)
	}
	if !w.warm {
		return d, c, nil
	}
	c.close()
	if err := d.stop(); err != nil {
		return nil, nil, err
	}
	if d, err = startDaemon(ctx, append(args, "-warm")...); err != nil {
		return nil, nil, err
	}
	c = newConn(d.addr)
	if err := c.getJSON(ctx, "/v1/healthz", &health); err != nil {
		return nil, nil, d.fail(err)
	}
	return d, c, d.waitWarm(ctx)
}

// runDaemon measures the end-to-end metrics against mapcompd processes.
func runDaemon(ctx context.Context, w *workload, seed int64, secs time.Duration) (*outcome, error) {
	root, err := runDir(w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var (
		d      *daemon
		c      *conn
		setups []float64
	)
	setupStart := time.Now()
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for i := 0; i < minSetups || i < maxSetups && time.Since(setupStart) < setupBudget; i++ {
		if d != nil {
			c.close()
			d.kill()
		}
		start := time.Now()
		if d, c, err = setUp(ctx, w, filepath.Join(root, strconv.Itoa(i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer c.close()

	tr := newTraffic(w, seed)
	tg := &target{conn: c, publish: c.register}
	if ph := tr.run(ctx, tg, warmupFor(secs)); ph.mismatch != nil {
		return &outcome{workload: w.name, mismatch: ph.mismatch}, nil
	}
	var st0, st1 serverStats
	if err := c.getJSON(ctx, "/v1/stats", &st0); err != nil {
		return nil, err
	}
	stopRSS := make(chan struct{})
	rss := make(chan float64, 1)
	go func() { rss <- medianRSSMiB(d.cmd.Process.Pid, stopRSS) }()
	ph := tr.run(ctx, tg, secs)
	close(stopRSS)
	if err := c.getJSON(ctx, "/v1/stats", &st1); err != nil {
		return nil, err
	}
	pub := ph
	if w.readsPerPublish == 0 {
		pub = tr.probe(ctx, tg, w.probe)
	}

	o := &outcome{workload: w.name, mismatch: firstErr(ph.mismatch, pub.mismatch), notes: w.notes,
		attempted: ph.attempted(), failed: ph.failed}
	if w.readsPerPublish == 0 {
		o.attempted += pub.attempted()
		o.failed += pub.failed
	}
	o.hitRate = ratio(st1.CacheHits-st0.CacheHits, st1.Requests-st0.Requests)
	o.multiplier = ratio(st1.ReachablePairs, st1.ForwardReachablePairs)
	n, np := len(ph.composeUS), len(pub.publishMS)
	o.metrics = []measured{
		{endToEnd[0], quantile(setups, 0.5), len(setups)},
		{endToEnd[1], quantile(ph.composeUS, 0.5), n},
		{endToEnd[2], quantile(ph.composeUS, 0.99), n},
		{endToEnd[3], float64(n-countInf(ph.composeUS)) / ph.elapsed.Seconds(), 0},
		{endToEnd[4], quantile(pub.publishMS, 0.5), np},
		{endToEnd[5], <-rss, 0},
	}
	return o, nil
}

func countInf(xs []float64) int {
	n := 0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			n++
		}
	}
	return n
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
