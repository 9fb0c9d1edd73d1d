// Command mapcompd serves mapping composition over HTTP: a versioned
// catalog of schemas and mappings plus cached, coalesced composition of
// multi-hop σA→σB chains (see internal/catalog and internal/server),
// optionally made durable with a write-ahead log and compacted
// snapshots (internal/persist).
//
// Usage:
//
//	mapcompd [-addr :8391] [-workers N] [-cache-bytes N]
//	         [-compose-timeout D] [-data-dir DIR] [-snapshot-every N]
//	         [-warm]
//	         [-log-format text|json] [-slow-ms N] [-debug-addr HOST:PORT]
//	         [file.mc ...]
//
// Positional arguments are composition task files in the text format of
// internal/parser, pre-loaded into the catalog at boot (with -data-dir
// each boot re-applies them, which bumps the generation; preloads are
// meant for ephemeral runs, persistent deployments register over HTTP).
// The server logs the address it actually listens on (useful with
// -addr 127.0.0.1:0) and shuts down gracefully on SIGINT/SIGTERM.
//
// # Observability
//
// The daemon logs through log/slog: -log-format text (default) emits
// key=value lines, -log-format json one JSON object per line for log
// shippers. Every request is assigned an X-Request-Id at ingress,
// echoed in the response headers and in error bodies; -slow-ms N logs
// any request slower than N milliseconds with its method, path, status
// and request id, so the slow tail is attributable without tracing
// every request. GET /v1/stats and GET /metrics (Prometheus text
// format: per-route latency quantiles, per-strategy ELIMINATE timings,
// WAL fsync and cache-migration histograms) stay responsive even while
// every compose slot is saturated. -debug-addr serves net/http/pprof
// and a second /metrics on a private listener, keeping profiling
// endpoints off the public address.
//
// # Durability
//
// With -data-dir the catalog survives restarts. Every mutation —
// schema/mapping registration and each POST /v1/register batch — is
// appended to DIR/wal.log (checksummed, fsynced) before it commits, so
// any generation a client has observed survives a crash. Every
// -snapshot-every mutations, and once more on graceful shutdown, the
// daemon writes a compacted snapshot DIR/snapshot-*.json and truncates
// the log. On boot it loads the newest snapshot, replays the remaining
// log records, and serves the exact pre-crash catalog: same generation,
// schemas, mappings, versions and therefore the same compose results. A
// torn final record (crash mid-append) is truncated away; any other log
// corruption is fatal at boot rather than silently dropping state.
// /v1/stats reports the persistence counters under "persist".
//
// With -warm the daemon precomputes compositions for every connected
// schema pair in the background after recovery, so the result cache is
// hot before the first client request arrives; pairs that already
// survived into the cache (via migration) are skipped.
//
// # Bidirectional graph
//
// The catalog resolves paths over registered mappings and over derived
// inverse edges: every published mapping is judged by the quasi-inverse
// analysis (core.Invert), and when all of its constraints invert, a
// σB→σA edge joins the graph with provenance "derived-inverse" (compose
// responses carry per-hop provenance). Derived edges are a pure
// function of the registered mappings: they are recomputed
// deterministically while rebuilding the catalog view on WAL replay and
// snapshot restore, and are never logged or persisted — the on-disk
// format is unchanged from forward-only builds. When a pair is
// unreachable forward but would be reachable against non-invertible
// mappings, the 4xx body names the blocking mappings
// ("inverse_blocked_by") so operators know exactly which constraint to
// repair. /v1/stats and /metrics report edge counts, reachable-pair
// counts and the per-reason inversion verdict tally.
//
// # Cache survival
//
// Catalog mutations do not wipe the result cache. Every entry keeps the
// catalog route it was composed from, and on every publish the server
// checks each cached route against the new snapshot: it drops only the
// entries whose composition route actually changed, and every other
// entry migrates in place, keeping its key and pre-encoded bytes
// ("entries_migrated" vs "entries_dropped" in /v1/stats). The check
// costs one pass over the mappings plus one pass over the cache; only
// a publish that adds an edge or flips a mapping's invertibility runs
// BFS, at most once per cached source schema. A dropped pair is
// recomputed by the next request for it.
//
// The cache is bounded by -cache-bytes alone (exact pre-encoded body
// and key sizes plus per-entry overhead; default and 0 both mean
// server.DefaultCacheBytes, 64 MiB); a negative -cache-bytes is
// rejected at startup. Its shard count derives from GOMAXPROCS.
//
// # Preemption
//
// Composition cost is worst-case exponential, so every compose request
// runs under a deadline: -compose-timeout (default 30s, 0 disables)
// bounds the run server-side, and a request can shorten — never extend —
// its own deadline with a "timeout_ms" field. An expired deadline
// preempts ELIMINATE between strategy attempts and returns 504 with the
// partial statistics; the preempted result is never cached, and a
// concurrent identical request with a live deadline takes over the
// computation instead of inheriting the failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mapcomp/internal/catalog"
	"mapcomp/internal/par"
	"mapcomp/internal/parser"
	"mapcomp/internal/persist"
	"mapcomp/internal/server"
)

func main() {
	addr := flag.String("addr", ":8391", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "batch worker pool width (0 = GOMAXPROCS)")
	cacheBytes := flag.Int64("cache-bytes", server.DefaultCacheBytes,
		"result cache byte budget, charging exact pre-encoded body and key sizes plus per-entry overhead (0 = the default)")
	composeTimeout := flag.Duration("compose-timeout", 30*time.Second,
		"server-side deadline per composition; expired deadlines return 504 (0 disables)")
	dataDir := flag.String("data-dir", "", "durable catalog directory (empty = memory-only)")
	snapshotEvery := flag.Int("snapshot-every", persist.DefaultSnapshotEvery,
		"WAL records between compacting snapshots (negative = only on shutdown)")
	warm := flag.Bool("warm", false, "precompute all connected schema pairs in the background after boot")
	logFormat := flag.String("log-format", "text", "log output format: text (key=value) or json (one object per line)")
	slowMS := flag.Int64("slow-ms", 0, "log requests slower than N milliseconds with their request id (0 disables)")
	debugAddr := flag.String("debug-addr", "",
		"private listener serving net/http/pprof and /metrics (empty disables; keep it off the public address)")
	flag.Parse()
	if *cacheBytes < 0 {
		fatal(fmt.Errorf("-cache-bytes %d: want a positive byte budget, or 0 for the default", *cacheBytes))
	}

	logger, err := newLogger(*logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	par.SetWorkers(*workers)

	cat := catalog.New()

	// Recovery must complete before any mutation: the store replays the
	// log through Catalog.Apply, then starts logging.
	var store *persist.Store
	if *dataDir != "" {
		var err error
		store, err = persist.Open(*dataDir, persist.Options{SnapshotEvery: *snapshotEvery})
		if err != nil {
			fatal(err)
		}
		if err := store.Recover(cat); err != nil {
			fatal(err)
		}
		cat.SetLogger(store)
		st := store.Stats()
		logger.Info("recovered catalog", "data_dir", *dataDir, "generation", st.Generation,
			"snapshot_generation", st.Recovery.SnapshotGeneration, "wal_replayed", st.Recovery.Replayed,
			"torn_bytes_dropped", st.Recovery.TornBytesTruncated)
	}

	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		p, err := parser.Parse(string(src))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if err := parser.Validate(p); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		gen, err := cat.Apply(p)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		logger.Info("loaded task file", "path", path, "generation", gen)
	}

	srv := server.New(server.Config{
		Catalog: cat, CacheBytes: *cacheBytes,
		Persist: store, ComposeTimeout: *composeTimeout,
		SlowRequest: time.Duration(*slowMS) * time.Millisecond,
		Logger:      logger,
	})
	// ReadHeaderTimeout defeats slowloris header dribbling and
	// IdleTimeout reaps abandoned keep-alive connections; request bodies
	// are bounded per-handler via http.MaxBytesReader (oversize → 413).
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	logger.Info("listening", "addr", ln.Addr().String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		go serveDebug(dln, srv, logger)
	}

	// Snapshot cadence: the store signals after every -snapshot-every
	// WAL appends; snapshots run here, off the request path.
	if store != nil {
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-store.SnapshotNeeded():
					if err := store.Snapshot(cat); err != nil {
						logger.Error("snapshot failed", "err", err)
					} else {
						logger.Info("snapshot written", "generation", store.Stats().SnapshotGeneration)
					}
				}
			}
		}()
	}

	if *warm {
		go func() {
			// ctx is the shutdown context: SIGTERM stops the warm-up at
			// the next pair instead of racing it against Shutdown.
			n := srv.Warm(ctx)
			logger.Info("warm-up complete", "pairs", n)
		}()
	}

	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- httpSrv.Shutdown(shutdownCtx)
	}()

	if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	if err := <-done; err != nil {
		fatal(err)
	}
	// Final compacting snapshot: the next boot recovers without replay.
	if store != nil {
		if err := store.Snapshot(cat); err != nil {
			logger.Error("shutdown snapshot failed (WAL still covers the state)", "err", err)
		}
		if err := store.Close(); err != nil {
			logger.Error("closing WAL", "err", err)
		}
	}
	logger.Info("bye")
}

// newLogger builds the daemon's slog.Logger from -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

// serveDebug runs the private diagnostics listener: pprof registered
// explicitly on its own mux (never on the public server's), plus a
// second /metrics so a scraper pointed only at -debug-addr sees the
// full telemetry.
func serveDebug(ln net.Listener, srv *server.Server, logger *slog.Logger) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", srv.MetricsHandler())
	logger.Info("debug listener up", "addr", ln.Addr().String())
	if err := http.Serve(ln, mux); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("debug listener failed", "err", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapcompd:", err)
	os.Exit(1)
}
