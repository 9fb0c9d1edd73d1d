// Service walkthrough: boot an in-process mapcompd server, register the
// quickstart schema-evolution chain over HTTP, and drive the composition
// API end to end — multi-hop chain resolution, the sharded result
// cache, batched requests, the instrumentation counters that prove a
// cache hit never re-runs ELIMINATE, the preemption surface: request
// deadlines (504), oversized payloads (413), and partial-route error
// reporting — and the observability surface: a traced compose with its
// per-stage timing breakdown, and the Prometheus /metrics endpoint
// (step 8).
//
// Run with: go run ./examples/service
//
// # The result cache
//
// Composition results live in a sharded cache keyed on (endpoint pair,
// config fingerprint); the catalog generation is a watermark on each
// entry, not part of the key. The shard count derives from GOMAXPROCS,
// pairs hash to shards, and each entry stores the response pre-encoded
// in the wire format — so a repeated request is a lock-free shard probe
// plus a byte copy, with no JSON marshaling and no cross-shard lock
// traffic. GET /v1/results/{key} parses the pair back out of the key
// and serves the same pre-encoded bytes, and /v1/stats reports the
// shard count and per-shard entry distribution under cache_shards /
// cache_shard_entries.
//
// Entries survive catalog mutations: each publish checks every cached
// entry's route against the new catalog snapshot and drops only the
// entries whose composition route changed, migrating the rest in place (step 6 below shows both
// outcomes). The cache is bounded by bytes alone (server.Config's
// CacheBytes, mapcompd -cache-bytes); this walkthrough leaves it zero,
// which means server.DefaultCacheBytes (64 MiB). A dropped pair is
// recomputed by the next request for it.
//
// # Deadlines
//
// Composition cost is worst-case exponential, so a production daemon
// always runs with a compose deadline: `mapcompd -compose-timeout 30s`
// bounds every request server-side, and a client can shorten (never
// extend) its own request's bound with a "timeout_ms" field. An expired
// deadline preempts ELIMINATE between strategy attempts and returns
// HTTP 504 whose body carries the resolved mapping path and the partial
// statistics — how many symbols were eliminated before time ran out.
// Preempted results are never cached, and a concurrent identical
// request with a live deadline takes the computation over instead of
// inheriting the failure.
//
// # Body limits
//
// Register and compose bodies pass through http.MaxBytesReader: a
// payload over 8 MiB is rejected with HTTP 413 instead of being read
// without bound. The daemon additionally sets ReadHeaderTimeout and
// IdleTimeout on its http.Server, so slow-header and abandoned
// keep-alive connections cannot pin goroutines.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"mapcomp/internal/server"
)

//go:embed chain.mc
var chainTask string

func main() {
	// An httptest server is a real net/http server on a random loopback
	// port; cmd/mapcompd serves the identical handler.
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	fmt.Printf("mapcompd-equivalent server at %s\n\n", ts.URL)

	// 1. Register the three schema versions and two edit mappings.
	reg := post(ts.URL+"/v1/register", "text/plain", chainTask)
	fmt.Printf("registered: %s\n", reg)

	// 2. Compose original→split. No direct mapping exists; the catalog
	// resolves the two-hop chain m12 * m23 and eliminates the
	// intermediate FiveStarMovies symbol.
	first := post(ts.URL+"/v1/compose", "application/json", `{"from":"original","to":"split"}`)
	fmt.Printf("\nfirst compose (cold):\n%s\n", pretty(first))

	// 3. The same request again: served from the result cache — same
	// key, no ELIMINATE re-run, and the body is the entry's pre-encoded
	// bytes written straight to the socket (zero marshals on a hit).
	second := post(ts.URL+"/v1/compose", "application/json", `{"from":"original","to":"split"}`)
	fmt.Printf("\nsecond compose (cached=%v)\n", gjson(second, "cached"))

	// 3b. Any cached result can be re-fetched by its key; the bytes are
	// identical to the cached compose response.
	fetched := get(ts.URL + "/v1/results/" + fmt.Sprint(gjson(second, "key")))
	fmt.Printf("refetched by key (cached=%v, same bytes as the hit)\n", gjson(fetched, "cached"))

	// 4. A batch: duplicate pairs inside the batch coalesce to one
	// computation.
	batch := post(ts.URL+"/v1/compose/batch", "application/json",
		`{"requests":[{"from":"original","to":"fivestar"},{"from":"original","to":"split"}]}`)
	fmt.Printf("\nbatch results:\n%s\n", pretty(batch))

	// 5. The stats endpoint shows two compositions total (the chain and
	// the one-hop pair) against three-plus requests served, plus the
	// result cache's shard count and per-shard entry distribution.
	stats := get(ts.URL + "/v1/stats")
	fmt.Printf("\nstats: %s\n", stats)
	fmt.Printf("cache shards: %v, per-shard entries: %v\n",
		gjson(stats, "cache_shards"), gjson(stats, "cache_shard_entries"))

	// 6. Cache survival. Catalog mutations no longer wipe the result
	// cache: on every publish the server checks each cached route
	// against the new snapshot and migrates every entry whose
	// composition route is untouched. An
	// unrelated registration leaves original→split cached (same key,
	// same route generation, no ELIMINATE re-run); re-registering the
	// chain itself invalidates exactly the routes through it, so the
	// next compose is cold again. /v1/stats splits each publish into
	// entries_migrated vs entries_dropped; a dropped pair is composed
	// again by the next request for it.
	post(ts.URL+"/v1/register", "text/plain", "schema unrelated { U/1; }")
	survived := post(ts.URL+"/v1/compose", "application/json", `{"from":"original","to":"split"}`)
	fmt.Printf("\nafter an unrelated registration: cached=%v, key=%v (entry migrated in place)\n",
		gjson(survived, "cached"), gjson(survived, "key"))
	post(ts.URL+"/v1/register", "text/plain", chainTask)
	invalidated := post(ts.URL+"/v1/compose", "application/json", `{"from":"original","to":"split"}`)
	fmt.Printf("after re-registering the chain: cached=%v (route changed, entry dropped)\n",
		gjson(invalidated, "cached"))
	stats = get(ts.URL + "/v1/stats")
	fmt.Printf("migrations: %v, entries migrated: %v, entries dropped: %v\n",
		gjson(stats, "migrations"), gjson(stats, "entries_migrated"), gjson(stats, "entries_dropped"))

	// 7. Deadlines. A server with a (deliberately absurd) 1ns compose
	// timeout preempts every composition: the request comes back as 504
	// and the error body names the resolved path it was about to
	// compose. Real deployments pass something like
	// `mapcompd -compose-timeout 30s`; a client can also shorten a
	// single request's bound with {"timeout_ms": ...}.
	deadline := httptest.NewServer(server.New(server.Config{
		ComposeTimeout: time.Nanosecond,
	}))
	defer deadline.Close()
	postRaw(deadline.URL+"/v1/register", "text/plain", chainTask)
	resp, body := postStatus(deadline.URL+"/v1/compose", "application/json", `{"from":"original","to":"split"}`)
	fmt.Printf("\ncompose under a 1ns deadline: HTTP %d\n%s\n", resp, pretty(body))

	// 8. Observability. Every request is assigned an X-Request-Id at
	// ingress (echoed in error bodies, so failures are attributable from
	// the body alone), and a request carrying "trace":true gets an inline
	// per-stage timing breakdown: the server's compose span and each
	// chain hop, in microseconds. Tracing is strictly opt-in — a traced
	// response is marshaled fresh, the cache's pre-encoded bytes stay
	// trace-free.
	traced := post(ts.URL+"/v1/compose", "application/json",
		`{"from":"original","to":"split","trace":true}`)
	fmt.Printf("\ntraced compose (cached=%v):\ntrace: %s\n",
		gjson(traced, "cached"), pretty(jfield(traced, "trace")))

	// GET /metrics renders the full telemetry in the Prometheus text
	// format with zero dependencies: per-route/per-outcome request
	// latency quantiles (p50/p99/p999), per-strategy ELIMINATE timings,
	// verdict-partitioned compose durations (closed / skolemized /
	// partial / aborted), WAL and cache-migration histograms, and the
	// counters /v1/stats reports. mapcompd additionally serves it (plus
	// net/http/pprof) on a private -debug-addr listener, and -slow-ms
	// samples slow requests to the structured log by request id.
	metrics := get(ts.URL + "/metrics")
	fmt.Printf("\n/metrics (compose latency series):\n")
	for _, line := range bytes.Split(metrics, []byte("\n")) {
		if bytes.Contains(line, []byte(`route="compose",outcome="hit"`)) {
			fmt.Printf("  %s\n", line)
		}
	}
}

// jfield extracts one top-level field of a JSON document as raw JSON.
func jfield(b []byte, field string) []byte {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		return nil
	}
	return m[field]
}

func post(url, contentType, body string) []byte {
	resp, err := http.Post(url, contentType, bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %d %s", url, resp.StatusCode, out)
	}
	return bytes.TrimSpace(out)
}

// postRaw posts without failing on non-2xx statuses.
func postRaw(url, contentType, body string) {
	resp, err := http.Post(url, contentType, bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// postStatus posts and returns the status code with the body, for steps
// that demonstrate error responses.
func postStatus(url, contentType, body string) (int, []byte) {
	resp, err := http.Post(url, contentType, bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return resp.StatusCode, bytes.TrimSpace(out)
}

func get(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return bytes.TrimSpace(out)
}

// pretty re-indents a JSON document for display.
func pretty(b []byte) string {
	var buf bytes.Buffer
	if err := json.Indent(&buf, b, "", "  "); err != nil {
		return string(b)
	}
	return buf.String()
}

// gjson extracts one top-level field from a JSON document.
func gjson(b []byte, field string) any {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return nil
	}
	return m[field]
}
