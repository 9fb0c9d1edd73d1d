// Command sockbench is mapcomp's benchmark. It measures mapcompd end to
// end, over a loopback socket, on four seeded workloads, and with
// -trace 1 it attributes the time to the layers of a traced in-process
// replay of the same workloads.
//
// Run it from the repository root through its wrapper, which builds
// cmd/mapcompd and this program from the same checkout into
// .bench_build/ (the Go build cache too, so a run writes nothing outside
// the checkout):
//
//	bash sockbench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//
// It prints each metric of each workload on its own line, by name, with
// its unit and sample count, and as the last line one JSON object with
// the keys correct, attempted, failed and metrics. It exits non-zero
// when set-up fails, when any response contradicts the in-process
// reference, or when any request fails: no generated request should.
// -out writes the full result: sample counts, hit rate, reachability
// multiplier, the workload's degree and hop-depth histograms, and the
// ledger.
//
// calibration.json, next to this file, records the baseline: per
// workload the quartile spread of every end-to-end metric over ten
// seeds, five back-to-back runs of the default seed, the traced
// per-layer metrics and ledger, the workload notes, and the decisions
// behind the metric set and its bounds.
//
// # A run
//
// The seed generates the inputs: it relabels the schemas of a catalog
// whose shape (topology, edits) is fixed, and draws the compose targets,
// the request streams and the publishes. The shape is fixed because it
// alone moved publish cost by 2x between seeds. mapcompd receives only
// the generated task files and requests. Before anything is timed,
// every compose target is composed in process (catalog.Apply,
// Snap.Route, core.ComposeChain), which gives the fingerprint its
// response must carry. Then, for each workload:
//
//  1. Set-up, each time on a fresh mapcompd process and data directory:
//     at least three times, and up to nine while the set-ups so far took
//     under 3 s. The daemon fsyncs its write-ahead log on every publish,
//     as deployed. Set-up covers exec, healthz, and the whole catalog in
//     one POST /v1/register. hot_read then restarts the daemon over the
//     same directory with -warm, as a deployment restart would, and
//     waits for the warm-up to finish. setup_s is the median.
//  2. A warm-up of the same traffic: 3 s, or half the timed phase when
//     that is shorter. It is discarded.
//  3. The timed phase, -seconds long. server_rss_mb is the median of
//     mapcompd's resident set sampled every 100 ms during it. Peaks are
//     left out because they depend on where GC cycles fall.
//
// Workloads without a publisher during the phase follow it with
// back-to-back publishes (40, or 5 on catalog_2k) for their publish
// latency. Each response body is searched, not decoded, for its
// reference fingerprint, and on hot_read for "cached":true. A failed or
// refused request counts as slower than every percentile. All traffic
// shares one keep-alive transport capped at two connections, one per
// CPU of the machine the baseline was measured on. The program talks
// to mapcompd only through its flags (-addr, -data-dir, -cache-bytes,
// -warm, -compose-timeout), the JSON API, /v1/stats, and the _sum and
// _count series of /metrics. On Linux each run also reports on stderr
// the share of the machine's CPU time the hypervisor stole while it ran:
// every timing slows with it, and on a shared VM it can reach 40%.
//
// # Workloads
//
// hot_read: 150 disjoint three-schema clusters (450 schemas, 300
// mappings). Two of every three clusters are invertible, so 300 of the
// 750 servable ordered pairs ride derived inverses. The daemon runs with
// -warm. Two clients send Zipf(1.1) traffic over the 750 pairs, and
// every compose is a cache hit. The server's ingress, cache probe and
// write, plus the transport, do all the work; core, catalog and persist
// do none. It is the control for every change off the hit path.
//
// evolve_miss: 40 lineages of 32 schema versions. Each lineage starts
// from evolution.RandomSchema (size 30, no keys), and each later version
// applies one evolution.Apply edit from the §4.1 default event vector,
// rendered with parser.Format. The normalization primitives are left
// out, because mapcompd does not register the join operator their
// constraints use. Two clients send uniform traffic over a seeded
// sample of 2,000 of the within-lineage pairs (1 to 31 hops).
// -cache-bytes is 1 MiB, which holds about a fifth of the sample, so
// ELIMINATE dominates.
//
// publish_mix: a connected 600-schema catalog grown by preferential
// attachment, plus 20% extra edges. Two thirds of the mappings are
// invertible proj[2,1](A) = B, the rest are containments A <= B.
// Derived inverses make most pairs reachable, so every publish diffs
// many pairs. One client sends Zipf(1.1) reads over a seeded sample of
// 5,000 servable pairs. One publisher re-registers a seeded-random
// mapping with its two endpoint schemas, content unchanged so results
// never change. A publish is due after every 2,000 reads (about two a
// second), and starts when the previous one ends if that is later.
// Pacing by reads, not by time, keeps the invalidations per read, and
// with them the hit rate, independent of how fast the host, the reads
// and the publishes are: paced by time, a slower host saw more
// invalidations per read, so its reads slowed twice over. Parse, WAL
// fsync, view build and inversion, ComputeDelta and cache migration run
// beside reads that see invalidations. A gain on one side that costs the
// other shows here.
//
// catalog_2k: the same generator at 2000 schemas, with no publisher
// during the phase and 5 back-to-back publishes after it. Set-up and
// publish cost grow about as the square of the schema count, and
// routing cost with the graph, while hot_read and evolve_miss predict no
// change. One client sends uniform traffic over a seeded sample of 5,000
// servable pairs, and -cache-bytes is 2 MiB, which holds about a quarter
// of them, so the reads measure the miss path at scale. A second client
// doubled p99 and p999 on the 2-vCPU VM and raised throughput by only a
// quarter. At this size a publish runs ComputeDelta for about a second
// on one of the two CPUs. Beside concurrent reads, how many reads waited
// behind it followed the host's speed, and the read tail spread 0.33
// over ten seeds. Reads beside publishes are publish_mix's job. Zipf
// reads with a cache that holds every target were tried too: about 3%
// of reads missed, p99 fell on the edge between hits and misses, and as
// the cache filled at a rate set by the host's speed it spread 0.28 over
// ten seeds.
//
// # Load model
//
// All load is closed loop: a client sends its next request when the
// previous one completes, as mapping clients such as evolution tooling
// and integration pipelines do. An open loop would also be impractical
// here. On the 2-vCPU VM the baseline was measured on, time.Sleep(50µs)
// overshoots by about 1 ms at the median, so a scheduled generator would
// charge ~1 ms of its own lateness to requests that take ~0.1 ms.
//
// # Tracing and the ledger
//
// -trace 1 replays the same workload against server.New behind a
// loopback http.Server in this process. Spans are recorded in this
// program around the public calls into each layer: client.request,
// server.handle around Server.ServeHTTP, catalog.route (Snap.Route
// replayed after a miss), client.publish, parser.parse, catalog.apply,
// and persist.wal_append inside a catalog.Logger that wraps
// persist.Store. Traced publishes call parser.Parse, parser.Validate and
// Catalog.Apply directly. Spans of one request share its X-Request-Id.
// Spans are kept in memory and written as one JSON file per run under
// .bench_build/trace/ when the run ends. Nothing is flushed while
// timing. Self time is a span's duration minus the union of its
// children's intervals. core, ComputeDelta, migration and fsync times
// come from /metrics differences over the traced window, and the
// runtime's GC-pause and scheduling-latency histograms come from
// runtime/metrics. A /metrics series that disappears yields null and a
// warning, not a failed run.
//
// The request's deepest tail, client.request_p999_us, is reported here
// and not end to end. On hot_read it measures the host's jitter: two
// ten-seed passes of one build, with no CPU time stolen, put its median
// 27% apart while p50 and p99 moved by under 2%.
//
// The ledger attributes each parent's total time to its named children:
// client.request to server.handle (the rest is transport), the miss
// path of server.handle to catalog.route and core.compose,
// client.publish to parser.parse and catalog.apply, and catalog.apply
// to persist.wal_append, catalog.delta and server.cache.migrate. Each
// row reports the unattributed share. A row whose children add up to
// more than 110% of the parent is flagged. trace.overhead_us is the
// traced minus the untraced compose median, measured on the same
// in-process server right before the traced window.
//
// # What is left out
//
// 10k-schema catalogs. At 2000 schemas the first registration already
// materialises about 2.8M reachable pairs, and every publish diffs all
// of them. 10k waits until publishes diff only the part of the graph a
// mutation touched.
package main
