package server

// Saturation tests for the sharded result cache: many goroutines
// hammering one hot key plus a spread of cold keys across shards while
// registrations bump the catalog generation, all under -race. They
// assert the accounting identity (every successful compose request is
// exactly one of computed / coalesced / hit) and the preemption
// invariant (an abandoned flight is never stored), which together are
// the behaviours the sharding must not have changed.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// newSaturationServer registers numPairs-1 disjoint one-hop graphs
// (a<i> -> b<i>) next to the chainTask movie graph, so cold traffic
// spreads keys across every shard, plus one two-hop chain
// a15 -> m15 -> b15 reserved for the preemption storm: composing it
// runs ELIMINATE over the intermediate symbol, which is what gives a
// request deadline something to preempt (a one-hop pair has no
// composition work and therefore no cancellation points — it completes
// even under an expired deadline, by design).
const numPairs = 16

// saturationBudget gives each of the 8 shards twice minShardBytes.
const saturationBudget = 8 * 2 * minShardBytes

func newSaturationServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{})
	s.cache = newResultCache(saturationBudget, 8)
	var sb strings.Builder
	sb.WriteString(chainTask)
	for i := 0; i < numPairs-1; i++ {
		fmt.Fprintf(&sb, "schema a%d { A%d/2; }\nschema b%d { B%d/2; }\n", i, i, i, i)
		fmt.Fprintf(&sb, "map p%d : a%d -> b%d { A%d <= B%d; }\n", i, i, i, i, i)
	}
	sb.WriteString("schema a15 { A15/2; }\nschema m15 { M15/2; }\nschema b15 { B15/2; }\n")
	sb.WriteString("map q15a : a15 -> m15 { A15 <= M15; }\nmap q15b : m15 -> b15 { M15 <= B15; }\n")
	if rec := do(t, s, "POST", "/v1/register", sb.String()); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	return s
}

// TestCacheShardClamp pins the shard-count clamp: a count rounds up to
// a power of two, and too small a budget to slice usefully collapses to
// one shard.
func TestCacheShardClamp(t *testing.T) {
	if got := len(newResultCache(DefaultCacheBytes, 5).shards); got != 8 {
		t.Fatalf("shards = %d, want 5 rounded up to 8", got)
	}
	if got := len(newResultCache(8<<10, 8).shards); got != 1 {
		t.Fatalf("tiny byte-budget shards = %d, want 1", got)
	}
}

// TestShardedCacheSaturation drives the mixed workload and checks that
// the computed+coalesced+hit counters sum to the total number of
// successful compose requests: the sharded singleflight must classify
// every request exactly once, with no double counting across shards and
// no request lost between the lock-free probe and the mutex re-probe.
func TestShardedCacheSaturation(t *testing.T) {
	s := newSaturationServer(t)
	const (
		hotWorkers  = 4
		coldWorkers = 4
		regWorkers  = 2
		iters       = 50
	)
	var total int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	bump := func(n int) {
		mu.Lock()
		total += int64(n)
		mu.Unlock()
	}
	for w := 0; w < hotWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := 0
			for i := 0; i < iters; i++ {
				rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
				if rec.Code != http.StatusOK {
					t.Errorf("hot compose: %d %s", rec.Code, rec.Body)
					return
				}
				ok++
			}
			bump(ok)
		}()
	}
	for w := 0; w < coldWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ok := 0
			for i := 0; i < iters; i++ {
				p := (w*iters + i) % (numPairs - 1) // pair 15 is reserved for the preemption storm
				body := fmt.Sprintf(`{"from":"a%d","to":"b%d"}`, p, p)
				rec := do(t, s, "POST", "/v1/compose", body)
				if rec.Code != http.StatusOK {
					t.Errorf("cold compose %s: %d %s", body, rec.Code, rec.Body)
					return
				}
				ok++
			}
			bump(ok)
		}(w)
	}
	for w := 0; w < regWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters/2; i++ {
				src := fmt.Sprintf("schema reg%d_%d { Reg%d_%d/1; }", w, i, w, i)
				if rec := do(t, s, "POST", "/v1/register", src); rec.Code != http.StatusOK {
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

	stats := s.Stats()
	if got := stats.Composes + stats.CacheHits + stats.Coalesced; got != total {
		t.Fatalf("computed(%d) + hits(%d) + coalesced(%d) = %d, want the %d successful requests",
			stats.Composes, stats.CacheHits, stats.Coalesced, got, total)
	}
	if stats.CacheHits == 0 {
		t.Fatal("saturation produced no cache hits")
	}
	if stats.CacheShardCount != 8 {
		t.Fatalf("cache shards = %d, want 8", stats.CacheShardCount)
	}
	sum := 0
	for _, n := range stats.CacheShardEntries {
		sum += n
	}
	if sum != stats.CacheEntries {
		t.Fatalf("shard entries %v sum to %d, want cache_entries %d", stats.CacheShardEntries, sum, stats.CacheEntries)
	}
	if stats.CacheBytes > saturationBudget {
		t.Fatalf("cache bytes = %d, exceeds the global budget %d", stats.CacheBytes, saturationBudget)
	}
}

// TestAbandonedFlightNeverCachedUnderStorm reserves pair 15 for
// requests that always die (timeout_ms=1 against a composition held
// open by the hook) while registrations bump the generation and live
// requests keep other pairs flowing. Whatever interleaving of leaders,
// waiters and handoffs the storm produces, no a15 result may ever be
// stored — a preempted leader abandons its flight, and with every
// caller preempted nobody completes the key at any generation.
func TestAbandonedFlightNeverCachedUnderStorm(t *testing.T) {
	s := newSaturationServer(t)
	s.composeHook = func(ctx context.Context) {
		// Deadline-carrying compositions (the a15 storm) block until
		// their deadline has demonstrably expired, so every dead-
		// deadline leader is preempted with certainty — sleeping
		// instead would race the 1ms timer against the scheduler, and
		// a leader that slipped through would legitimately complete
		// and cache a15. Live requests carry no deadline and just hold
		// the flight open briefly to keep coalescing in play.
		if _, hasDeadline := ctx.Deadline(); hasDeadline {
			<-ctx.Done()
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	const (
		deadWorkers = 4
		liveWorkers = 2
		regWorkers  = 1
		iters       = 30
	)
	var wg sync.WaitGroup
	for w := 0; w < deadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := do(t, s, "POST", "/v1/compose", `{"from":"a15","to":"b15","timeout_ms":1}`)
				if rec.Code != http.StatusGatewayTimeout {
					t.Errorf("dead-deadline compose: %d, want 504: %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	for w := 0; w < liveWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				body := fmt.Sprintf(`{"from":"a%d","to":"b%d"}`, w, w)
				if rec := do(t, s, "POST", "/v1/compose", body); rec.Code != http.StatusOK {
					t.Errorf("live compose: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}(w)
	}
	for w := 0; w < regWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := fmt.Sprintf("schema storm%d { Storm%d/1; }", i, i)
				if rec := do(t, s, "POST", "/v1/register", src); rec.Code != http.StatusOK {
					t.Errorf("register: %d %s", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, key := range s.cache.keys() {
		if key.from == "a15" {
			t.Fatalf("abandoned flight was cached: %+v", key)
		}
	}
	// The storm must not have poisoned the key either: with the hook
	// gone, a live request computes and caches it.
	s.composeHook = nil
	rec := do(t, s, "POST", "/v1/compose", `{"from":"a15","to":"b15"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("a15 unusable after the storm: %d %s", rec.Code, rec.Body)
	}
	if resp := decode[ComposeResponse](t, rec); resp.Cached {
		t.Fatal("post-storm compose served from cache although nothing may have been stored")
	}
}
