package server

import (
	"context"
	"fmt"
	"net/http"
	"testing"

	"mapcomp/internal/catalog"
	"mapcomp/internal/persist"
)

// bootPersistent runs the daemon's boot sequence against dir: open the
// store, recover into a fresh catalog, attach logging, build a server.
func bootPersistent(t *testing.T, dir string) (*Server, *persist.Store) {
	t.Helper()
	store, err := persist.Open(dir, persist.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	cat := catalog.New()
	if err := store.Recover(cat); err != nil {
		t.Fatal(err)
	}
	cat.SetLogger(store)
	return New(Config{Catalog: cat, Persist: store}), store
}

// TestRestartServesSameCatalog is the serving-layer half of the
// durability acceptance: register over HTTP, "kill" the daemon (drop it
// with no shutdown snapshot — the WAL alone carries the state), boot a
// second server from the same directory, and require the identical
// generation, catalog listing and compose result.
func TestRestartServesSameCatalog(t *testing.T) {
	dir := t.TempDir()
	s1, store1 := bootPersistent(t, dir)
	if rec := do(t, s1, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	before := decode[ComposeResponse](t, do(t, s1, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	catBefore := do(t, s1, "GET", "/v1/catalog", "").Body.String()
	// "Crash" between WAL append and snapshot: Close writes nothing, so
	// the on-disk state is exactly the crash state (it only releases
	// the in-process directory lock so the second boot can take it).
	store1.Close()

	s2, store2 := bootPersistent(t, dir)
	if st := store2.Stats(); st.Recovery.Replayed != 1 || st.Recovery.SnapshotGeneration != 0 {
		t.Fatalf("recovery = %+v, want 1 replayed record and no snapshot", st.Recovery)
	}
	after := decode[ComposeResponse](t, do(t, s2, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	if after.Generation != before.Generation {
		t.Fatalf("generation %d after restart, want %d", after.Generation, before.Generation)
	}
	if after.Result.Fingerprint != before.Result.Fingerprint {
		t.Fatalf("compose fingerprint %s after restart, want %s", after.Result.Fingerprint, before.Result.Fingerprint)
	}
	if after.Cached {
		t.Fatal("restarted server claims a cache hit; the cache is not persistent")
	}
	if catAfter := do(t, s2, "GET", "/v1/catalog", "").Body.String(); catAfter != catBefore {
		t.Fatalf("catalog listing changed across restart:\nbefore %s\nafter  %s", catBefore, catAfter)
	}

	// Stats expose the persistence counters.
	stats := decode[StatsResponse](t, do(t, s2, "GET", "/v1/stats", ""))
	if stats.Persist == nil || stats.Persist.Generation != before.Generation {
		t.Fatalf("stats.persist = %+v, want generation %d", stats.Persist, before.Generation)
	}
}

// TestRestartAfterSnapshotAndMoreTraffic: snapshot mid-life, mutate
// again, crash — recovery stitches snapshot + WAL suffix.
func TestRestartAfterSnapshotAndMoreTraffic(t *testing.T) {
	dir := t.TempDir()
	s1, store1 := bootPersistent(t, dir)
	if rec := do(t, s1, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	if err := store1.Snapshot(s1.Catalog()); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s1, "POST", "/v1/register", "schema extra { Aux/2; }"); rec.Code != http.StatusOK {
		t.Fatalf("second register: %d %s", rec.Code, rec.Body)
	}
	store1.Close()

	s2, store2 := bootPersistent(t, dir)
	if st := store2.Stats(); st.Recovery.SnapshotGeneration != 1 || st.Recovery.Replayed != 1 {
		t.Fatalf("recovery = %+v, want snapshot at 1 plus 1 replayed record", st.Recovery)
	}
	if g := s2.Catalog().Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	if _, ok := s2.Catalog().Schema("extra"); !ok {
		t.Fatal("post-snapshot registration lost")
	}
}

// TestWarmFillsCache: after a restart the warm pass precomputes every
// connected pair, so the first client compose is served from the cache
// without running ELIMINATE again.
func TestWarmFillsCache(t *testing.T) {
	dir := t.TempDir()
	s1, store1 := bootPersistent(t, dir)
	if rec := do(t, s1, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	store1.Close()

	s2, _ := bootPersistent(t, dir)
	// chainTask connects original→fivestar, original→split, fivestar→split.
	if n := s2.Warm(context.Background()); n != 3 {
		t.Fatalf("warmed %d pairs, want 3", n)
	}
	runsBefore := s2.Stats().Composes
	resp := decode[ComposeResponse](t, do(t, s2, "POST", "/v1/compose", `{"from":"original","to":"split"}`))
	if !resp.Cached {
		t.Fatal("compose after Warm missed the cache")
	}
	stats := s2.Stats()
	if stats.Composes != runsBefore {
		t.Fatalf("client compose re-ran ELIMINATE (%d → %d runs)", runsBefore, stats.Composes)
	}
	if stats.Warmed != 3 {
		t.Fatalf("stats.Warmed = %d, want 3", stats.Warmed)
	}
}

// TestWarmRespectsDisabledCache: without a cache Warm is a no-op.
func TestWarmRespectsDisabledCache(t *testing.T) {
	s := newUncachedServer(Config{})
	if rec := do(t, s, "POST", "/v1/register", chainTask); rec.Code != http.StatusOK {
		t.Fatalf("register: %d %s", rec.Code, rec.Body)
	}
	if n := s.Warm(context.Background()); n != 0 {
		t.Fatalf("Warm with disabled cache touched %d pairs", n)
	}
}

// failingLogger simulates a dead durability backend.
type failingLogger struct{}

func (failingLogger) AppendMutation(*catalog.Mutation) error {
	return fmt.Errorf("disk full")
}

// TestRegisterPersistFailureIs503: a registration the catalog validated
// but could not make durable is a retryable server-side failure, not a
// 409 request conflict.
func TestRegisterPersistFailureIs503(t *testing.T) {
	cat := catalog.New()
	cat.SetLogger(failingLogger{})
	s := New(Config{Catalog: cat})
	rec := do(t, s, "POST", "/v1/register", chainTask)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", rec.Code, rec.Body)
	}
	if g := cat.Generation(); g != 0 {
		t.Fatalf("generation = %d after failed persist, want 0", g)
	}
}
