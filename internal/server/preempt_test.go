package server

// Tests for the preemption surface: request deadlines, the 504 contract
// (partial stats, nothing cached), and the singleflight handoff when a
// leader's context dies mid-composition.

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"mapcomp/internal/catalog"
)

// awaitDeadline is a composeHook for preemption tests: it returns once
// the composition's deadline has demonstrably expired, so the test is
// deterministic instead of racing a sleep against the context timer (a
// loaded scheduler can otherwise let a short-deadline composition
// finish before its timer fires and legitimately cache the result).
// The fallback bounds a test that reaches the hook without a deadline.
func awaitDeadline(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
	}
}

// TestComposeDeadlineReturns504WithPartialStats: a request whose
// deadline expires mid-composition gets a 504 whose body carries the
// resolved path and the partial statistics; the preempted result is
// never cached, and the same request without a deadline then succeeds
// cold (cached=false) — proving the failure left no trace.
func TestComposeDeadlineReturns504WithPartialStats(t *testing.T) {
	s := newTestServer(t)
	// Hold the composition open until the request's 5ms deadline fires.
	s.composeHook = awaitDeadline

	rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split","timeout_ms":5}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
	errBody := decode[ErrorJSON](t, rec)
	if len(errBody.Path) != 2 || errBody.Path[0] != "m12" || errBody.Path[1] != "m23" {
		t.Fatalf("504 body path = %v, want the resolved chain [m12 m23]", errBody.Path)
	}
	if errBody.Stats == nil {
		t.Fatalf("504 body has no partial stats: %s", rec.Body)
	}
	if errBody.Stats.Eliminated != 0 {
		t.Fatalf("preempted run reported %d eliminations before the first strategy", errBody.Stats.Eliminated)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("preempted composition was cached (%d entries)", n)
	}
	if got := s.Stats().Composes; got != 0 {
		t.Fatalf("composes counter = %d after a preempted run", got)
	}

	s.composeHook = nil
	rec = do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", rec.Code, rec.Body)
	}
	if resp := decode[ComposeResponse](t, rec); resp.Cached {
		t.Fatal("follow-up was served from cache although the preempted run must not have stored anything")
	}
}

// TestCancelledComposeNeverCachedAndWaitersObserveError: a leader and
// several coalesced waiters all carrying the same short deadline; the
// leader is preempted mid-composition, so every caller observes the
// deadline error, the cache stores nothing, and the key stays usable.
func TestCancelledComposeNeverCachedAndWaitersObserveError(t *testing.T) {
	s := newTestServer(t)
	entered := make(chan struct{})
	enteredOnce := sync.OnceFunc(func() { close(entered) })
	s.composeHook = func(ctx context.Context) {
		enteredOnce()
		awaitDeadline(ctx)
	}

	var wg sync.WaitGroup
	codes := make([]int, 4)
	launch := func(i int) {
		defer wg.Done()
		rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split","timeout_ms":5}`)
		codes[i] = rec.Code
	}
	wg.Add(1)
	go launch(0)
	<-entered // leader inside the computation
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go launch(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusGatewayTimeout {
			t.Fatalf("caller %d got %d, want 504", i, code)
		}
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("cancelled computation left %d cache entries", n)
	}

	s.composeHook = nil
	rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("key unusable after cancelled flight: %d %s", rec.Code, rec.Body)
	}
}

// TestAbandonedFlightHandsOffToLiveWaiter exercises the cache-level
// handoff: a leader whose context dies mid-flight abandons the call,
// and a waiter with a live context re-enters, becomes the new leader,
// and completes the computation — the leader's cancellation is not
// inherited.
func TestAbandonedFlightHandsOffToLiveWaiter(t *testing.T) {
	c := newResultCache(1<<20, 0)
	pair := pairKey{from: "a", to: "b", cfg: 7}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.do(leaderCtx, pair, 1, func(ctx context.Context) (*ComposeResponse, *catalog.Route, uint64, error) {
			close(leaderIn)
			<-leaderGo
			return nil, nil, 0, ctx.Err()
		})
		leaderDone <- err
	}()
	<-leaderIn

	waiterRan := make(chan struct{}, 1)
	waiterDone := make(chan error, 1)
	var got *cacheEntry
	go func() {
		ent, _, err := c.do(context.Background(), pair, 1, func(context.Context) (*ComposeResponse, *catalog.Route, uint64, error) {
			waiterRan <- struct{}{}
			return &ComposeResponse{From: "a", To: "b", Key: "k"}, nil, 1, nil
		})
		got = ent
		waiterDone <- err
	}()
	// Let the waiter block on the in-flight call before killing the
	// leader; the handoff must wake it rather than strand it.
	time.Sleep(20 * time.Millisecond)
	cancelLeader()
	close(leaderGo)

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader error = %v, want context.Canceled", err)
	}
	select {
	case <-waiterRan:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never took over the abandoned flight")
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter failed after handoff: %v", err)
	}
	if got == nil || got.resp.From != "a" {
		t.Fatalf("waiter response = %+v", got)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("cache entries = %d, want the waiter's result cached", n)
	}
}

// TestWaiterOwnDeadlineWins: a waiter coalesced behind a slow leader
// stops waiting when its own context ends, without disturbing the
// leader's computation.
func TestWaiterOwnDeadlineWins(t *testing.T) {
	c := newResultCache(1<<20, 0)
	pair := pairKey{from: "a", to: "b", cfg: 7}
	leaderGo := make(chan struct{})
	leaderIn := make(chan struct{})
	go func() {
		_, _, _ = c.do(context.Background(), pair, 1, func(context.Context) (*ComposeResponse, *catalog.Route, uint64, error) {
			close(leaderIn)
			<-leaderGo
			return &ComposeResponse{From: "a", Key: "k"}, nil, 1, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, kind, err := c.do(ctx, pair, 1, func(context.Context) (*ComposeResponse, *catalog.Route, uint64, error) {
		t.Error("waiter with dead context must not compute")
		return nil, nil, 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || kind != coalesced {
		t.Fatalf("waiter got (%v, %v), want its own deadline error while coalesced", kind, err)
	}
	close(leaderGo)
}

// TestServerComposeTimeoutCapsRequests: the server-wide bound applies
// when the request asks for more (or nothing), so a client cannot opt
// out of -compose-timeout.
func TestServerComposeTimeoutCapsRequests(t *testing.T) {
	cat := newTestServer(t).Catalog()
	s := New(Config{Catalog: cat, ComposeTimeout: time.Millisecond})
	s.composeHook = awaitDeadline
	// Asks for 10s; the server caps it at 1ms.
	rec := do(t, s, "POST", "/v1/compose", `{"from":"original","to":"split","timeout_ms":10000}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 under the server-wide cap: %s", rec.Code, rec.Body)
	}
	s.composeHook = nil
	// Without the hook the tiny deadline is plenty for the cached-path
	// healthz-style endpoints; a fresh compose may or may not finish in
	// 1ms, so only the stats endpoint is asserted healthy here.
	rec = do(t, s, "GET", "/v1/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats after timeouts: %d", rec.Code)
	}
}

// TestOversizedBodies413: both the register and compose bodies run
// through http.MaxBytesReader, so an oversized payload is a clean 413.
func TestOversizedBodies413(t *testing.T) {
	s := newTestServer(t)
	big := make([]byte, maxBodyBytes+1)
	for i := range big {
		big[i] = 'x'
	}
	rec := do(t, s, "POST", "/v1/register", string(big))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("register status %d, want 413", rec.Code)
	}
	rec = do(t, s, "POST", "/v1/compose", `{"from":"`+string(big)+`"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("compose status %d, want 413", rec.Code)
	}
}

// TestNoPathErrorNamesPartialRoute: when no chain connects the
// endpoints the 404 body names the partial route BFS resolved, so the
// operator sees how far the mapping graph got.
func TestNoPathErrorNamesPartialRoute(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "POST", "/v1/register", `schema island { Lonely/1; }`)
	if rec.Code != http.StatusOK {
		t.Fatalf("register island: %d %s", rec.Code, rec.Body)
	}
	rec = do(t, s, "POST", "/v1/compose", `{"from":"original","to":"island"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", rec.Code, rec.Body)
	}
	errBody := decode[ErrorJSON](t, rec)
	if len(errBody.Path) == 0 {
		t.Fatalf("404 body has no partial route: %s", rec.Body)
	}
}
