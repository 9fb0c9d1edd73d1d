package server

import (
	"context"
	"sync"
	"time"

	"mapcomp/internal/catalog"
)

// onPublish is the catalog publish hook: it transitions the result
// cache across one catalog mutation: it diffs the two snapshots and
// drops exactly the pairs whose route changed, migrating every other
// entry in place. The singleflight and lock-free hit machinery keep
// running throughout: the hook only bumps watermarks and republishes
// shard views.
//
// The hook runs inside the catalog's write lock, so it is strictly
// ordered — migration for generation N completes before the mutation
// producing N+1 can publish — which is what makes the per-publish
// counter identity (candidates = migrated + dropped) exact. The work is
// bounded: ComputeDelta is two BFS runs per schema and migrate one pass
// over the cached entries.
//
// Invalidated pairs (and pairs that became newly reachable) are handed
// to the rewarm queue, hottest first by the entries' recency clocks, so
// the background loop rebuilds the cache where it was actually being
// used. Connectivity of the dropped pairs is not checked here — the
// rewarm worker composes under the then-current snapshot and skips
// pairs that fail.
func (s *Server) onPublish(oldSnap, newSnap catalog.Snap) {
	start := time.Now()
	delta := catalog.ComputeDelta(oldSnap, newSnap)
	dd := time.Since(start)
	s.deltaUS.Add(dd.Microseconds()) // /v1/stats's running total; the histogram has the tail
	deltaComputeSeconds.Observe(dd)
	migStart := time.Now()
	m := s.cache.migrate(oldSnap.Generation(), newSnap.Generation(), delta.Invalidated)
	cacheMigrateSeconds.Observe(time.Since(migStart))
	s.migrations.Add(1)
	s.entriesMigrated.Add(int64(m.migrated))
	s.entriesDropped.Add(int64(m.dropped))
	if s.migrateHook != nil {
		s.migrateHook(migrationRecord{
			fromGen: oldSnap.Generation(), toGen: newSnap.Generation(),
			candidates: m.candidates, migrated: m.migrated, dropped: m.dropped,
		})
	}
	if s.rewarmQ != nil {
		for _, d := range m.droppedHot {
			s.rewarmQ.add(d.pair, d.used)
		}
		for _, p := range delta.Gained {
			// Never composed, so no recency: queue behind every dropped
			// pair that had one.
			s.rewarmQ.add(pairKey{from: p[0], to: p[1], cfg: s.cfgFP}, 0)
		}
	}
}

// rewarmQueue is the deduplicated set of pairs awaiting recomputation
// after invalidation, popped hottest first. Re-adding a queued pair
// keeps the hotter recency, so a pair invalidated twice holds its place
// rather than being counted twice.
type rewarmQueue struct {
	mu      sync.Mutex
	pending map[pairKey]int64 // pair → recency clock at invalidation
	wake    chan struct{}     // buffered(1): signals the Rewarm loop
}

func newRewarmQueue() *rewarmQueue {
	return &rewarmQueue{pending: make(map[pairKey]int64), wake: make(chan struct{}, 1)}
}

func (q *rewarmQueue) add(pair pairKey, recency int64) {
	q.mu.Lock()
	if prev, ok := q.pending[pair]; !ok || recency > prev {
		q.pending[pair] = recency
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop removes and returns the hottest pending pair.
func (q *rewarmQueue) pop() (pairKey, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var best pairKey
	bestR := int64(-1)
	for p, r := range q.pending {
		if r > bestR {
			best, bestR = p, r
		}
	}
	if bestR < 0 {
		return pairKey{}, false
	}
	delete(q.pending, best)
	return best, true
}

func (q *rewarmQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Rewarm drains the rewarm queue until ctx ends: whenever a catalog
// publish invalidates cached pairs, they are recomputed here — hottest
// first — so steady read traffic finds the cache already rebuilt
// instead of paying the miss itself. Requires Config.Rewarm; returns
// immediately otherwise. Pairs that became valid again in the meantime
// (a client request beat the queue) are skipped, and failures (a pair
// no longer connected, a composition error, a deadline) are dropped —
// rewarm is an optimization pass, the request path reports real errors.
// Each composition runs under the server's compose deadline, if any.
// cmd/mapcompd -rewarm runs this on a goroutine under its shutdown
// context.
func (s *Server) Rewarm(ctx context.Context) {
	if s.rewarmQ == nil || s.cache == nil {
		return
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.rewarmQ.wake:
		}
		for {
			if ctx.Err() != nil {
				return
			}
			pair, ok := s.rewarmQ.pop()
			if !ok {
				break
			}
			if s.cache.valid(pair, s.cat.Generation()) {
				continue
			}
			pairCtx, cancel := s.composeContext(ctx, 0)
			start := time.Now()
			_, kind, err := s.compose(pairCtx, pair.from, pair.to)
			cancel()
			if err == nil && kind == computed {
				s.rewarmed.Add(1)
				rewarmSeconds.Observe(time.Since(start))
			}
		}
	}
}
