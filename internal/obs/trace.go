package obs

import (
	"context"
	"sync"
	"time"
)

// Stage is one named timing inside a traced request: an ELIMINATE
// strategy, a chain hop, a WAL fsync.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Trace collects named stage timings for a single request. It is
// carried in the context (WithTrace/TraceFrom) and every method is safe
// on a nil receiver, so instrumented code calls TraceFrom(ctx).Observe
// unconditionally — untraced requests (the overwhelmingly common case)
// pay one context probe and a nil check, no allocation, no lock.
//
// Stages append under a mutex because a traced compose can fan out
// (batch items) — traced requests are the rare diagnostic case,
// so the lock is never on the hot path.
type Trace struct {
	mu     sync.Mutex
	stages []Stage
}

type traceKeyType struct{}

var traceKey traceKeyType

// WithTrace returns a context carrying a fresh Trace, plus the trace.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	tr := &Trace{}
	return context.WithValue(ctx, traceKey, tr), tr
}

// TraceFrom returns the context's Trace, or nil if the request is not
// being traced. The nil result is usable: all Trace methods no-op on
// nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey).(*Trace)
	return tr
}

// Observe appends a named stage duration. No-op on a nil trace.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.stages = append(t.stages, Stage{Name: name, Dur: d})
	t.mu.Unlock()
}

// Stages returns a copy of the recorded stages in observation order.
// Nil-safe (returns nil).
func (t *Trace) Stages() []Stage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Stage, len(t.stages))
	copy(out, t.stages)
	return out
}
