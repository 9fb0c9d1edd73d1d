// Package obs is the serving stack's telemetry layer: lock-free
// log-bucketed latency histograms with percentile extraction, cheap
// counters, a process-wide registry rendered in the Prometheus text
// format (stdlib only), and a lightweight per-request trace that rides
// the context plumbing so every layer — HTTP handlers, the compose
// engine, the WAL, the cache — can report stage timings without
// coupling to the server.
//
// Everything on the observation path is allocation-free: Observe is two
// atomic adds into a fixed-size bucket array, Counter.Add is one, and
// Trace lookups are a context value probe. The paper's experiments are
// all about where composition time goes (per-strategy ELIMINATE cost,
// blow-up aborts, chain depth — Figures 2/3/6); this package is what
// lets the serving layer answer the same question per request, in
// production, at zero cost to the cache hit path.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The bucket layout is log-linear (the HdrHistogram scheme): subBuckets
// linear buckets per power of two, so every bucket's width is at most
// 1/subBuckets of its lower bound. With subBits = 3 a recorded value is
// attributed to a bucket whose bounds are within 12.5% of it — tight
// enough that p50/p99/p999 extracted from the buckets bracket the true
// order statistics (the oracle tests pin this), while the whole array
// stays 496 counters (~4 KB) and Observe is branch-light index math.
const (
	subBits    = 3
	subBuckets = 1 << subBits
	// numBuckets covers the full non-negative int64 nanosecond range:
	// indexes 0..subBuckets-1 are exact (value == index), and each
	// further power of two contributes subBuckets buckets.
	numBuckets = (64-subBits)*subBuckets + subBuckets
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - subBits - 1
	return int(exp)<<subBits + int(v>>exp)
}

// bucketUpper returns the largest value mapping to bucket idx.
func bucketUpper(idx int) uint64 {
	if idx < subBuckets {
		return uint64(idx)
	}
	exp := uint(idx>>subBits) - 1
	sub := uint64(idx&(subBuckets-1)) | subBuckets
	return (sub+1)<<exp - 1
}

// bucketLower returns the smallest value mapping to bucket idx.
func bucketLower(idx int) uint64 {
	if idx == 0 {
		return 0
	}
	return bucketUpper(idx-1) + 1
}

// Histogram is a fixed-size, lock-free latency histogram. Observe never
// allocates and never blocks: it is two atomic adds, safe from any
// number of goroutines, so it can sit on the cache hit path and inside
// ELIMINATE without perturbing what it measures. The zero value is
// ready to use. Histograms are mergeable (snapshot addition is
// bucketwise), which is what lets a benchmark harness diff phase
// boundaries out of one continuously-recording histogram.
type Histogram struct {
	sum     atomic.Uint64 // nanoseconds; count is derived from buckets
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Snapshot copies the current state. Concurrent Observes may land
// between the bucket reads, so a snapshot taken under load is a
// near-point-in-time view, not a linearizable one; at quiescence it is
// exact. Count is the bucket total, so rank arithmetic inside one
// snapshot is always self-consistent.
func (h *Histogram) Snapshot() *HistSnapshot {
	s := &HistSnapshot{Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	return s
}

// HistSnapshot is an immutable copy of a histogram's state.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64 // nanoseconds
	Buckets [numBuckets]uint64
}

// Merge adds o's observations into s (bucketwise; associative and
// commutative, as the merge tests pin).
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// rank converts a quantile to a 1-based order-statistic rank.
func (s *HistSnapshot) rank(q float64) uint64 {
	r := uint64(math.Ceil(q * float64(s.Count)))
	if r < 1 {
		r = 1
	}
	if r > s.Count {
		r = s.Count
	}
	return r
}

// Quantile returns an upper bound for the q-quantile (0 < q ≤ 1): the
// upper edge of the bucket holding the rank-⌈q·n⌉ observation, hence
// within one bucket width (≤ 12.5%) of the exact order statistic. An
// empty snapshot reports 0.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	_, hi := s.QuantileBounds(q)
	return hi
}

// QuantileBounds returns the bucket bounds bracketing the q-quantile:
// the exact order statistic lies in [lo, hi]. The oracle tests verify
// this against a sorted slice of the raw observations.
func (s *HistSnapshot) QuantileBounds(q float64) (lo, hi time.Duration) {
	if s.Count == 0 {
		return 0, 0
	}
	want := s.rank(q)
	var cum uint64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= want {
			return time.Duration(bucketLower(i)), time.Duration(bucketUpper(i))
		}
	}
	// Unreachable when Count equals the bucket total (it does by
	// construction), kept as a safe fallback.
	return 0, time.Duration(bucketUpper(numBuckets - 1))
}

// Mean returns the arithmetic mean of the recorded durations.
func (s *HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}
