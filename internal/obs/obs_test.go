package obs

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundsRoundTrip pins the log-linear index math: every
// bucket's [lower, upper] range maps back to that bucket, the ranges
// tile the value space with no gaps or overlaps, and the relative
// bucket width never exceeds 1/subBuckets.
func TestBucketBoundsRoundTrip(t *testing.T) {
	prevUpper := uint64(0)
	for idx := 0; idx < numBuckets; idx++ {
		lo, hi := bucketLower(idx), bucketUpper(idx)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", idx, lo, hi)
		}
		if idx == 0 {
			if lo != 0 {
				t.Fatalf("bucket 0 lower = %d, want 0", lo)
			}
		} else if lo != prevUpper+1 {
			t.Fatalf("bucket %d: lower %d, want %d (no gap/overlap)", idx, lo, prevUpper+1)
		}
		prevUpper = hi
		if got := bucketIndex(lo); got != idx {
			t.Fatalf("bucketIndex(lower=%d) = %d, want %d", lo, got, idx)
		}
		if got := bucketIndex(hi); got != idx {
			t.Fatalf("bucketIndex(upper=%d) = %d, want %d", hi, got, idx)
		}
		// Relative width bound: width/lower ≤ 1/subBuckets for the
		// logarithmic region.
		if lo >= subBuckets {
			width := float64(hi - lo + 1)
			if width/float64(lo) > 1.0/subBuckets+1e-9 {
				t.Fatalf("bucket %d [%d,%d]: relative width %.4f exceeds 1/%d",
					idx, lo, hi, width/float64(lo), subBuckets)
			}
		}
	}
	if prevUpper != math.MaxInt64 {
		// The last buckets cover up through 2^64-1 internally; at
		// minimum the int64 duration range must be covered.
		if prevUpper < math.MaxInt64 {
			t.Fatalf("buckets top out at %d, below MaxInt64", prevUpper)
		}
	}
}

// adversarialDistributions are raw observation sets chosen to stress
// rank extraction: point masses, heavy ties at bucket edges, bimodal
// spikes, geometric spreads, tiny sets.
func adversarialDistributions(rng *rand.Rand) map[string][]int64 {
	dists := map[string][]int64{
		"single":        {42},
		"two":           {1, 1 << 40},
		"all-zero":      make([]int64, 1000),
		"all-same":      repeat(777777, 5000),
		"tiny-values":   {0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"bucket-edges":  nil,
		"bimodal":       nil,
		"geometric":     nil,
		"uniform-large": nil,
	}
	for idx := 0; idx < numBuckets; idx += 7 {
		dists["bucket-edges"] = append(dists["bucket-edges"],
			clampI64(bucketLower(idx)), clampI64(bucketUpper(idx)))
	}
	for i := 0; i < 2000; i++ {
		dists["bimodal"] = append(dists["bimodal"], 100+rng.Int63n(10))
	}
	for i := 0; i < 20; i++ {
		dists["bimodal"] = append(dists["bimodal"], 1e9+rng.Int63n(1e6))
	}
	v := int64(1)
	for i := 0; i < 50; i++ {
		dists["geometric"] = append(dists["geometric"], repeat(v, 1+i%5)...)
		v *= 2
	}
	for i := 0; i < 10000; i++ {
		dists["uniform-large"] = append(dists["uniform-large"], rng.Int63n(1e12))
	}
	return dists
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func clampI64(v uint64) int64 {
	if v > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// TestQuantileOracle checks, for every adversarial distribution and
// every quantile of interest, that the true order statistic from a
// sorted-slice oracle falls inside QuantileBounds, and that Quantile's
// point estimate is within one bucket width (≤ 12.5% relative error,
// +1 absolute for the integer floor region).
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, vals := range adversarialDistributions(rng) {
		t.Run(name, func(t *testing.T) {
			h := &Histogram{}
			for _, v := range vals {
				h.Observe(time.Duration(v))
			}
			s := h.Snapshot()
			if s.Count != uint64(len(vals)) {
				t.Fatalf("count = %d, want %d", s.Count, len(vals))
			}
			sorted := append([]int64(nil), vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, q := range []float64{0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0} {
				rank := int(math.Ceil(q * float64(len(sorted))))
				if rank < 1 {
					rank = 1
				}
				exact := sorted[rank-1]
				lo, hi := s.QuantileBounds(q)
				if int64(lo) > exact || exact > int64(hi) {
					t.Errorf("q=%g: exact %d outside bounds [%d, %d]", q, exact, lo, hi)
				}
				// Point estimate error bound: one bucket width.
				est := int64(s.Quantile(q))
				if est < exact {
					t.Errorf("q=%g: estimate %d below exact %d (must be upper bound)", q, est, exact)
				}
				if exact >= subBuckets && float64(est-exact) > float64(exact)/subBuckets+1 {
					t.Errorf("q=%g: estimate %d vs exact %d exceeds 12.5%% relative error", q, est, exact)
				}
			}
		})
	}
}

// TestMergeAssociative pins that snapshot merging is associative and
// commutative: (a+b)+c == a+(b+c) == (c+a)+b, bucketwise.
func TestMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mk := func(n int, scale int64) *HistSnapshot {
		h := &Histogram{}
		for i := 0; i < n; i++ {
			h.Observe(time.Duration(rng.Int63n(scale)))
		}
		return h.Snapshot()
	}
	a, b, c := mk(500, 1e6), mk(700, 1e9), mk(300, 1e3)

	clone := func(s *HistSnapshot) *HistSnapshot { cp := *s; return &cp }

	ab := clone(a)
	ab.Merge(b)
	abc1 := clone(ab)
	abc1.Merge(c)

	bc := clone(b)
	bc.Merge(c)
	abc2 := clone(a)
	abc2.Merge(bc)

	ca := clone(c)
	ca.Merge(a)
	abc3 := clone(ca)
	abc3.Merge(b)

	for i, other := range []*HistSnapshot{abc2, abc3} {
		if *abc1 != *other {
			t.Fatalf("merge not associative/commutative (variant %d differs)", i)
		}
	}
	if abc1.Count != a.Count+b.Count+c.Count {
		t.Fatalf("merged count %d, want %d", abc1.Count, a.Count+b.Count+c.Count)
	}
}

// TestConcurrentObserveSnapshot is the -race hammer: many observers
// against concurrent snapshot readers, then an exact final count.
func TestConcurrentObserveSnapshot(t *testing.T) {
	h := &Histogram{}
	const goroutines = 8
	const perG = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot readers run throughout; intermediate snapshots must be
	// internally consistent (Count == Σ buckets by construction) and
	// monotonically non-decreasing in count.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Snapshot()
				if s.Count < last {
					t.Error("snapshot count went backwards")
					return
				}
				last = s.Count
				s.Quantile(0.99)
			}
		}()
	}
	var og sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		og.Add(1)
		go func(g int) {
			defer og.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Observe(time.Duration(rng.Int63n(1e9)))
			}
		}(g)
	}
	og.Wait()
	close(stop)
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("final count = %d, want %d", got, goroutines*perG)
	}
}

// TestObserveZeroAlloc is the alloc guard: Observe and Counter.Add must
// not allocate — they sit on the serving hit path under the PR 5
// ≤24-alloc budget.
func TestObserveZeroAlloc(t *testing.T) {
	h := &Histogram{}
	var c Counter
	d := 1234 * time.Nanosecond
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		c.Inc()
	}); n != 0 {
		t.Fatalf("Observe+Inc allocates %.1f times per call, want 0", n)
	}
}

// TestNilTraceSafe pins that the untraced path is free: TraceFrom on a
// bare context returns nil, and nil-receiver methods no-op.
func TestNilTraceSafe(t *testing.T) {
	tr := TraceFrom(context.Background())
	if tr != nil {
		t.Fatalf("TraceFrom(bare ctx) = %v, want nil", tr)
	}
	tr.Observe("x", time.Second) // must not panic
	if got := tr.Stages(); got != nil {
		t.Fatalf("nil trace Stages() = %v, want nil", got)
	}
}

func TestTraceStages(t *testing.T) {
	ctx, tr := WithTrace(context.Background())
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom did not return the installed trace")
	}
	tr.Observe("eliminate/unfold", 5*time.Microsecond)
	TraceFrom(ctx).Observe("chain/hop1", 7*time.Microsecond)
	st := tr.Stages()
	if len(st) != 2 || st[0].Name != "eliminate/unfold" || st[1].Dur != 7*time.Microsecond {
		t.Fatalf("stages = %+v", st)
	}
}

// TestWritePrometheus pins the exposition format: summary quantiles,
// _sum/_count, counters, sorted stable output, label joining.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("test_seconds", `route="compose",outcome="hit"`)
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	r.Counter("test_events_total", "").Add(3)
	r.Hist("test_plain_seconds", "").Observe(time.Second)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE test_seconds summary\n",
		`test_seconds{route="compose",outcome="hit",quantile="0.5"}`,
		`test_seconds{route="compose",outcome="hit",quantile="0.99"}`,
		`test_seconds{route="compose",outcome="hit",quantile="0.999"}`,
		`test_seconds_sum{route="compose",outcome="hit"} 0.1`,
		`test_seconds_count{route="compose",outcome="hit"} 100`,
		"# TYPE test_events_total counter\n",
		"test_events_total 3\n",
		`test_plain_seconds{quantile="0.5"}`,
		"test_plain_seconds_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Deterministic output across renders.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if out != b2.String() {
		t.Error("exposition not deterministic across renders")
	}
}

// TestRegistryGetOrCreate pins that the same (name, labels) pair always
// resolves to the same instrument.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Hist("a", `x="1"`) != r.Hist("a", `x="1"`) {
		t.Fatal("same key resolved to different histograms")
	}
	if r.Hist("a", `x="1"`) == r.Hist("a", `x="2"`) {
		t.Fatal("different labels resolved to the same histogram")
	}
	if r.Counter("c", "") != r.Counter("c", "") {
		t.Fatal("same key resolved to different counters")
	}
}

func BenchmarkObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
