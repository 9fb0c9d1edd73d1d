package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile of xs by nearest rank, 0 for no
// samples. Failed operations enter xs as +Inf, so they count as beyond
// every percentile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// cpuSample is the machine's cumulative CPU time, all CPUs together, and
// the part of it the hypervisor gave to other guests, in clock ticks.
type cpuSample struct{ total, steal float64 }

// stealShare is the share of the machine's CPU time between a and b that
// the hypervisor stole, NaN when it is unknown. Every timing metric slows
// with it, so a run records it beside its results.
func stealShare(a, b cpuSample) float64 {
	if b.total <= a.total {
		return math.NaN()
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
