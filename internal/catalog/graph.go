package catalog

import (
	"iter"

	"mapcomp/internal/core"
)

// GraphStats summarizes one snapshot's bidirectional mapping graph:
// edge counts by provenance, reachability with and without the derived
// inverses, and the per-reason inversion-verdict tally across every
// registered constraint. The serving layer exposes it on /v1/stats and
// /metrics; the reachable-pair ratio is the headline number — how many
// endpoint pairs inversion opened without a single new registration.
type GraphStats struct {
	// Schemas and Mappings are the node count and registered-mapping
	// count of the graph.
	Schemas, Mappings int
	// RegisteredEdges and DerivedEdges count graph edges by provenance.
	// RegisteredEdges == Mappings; DerivedEdges == InvertibleMappings.
	RegisteredEdges, DerivedEdges int
	// InvertibleMappings counts registered mappings whose every
	// constraint passed the quasi-inverse judgement.
	InvertibleMappings int
	// ReachablePairs counts ordered schema pairs (a, b), a ≠ b,
	// connected over the full bidirectional graph; ForwardReachablePairs
	// counts them over registered edges only. Their ratio is the
	// reachability multiplier inversion buys.
	ReachablePairs, ForwardReachablePairs int
	// Verdicts tallies constraint-level inversion verdicts across all
	// registered mappings, keyed by reason ("ok" for invertible).
	Verdicts map[string]int
}

// graphStats computes the statistics for this view. Cost is two BFS
// sweeps per schema, O(S·(S+E)) — the one all-pairs computation left
// per publish — so it is computed lazily on first request and cached
// on the immutable view; every later call on the same snapshot is a
// pointer load.
func (v *view) graphStats() *GraphStats {
	if gs := v.graph.Load(); gs != nil {
		return gs
	}
	gs := &GraphStats{
		Schemas:  len(v.schemaList),
		Mappings: len(v.mapList),
		Verdicts: make(map[string]int),
	}
	for _, m := range v.mapList {
		inv := v.inversions[m.Name]
		if inv.Invertible() {
			gs.InvertibleMappings++
		}
		for _, vd := range inv.Verdicts {
			gs.Verdicts[string(vd.Reason)]++
		}
	}
	for _, es := range v.edges {
		for i := range es {
			if es[i].inv {
				gs.DerivedEdges++
			} else {
				gs.RegisteredEdges++
			}
		}
	}
	for src := range v.schemaList {
		_, _, order := v.bfsFrom(src)
		gs.ReachablePairs += len(order)
		gs.ForwardReachablePairs += len(v.forwardOrder(src))
	}
	// Benign publication race: two readers may both compute and store;
	// the results are identical because the view is immutable.
	v.graph.Store(gs)
	return gs
}

// forwardOrder is the discovery order of a registered-edges-only BFS
// from src — the graph as it was before derived inverses existed.
func (v *view) forwardOrder(src int) []int {
	n := len(v.schemaList)
	visited := make([]bool, n)
	visited[src] = true
	order := make([]int, 0, n)
	queue := []int{src}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		es := v.edges[h]
		for i := range es {
			if es[i].inv || visited[es[i].to] {
				continue
			}
			visited[es[i].to] = true
			order = append(order, es[i].to)
			queue = append(queue, es[i].to)
		}
	}
	return order
}

// GraphStats returns the (lazily computed, cached) graph statistics of
// this snapshot.
func (s Snap) GraphStats() *GraphStats { return s.v.graphStats() }

// Pairs enumerates the ordered schema pairs (a, b), a ≠ b, connected
// over this snapshot's bidirectional graph — derived-inverse edges
// included, so a full sweep yields GraphStats().ReachablePairs pairs.
// Sources come in name order and so do each source's targets: the
// schema indices are name-sorted, and a target's presence is read off
// the BFS tree rather than its discovery order. Each source costs one
// bfsFrom, so a full sweep is O(S·(S+E)); breaking out of the loop
// skips the remaining sources.
func (s Snap) Pairs() iter.Seq2[string, string] {
	v := s.v
	return func(yield func(from, to string) bool) {
		for src, a := range v.schemaList {
			via, _, _ := v.bfsFrom(src)
			for dst, e := range via {
				if e != nil && !yield(a.Name, v.schemaList[dst].Name) {
					return
				}
			}
		}
	}
}

// Inversion returns the quasi-inverse judgement for a registered
// mapping in this snapshot: the per-constraint verdicts and, when every
// constraint passed, the derived inverse mapping.
func (s Snap) Inversion(name string) (*core.Inversion, bool) {
	inv, ok := s.v.inversions[name]
	return inv, ok
}
