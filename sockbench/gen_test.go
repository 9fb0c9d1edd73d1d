package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// streamPrefix is the first n compose targets of every reader plus the
// first n publishes.
func streamPrefix(w *workload, seed int64, n int) (reads [][]int, pubs []string) {
	t := newTraffic(w, seed)
	for _, next := range t.streams {
		var r []int
		for i := 0; i < n; i++ {
			r = append(r, next())
		}
		reads = append(reads, r)
	}
	for i := 0; i < n; i++ {
		pubs = append(pubs, t.nextPublish())
	}
	return reads, pubs
}

func TestGeneratorIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := generate(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			c, err := generate(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			if a.text != b.text || !reflect.DeepEqual(a.pairs, b.pairs) {
				t.Fatal("same seed, different catalog text or compose targets")
			}
			ra, pa := streamPrefix(a, 7, 200)
			rb, pb := streamPrefix(b, 7, 200)
			if !reflect.DeepEqual(ra, rb) || !reflect.DeepEqual(pa, pb) {
				t.Fatal("same seed, different request streams")
			}
			rc, pc := streamPrefix(c, 8, 200)
			if a.text == c.text || reflect.DeepEqual(a.pairs, c.pairs) || reflect.DeepEqual(ra, rc) || reflect.DeepEqual(pa, pc) {
				t.Fatal("a different seed left the catalog, the targets or the streams unchanged")
			}
		})
	}
}

// TestGeneratedShapes pins the catalog shapes the workloads are
// documented with; generate itself fails unless each catalog passes
// parser.Validate and catalog.Apply.
func TestGeneratedShapes(t *testing.T) {
	for _, tc := range []struct {
		name                     string
		schemas, mappings, pairs int
	}{
		{"hot_read", 450, 300, 750},
		{"evolve_miss", lineages * versions, lineages * (versions - 1), evolvePairs},
		{"publish_mix", 600, 599 + 600/5, powerLawPairs},
		{"catalog_2k", 2000, 1999 + 2000/5, powerLawPairs},
	} {
		w, err := generate(tc.name, 3)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := []int{len(w.prob.SchemaOrder), len(w.prob.MapOrder), len(w.pairs)}; !reflect.DeepEqual(got, []int{tc.schemas, tc.mappings, tc.pairs}) {
			t.Errorf("%s: schemas, mappings, pairs = %v, want %v", tc.name, got, []int{tc.schemas, tc.mappings, tc.pairs})
		}
		seen := make(map[[2]string]bool)
		for _, p := range w.pairs {
			if seen[p] || p[0] == p[1] {
				t.Fatalf("%s: target %v repeated or a self-pair", tc.name, p)
			}
			seen[p] = true
		}
		if _, err := parseTask(w.publishBody(w.prob.MapOrder[0])); err != nil {
			t.Errorf("%s: publish body: %v", tc.name, err)
		}
	}
}

// TestReferenceCountsDerivedInverses checks hot_read's reference: every
// target composes, and 300 of the 750 ride derived inverses, which makes
// the reachability multiplier 750/450.
func TestReferenceCountsDerivedInverses(t *testing.T) {
	w, err := buildWorkload(t.Context(), "hot_read", 1)
	if err != nil {
		t.Fatal(err)
	}
	reverse := 0
	for i, p := range w.pairs {
		if len(w.ref.want[i].needle) == 0 {
			t.Fatalf("no reference for %v", p)
		}
		r, err := w.ref.cat.Snap().Route(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if r.Hops[0].Prov == "derived-inverse" {
			reverse++
		}
	}
	if reverse != 300 {
		t.Errorf("%d targets start on a derived inverse, want 300", reverse)
	}
	if w.notes.FracEliminated != 1 {
		t.Errorf("frac_eliminated = %v, want 1 on two-hop clusters", w.notes.FracEliminated)
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the repository's BENCHMARK.json
// and the metrics this program reports in step.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	for _, tc := range []struct {
		json []struct{ Name, Unit string }
		code []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		var got, want []metricDef
		for _, m := range tc.json {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = tc.code
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json metrics\n%v\ncode reports\n%v", got, want)
		}
	}
}
