package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: "r", Name: "parent", Start: 0, End: 100},
		{ID: "r", Name: "a", Parent: "parent", Start: 10, End: 40},
		{ID: "r", Name: "b", Parent: "parent", Start: 30, End: 60},    // overlaps a: the union is 10-60
		{ID: "r", Name: "c", Parent: "parent", Start: 90, End: 120},   // clipped to 90-100
		{ID: "r", Name: "d", Parent: "a", Start: 15, End: 20},         // a grandchild counts against a only
		{ID: "other", Name: "e", Parent: "parent", Start: 0, End: 50}, // another request's span
	}
	setSelfTimes(spans)
	for _, tc := range []struct {
		i    int
		want int64
	}{{0, 100 - 50 - 10}, {1, 30 - 5}, {2, 30}, {5, 50}} {
		if got := spans[tc.i].Self; got != tc.want {
			t.Errorf("%s self = %d, want %d", spans[tc.i].Name, got, tc.want)
		}
	}
}

func TestLedgerFlagsOverAttribution(t *testing.T) {
	over := newLedgerRow("catalog.apply", 100, map[string]float64{"catalog.delta": 80, "persist.wal_append": 31})
	if !over.Flagged {
		t.Errorf("children at 111%% of the parent not flagged: %+v", over)
	}
	within := newLedgerRow("catalog.apply", 100, map[string]float64{"catalog.delta": 80, "persist.wal_append": 29})
	if within.Flagged || math.Abs(within.Unattributed-(-0.09)) > 1e-9 {
		t.Errorf("children at 109%% of the parent: %+v, want unflagged with share -0.09", within)
	}
	if empty := newLedgerRow("server.handle.miss", 0, map[string]float64{"core.compose": 0}); empty.Flagged || empty.Unattributed != 0 {
		t.Errorf("an empty row: %+v", empty)
	}
}

// TestTracedRunLinksSpans replays a small hot_read slice against the
// in-process server and checks the spans file: the client and server
// spans of one request share its id, the server's interval lies inside
// the client's, and every per-layer metric is reported.
func TestTracedRunLinksSpans(t *testing.T) {
	t.Chdir(t.TempDir())
	w, err := generate("hot_read", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.pairs = w.pairs[:30]
	w.warm, w.allHits = false, false // Warm sweeps all 450² pairs; misses are wanted here
	if err := w.reference(t.Context()); err != nil {
		t.Fatal(err)
	}
	o, err := runTraced(t.Context(), w, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if o.mismatch != nil || o.failed > 0 {
		t.Fatalf("mismatch %v, %d failed", o.mismatch, o.failed)
	}
	if len(o.metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(o.metrics), len(perLayer))
	}
	raw, err := os.ReadFile(filepath.Join(buildDir, "trace", "hot_read-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ledger []ledgerRow
		Spans  []span
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]map[string]span)
	for _, s := range doc.Spans {
		if byID[s.ID] == nil {
			byID[s.ID] = make(map[string]span)
		}
		byID[s.ID][s.Name] = s
	}
	requests, publishes := 0, 0
	for id, named := range byID {
		if c, ok := named["client.request"]; ok {
			requests++
			h, ok := named["server.handle"]
			if !ok {
				continue // the window closed between the two
			}
			if h.Start < c.Start || h.End > c.End || c.Self != (c.End-c.Start)-(h.End-h.Start) {
				t.Fatalf("request %s: server %+v not inside client %+v", id, h, c)
			}
		}
		if _, ok := named["client.publish"]; ok {
			publishes++
			for _, child := range []string{"parser.parse", "catalog.apply", "persist.wal_append"} {
				if _, ok := named[child]; !ok {
					t.Fatalf("publish %s has no %s span", id, child)
				}
			}
		}
	}
	if requests == 0 || publishes != w.probe {
		t.Fatalf("%d requests and %d publishes traced, want some and %d", requests, publishes, w.probe)
	}
	if len(doc.Ledger) != 4 {
		t.Fatalf("ledger has %d rows", len(doc.Ledger))
	}
	for _, r := range doc.Ledger {
		if r.Flagged {
			t.Errorf("ledger row over-attributed: %+v", r)
		}
	}

	// -out records the same run: every metric and the ledger.
	if err := writeOut("out.json", 1, 1, 1, []*outcome{o}); err != nil {
		t.Fatal(err)
	}
	if raw, err = os.ReadFile("out.json"); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Workloads []struct {
			Correct bool
			Metrics map[string]jsonMetric
			Ledger  []ledgerRow
		}
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Workloads) != 1 || !out.Workloads[0].Correct || len(out.Workloads[0].Metrics) != len(perLayer) || len(out.Workloads[0].Ledger) != 4 {
		t.Fatalf("-out document %s", raw)
	}
}
