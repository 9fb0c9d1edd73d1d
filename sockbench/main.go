package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed calibration was measured with.
const defaultSeed = 1

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", defaultSeed, "seed of the generated catalogs and request streams")
	seconds := flag.Int("seconds", 12, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics against mapcompd; 1: per-layer metrics from a traced in-process replay")
	out := flag.String("out", "", "also write the full result document (metrics, sample counts, workload notes, ledger) to this file")
	flag.Parse()
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}
	if flag.NArg() > 0 || *seconds < 1 || *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "sockbench: want -seconds ≥ 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var outcomes []*outcome
	for _, name := range names {
		o, err := runWorkload(ctx, name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sockbench: %s: %v\n", name, err)
			return 1
		}
		for _, m := range o.metrics {
			fmt.Printf("%-12s %-40s %16.4f %-5s", name, m.name, m.value, m.unit)
			if m.samples > 0 {
				fmt.Printf(" n=%d", m.samples)
			}
			fmt.Println()
		}
		if o.mismatch != nil {
			fmt.Fprintf(os.Stderr, "sockbench: %s: MISMATCH: %v\n", name, o.mismatch)
		}
		if o.failed > 0 {
			fmt.Fprintf(os.Stderr, "sockbench: %s: %d of %d requests failed\n", name, o.failed, o.attempted)
		}
		outcomes = append(outcomes, o)
	}

	res := summarize(outcomes)
	if *out != "" {
		if err := writeOut(*out, *seed, *seconds, *trace, outcomes); err != nil {
			fmt.Fprintln(os.Stderr, "sockbench:", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sockbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload generates one workload and measures it, all within a
// deadline that keeps a wedged server from stalling the run.
func runWorkload(ctx context.Context, name string, seed int64, secs time.Duration, trace bool) (*outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute+2*secs)
	defer cancel()
	start := time.Now()
	w, err := buildWorkload(ctx, name, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "sockbench: %s: %d schemas, %d mappings, %d compose targets; generated and referenced in %.1f s\n",
		name, w.notes.Schemas, w.notes.Mappings, w.notes.Pairs, time.Since(start).Seconds())
	var o *outcome
	cpu0 := readCPU()
	if trace {
		o, err = runTraced(ctx, w, seed, secs)
	} else {
		o, err = runDaemon(ctx, w, seed, secs)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		o.steal = stealShare(cpu0, readCPU())
		fmt.Fprintf(os.Stderr, "sockbench: %s: the hypervisor stole %.0f%% of the machine's CPU time during the run\n", name, 100*o.steal)
	}
	return o, err
}

// jsonMetric is one metric in the result line; a NaN value is null.
type jsonMetric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finite is v, or nil (JSON null) when v is NaN or infinite.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

func metricsJSON(ms []measured, prefix string, into map[string]jsonMetric) {
	for _, m := range ms {
		into[prefix+m.name] = jsonMetric{Value: finite(m.value), Unit: m.unit}
	}
}

// summarize builds the result line. A single workload reports its
// metrics by name; an all-workload run prefixes each with the workload.
// The generated workloads never fail a request, so a failed one, like a
// response that contradicts the reference, makes the run incorrect.
func summarize(outcomes []*outcome) result {
	res := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, o := range outcomes {
		res.Correct = res.Correct && o.correct()
		res.Attempted += o.attempted
		res.Failed += o.failed
		prefix := ""
		if len(outcomes) > 1 {
			prefix = o.workload + "."
		}
		metricsJSON(o.metrics, prefix, res.Metrics)
	}
	return res
}

// writeOut writes the full result document for the calibration record.
func writeOut(path string, seed int64, seconds, trace int, outcomes []*outcome) error {
	type workloadDoc struct {
		Name       string                `json:"name"`
		Correct    bool                  `json:"correct"`
		Mismatch   string                `json:"mismatch,omitempty"`
		Attempted  int                   `json:"attempted"`
		Failed     int                   `json:"failed"`
		Metrics    map[string]jsonMetric `json:"metrics"`
		Samples    map[string]int        `json:"samples"`
		HitRate    float64               `json:"hit_rate"`
		Multiplier float64               `json:"reachability_multiplier"`
		Steal      *float64              `json:"steal_share"`
		Notes      notes                 `json:"notes"`
		Ledger     []ledgerRow           `json:"ledger,omitempty"`
	}
	doc := struct {
		Seed       int64         `json:"seed"`
		Seconds    int           `json:"seconds"`
		Trace      int           `json:"trace"`
		Go         string        `json:"go"`
		GOMAXPROCS int           `json:"gomaxprocs"`
		Workloads  []workloadDoc `json:"workloads"`
	}{Seed: seed, Seconds: seconds, Trace: trace, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, o := range outcomes {
		wd := workloadDoc{Name: o.workload, Correct: o.correct(), Attempted: o.attempted, Failed: o.failed,
			Metrics: map[string]jsonMetric{}, Samples: map[string]int{}, HitRate: o.hitRate, Multiplier: o.multiplier,
			Steal: finite(o.steal), Notes: o.notes, Ledger: o.ledger}
		if o.mismatch != nil {
			wd.Mismatch = o.mismatch.Error()
		}
		metricsJSON(o.metrics, "", wd.Metrics)
		for _, m := range o.metrics {
			if m.samples > 0 {
				wd.Samples[m.name] = m.samples
			}
		}
		doc.Workloads = append(doc.Workloads, wd)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
