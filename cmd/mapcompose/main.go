// Command mapcompose composes the mappings declared in a composition task
// file (the plain-text format of §4 of the paper) and prints the results.
//
// Usage:
//
//	mapcompose [-v] [-invert] [-format text|json] [-timeout D] file.mc
//	mapcompose [-v] [-invert] [-format text|json] [-timeout D] < file.mc
//
// The file declares schemas, maps and compose statements; see
// internal/parser for the grammar and examples/quickstart for a worked
// file. With -format json the output is an array of the same result
// documents the mapcompd service returns from its compose endpoint.
// With -timeout the whole run is bounded by a deadline: composition cost
// is worst-case exponential, and the deadline preempts ELIMINATE between
// strategy attempts, reporting how many symbols were eliminated before
// time ran out (the same contract as the service's -compose-timeout).
//
// With -invert the command skips composition and instead reports the
// quasi-inverse analysis of every declared map: one verdict per
// constraint, and whether the mapping as a whole yields a derived
// σB→σA inverse (the edges the catalog would add for bidirectional
// resolution). The exit status is 0 only when every map inverts.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mapcomp"
	"mapcomp/internal/server"
)

func main() {
	verbose := flag.Bool("v", false, "print per-symbol elimination steps")
	invert := flag.Bool("invert", false, "report per-mapping inversion verdicts instead of composing")
	format := flag.String("format", "text", "output format: text or json")
	timeout := flag.Duration("timeout", 0, "deadline for the whole run; preempted compositions fail (0 = none)")
	flag.Parse()
	if *format != "text" && *format != "json" {
		usage(fmt.Errorf("unknown format %q (want text or json)", *format))
	}
	if flag.NArg() > 1 {
		usage(fmt.Errorf("expected at most one input file, got %d arguments", flag.NArg()))
	}

	var src []byte
	var err error
	if flag.NArg() == 1 {
		src, err = os.ReadFile(flag.Arg(0))
	} else {
		src, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fatal(err)
	}

	problem, err := mapcomp.ParseProblem(string(src))
	if err != nil {
		fatal(err)
	}
	if *invert {
		reportInversions(problem, *format)
		return
	}
	if len(problem.Compositions) == 0 {
		fatal(fmt.Errorf("no compose declarations in input"))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	results, err := mapcomp.RunContext(ctx, problem, nil)
	if err != nil {
		fatal(err)
	}

	if *format == "json" {
		docs := make([]server.NamedResultJSON, len(results))
		for i, r := range results {
			docs[i] = server.NamedResultJSON{Name: r.Name, Result: server.NewResultJSON(r.Result)}
		}
		// server.EncodeWire is the one canonical encoder: the documents
		// printed here are byte-compatible with the service's responses.
		if err := server.EncodeWire(os.Stdout, docs, "  "); err != nil {
			fatal(err)
		}
		return
	}

	for _, r := range results {
		fmt.Printf("-- compose %s\n", r.Name)
		if *verbose {
			names := make([]string, 0, len(r.Result.Eliminated))
			for s := range r.Result.Eliminated {
				names = append(names, s)
			}
			sort.Strings(names)
			for _, s := range names {
				fmt.Printf("--   eliminated %s via %s\n", s, r.Result.Eliminated[s])
			}
			for _, s := range r.Result.Remaining {
				fmt.Printf("--   kept %s (not eliminable)\n", s)
			}
		} else if len(r.Result.Remaining) > 0 {
			fmt.Printf("--   kept: %v\n", r.Result.Remaining)
		}
		for _, c := range r.Result.Constraints {
			fmt.Printf("%s;\n", c)
		}
	}
}

// invertDoc is the -format json shape of one mapping's inversion
// report.
type invertDoc struct {
	Map        string       `json:"map"`
	From       string       `json:"from"`
	To         string       `json:"to"`
	Invertible bool         `json:"invertible"`
	Verdicts   []verdictDoc `json:"verdicts"`
}

type verdictDoc struct {
	Constraint string `json:"constraint"`
	Invertible bool   `json:"invertible"`
	Carried    bool   `json:"carried,omitempty"`
	Reason     string `json:"reason"`
	Detail     string `json:"detail,omitempty"`
}

// reportInversions prints the quasi-inverse analysis of every declared
// map, in declaration order, and exits non-zero when any map fails to
// invert — so the command doubles as a pre-publication gate for
// pipelines that require bidirectional reachability.
func reportInversions(problem *mapcomp.Problem, format string) {
	docs := make([]invertDoc, 0, len(problem.MapOrder))
	allOK := true
	for _, name := range problem.MapOrder {
		m, err := problem.Mapping(name)
		if err != nil {
			fatal(err)
		}
		decl := problem.Maps[name]
		inv := mapcomp.Invert(m)
		doc := invertDoc{Map: name, From: decl.From, To: decl.To, Invertible: inv.Invertible()}
		for _, v := range inv.Verdicts {
			doc.Verdicts = append(doc.Verdicts, verdictDoc{
				Constraint: v.Constraint.String(),
				Invertible: v.Invertible,
				Carried:    v.Carried,
				Reason:     string(v.Reason),
				Detail:     v.Detail,
			})
		}
		allOK = allOK && doc.Invertible
		docs = append(docs, doc)
	}

	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range docs {
			status := "invertible"
			if !d.Invertible {
				status = "NOT invertible"
			}
			fmt.Printf("-- map %s : %s -> %s (%s)\n", d.Map, d.From, d.To, status)
			for _, v := range d.Verdicts {
				mark := "ok"
				switch {
				case v.Carried:
					mark = "ok (carried)"
				case !v.Invertible:
					mark = v.Reason
				}
				fmt.Printf("--   [%s] %s;\n", mark, v.Constraint)
				if v.Detail != "" {
					fmt.Printf("--        %s\n", v.Detail)
				}
			}
		}
	}
	if !allOK {
		os.Exit(1)
	}
}

func usage(err error) {
	fmt.Fprintln(os.Stderr, "mapcompose:", err)
	fmt.Fprintln(os.Stderr, "usage: mapcompose [-v] [-invert] [-format text|json] [file.mc]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapcompose:", err)
	os.Exit(1)
}
