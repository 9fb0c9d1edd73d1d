// Schema evolution: a database design process that evolves a schema
// through a sequence of incremental modifications (§1.1 of the paper). The
// mappings between successive versions are composed into a single mapping
// from the first schema to the last, eliminating every intermediate
// version's symbols.
//
// The sequence below mirrors Figure 1's primitives by hand: an attribute
// is added to Emp (AA), the result is horizontally partitioned into
// active/retired with the backward variant (Hb: the old table is the union
// of the parts), and the active part is then renamed through an open-world
// inclusion (Sub). Forward partitioning (Hf) is among the hardest
// primitives in the paper's Figure 2 and typically leaves a symbol behind;
// try replacing e2's constraint to see the best-effort output.
//
// The second half walks the evolution backwards: an undo from v3 to v1
// served purely through derived inverse edges. Only the forward
// mappings are registered; the catalog's quasi-inverse analysis judges
// e1 and e2 losslessly reversible (each determines the older version's
// content from the newer one's), derives the reverse edges, and routes
// v3→v1 over them — every hop reports "derived-inverse" provenance.
// The rename step e3 is an open-world containment, so undoing from v4
// fails, and the error names e3 as the blocker.
//
// Run with: go run ./examples/schemaevolution
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"mapcomp"
	"mapcomp/internal/catalog"
	"mapcomp/internal/core"
)

const task = `
schema v1 { Emp/2; }                       -- id, name
schema v2 { EmpD/3; }                      -- id, name, dept     (AA)
schema v3 { Active/3; Retired/3; }         -- (Hb on dept)
schema v4 { Staff/3; Retired/3; }          -- Active ⊆ Staff     (Sub)

map e1 : v1 -> v2 {
  Emp = proj[1,2](EmpD);
}
map e2 : v2 -> v3 {
  EmpD = Active + Retired;
}
map e3 : v3 -> v4 {
  Active <= Staff;
  Retired = Retired;
}

compose v1_to_v4 = e1 * e2 * e3;
`

func main() {
	problem, err := mapcomp.ParseProblem(task)
	if err != nil {
		log.Fatal(err)
	}
	results, err := mapcomp.Run(problem)
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	fmt.Println("intermediate versions eliminated:")
	for sym, step := range r.Result.Eliminated {
		fmt.Printf("  %s via %s\n", sym, step)
	}
	if len(r.Result.Remaining) > 0 {
		fmt.Printf("kept (best effort): %v\n", r.Result.Remaining)
	}
	fmt.Println("direct v1 -> v4 mapping:")
	for _, c := range r.Result.Constraints {
		fmt.Printf("  %s\n", c)
	}

	// Undo: recover the original design from an evolved version without
	// authoring a single backward mapping. The catalog derives inverse
	// edges for every mapping whose constraints invert losslessly.
	cat := catalog.New()
	if _, err := cat.Apply(problem); err != nil {
		log.Fatal(err)
	}
	snap := cat.Snap()
	route, err := snap.Route("v3", "v1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nundo route v3 -> v1 (no backward mapping was registered):")
	for _, h := range route.Hops {
		fmt.Printf("  %s -> %s via %s (%s)\n", h.From, h.To, h.Mapping, h.Prov)
	}
	undo, err := core.ComposeChain(context.Background(), route.Mappings(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("derived v3 -> v1 mapping:")
	for _, c := range undo.Constraints {
		fmt.Printf("  %s\n", c)
	}

	// The rename step e3 is an open-world containment (Active ⊆ Staff):
	// Staff may hold tuples with no Active preimage, so its inverse is
	// unsound and the undo cannot start at v4. The error says which
	// mapping blocks, and mapcompose -invert prints the same verdict.
	if _, err := snap.Route("v4", "v1"); err != nil {
		var noPath *catalog.NoPathError
		if errors.As(err, &noPath) {
			fmt.Printf("\nundo from v4 is refused: %v\n", noPath)
		} else {
			log.Fatal(err)
		}
	}
}
