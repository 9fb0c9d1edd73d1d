package catalog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mapcomp/internal/algebra"
	"mapcomp/internal/core"
	"mapcomp/internal/parser"
)

// chainTask is the quickstart movie scenario split into two hops plus a
// decoy branch, so σA→σB resolution has real graph work to do.
const chainTask = `
schema original  { Movies/6; }
schema fivestar  { FiveStarMovies/3; }
schema split     { Names/2; Years/2; }
schema archive   { OldMovies/6; }

map m12 : original -> fivestar {
  proj[1,2,3](sel[#4='5'](Movies)) <= FiveStarMovies;
}
map m23 : fivestar -> split {
  proj[1,2,3](FiveStarMovies) <= proj[1,2,4](sel[#1=#3](Names * Years));
}
map mArch : original -> archive {
  Movies <= OldMovies;
}
`

func mustParse(t *testing.T, src string) *parser.Problem {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := parser.Validate(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// routePath resolves from→to against the current snapshot and returns
// the mapping names along the route: the partial route on ErrNoPath.
func routePath(c *Catalog, from, to string) ([]string, error) {
	r, err := c.Snap().Route(from, to)
	return r.Path, err
}

// compose resolves from→to in one snapshot and composes the chain left
// to right, as the serving layer's miss path does. The route comes back
// with any composition error, so callers can report what was composing.
func compose(ctx context.Context, s Snap, from, to string) (*core.Result, *Route, error) {
	r, err := s.Route(from, to)
	if err != nil {
		return nil, r, err
	}
	res, err := core.ComposeChain(ctx, r.Mappings(), nil)
	return res, r, err
}

// schemaItem and mappingItem build one-item problems: applying one
// installs or updates a single schema or mapping.
func schemaItem(name string, sch *algebra.Schema) *parser.Problem {
	return &parser.Problem{Schemas: map[string]*algebra.Schema{name: sch}, SchemaOrder: []string{name}}
}

func mappingItem(name, from, to string, cs algebra.ConstraintSet) *parser.Problem {
	d := &parser.MapDecl{Name: name, From: from, To: to, Constraints: cs}
	return &parser.Problem{Maps: map[string]*parser.MapDecl{name: d}, MapOrder: []string{name}}
}

func loadedCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	if _, err := c.Apply(mustParse(t, chainTask)); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegisterVersionsAndGeneration(t *testing.T) {
	c := New()
	if g := c.Generation(); g != 0 {
		t.Fatalf("fresh catalog generation = %d, want 0", g)
	}
	sch := algebra.NewSchema()
	sch.Sig["R"] = 2
	if _, err := c.Apply(schemaItem("s1", sch)); err != nil {
		t.Fatal(err)
	}
	e1, _ := c.Schema("s1")
	if e1.Version != 1 || e1.Generation != 1 {
		t.Fatalf("first revision = v%d g%d, want v1 g1", e1.Version, e1.Generation)
	}
	sch2 := algebra.NewSchema()
	sch2.Sig["R"] = 2
	sch2.Sig["S"] = 1
	if _, err := c.Apply(schemaItem("s1", sch2)); err != nil {
		t.Fatal(err)
	}
	e2, _ := c.Schema("s1")
	if e2.Version != 2 || e2.Generation != 2 {
		t.Fatalf("second revision = v%d g%d, want v2 g2", e2.Version, e2.Generation)
	}
	if got, _ := c.Schema("s1"); got != e2 {
		t.Fatalf("Schema(s1) returned stale revision v%d", got.Version)
	}
	if g := c.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}

	// Entries are immutable: the first revision still describes itself.
	if e1.Version != 1 || len(e1.Schema.Sig) != 1 {
		t.Fatalf("old revision mutated: %+v", e1)
	}
}

func TestMappingRegistrationValidates(t *testing.T) {
	c := loadedCatalog(t)
	cs := parser.MustParseConstraints("Movies <= OldMovies;")
	if _, err := c.Apply(mappingItem("bad", "original", "nowhere", cs)); err == nil {
		t.Fatal("mapping to unknown schema accepted")
	}
	// Arity mismatch: Movies/6 vs Names/2.
	bad := parser.MustParseConstraints("Movies <= Names;")
	if _, err := c.Apply(mappingItem("bad", "original", "split", bad)); err == nil {
		t.Fatal("ill-formed mapping accepted")
	}
	if _, ok := c.Mapping("bad"); ok {
		t.Fatal("rejected mapping was installed")
	}
}

func TestSchemaUpdateRejectedWhenItBreaksMappings(t *testing.T) {
	c := loadedCatalog(t)
	gen := c.Generation()
	// Shrink fivestar's arity: m12 and m23 would no longer type-check.
	sch := algebra.NewSchema()
	sch.Sig["FiveStarMovies"] = 2
	if _, err := c.Apply(schemaItem("fivestar", sch)); err == nil {
		t.Fatal("schema update that breaks mappings accepted")
	}
	if c.Generation() != gen {
		t.Fatal("failed update bumped the generation")
	}
	if e, _ := c.Schema("fivestar"); e.Schema.Sig["FiveStarMovies"] != 3 {
		t.Fatal("failed update mutated the stored schema")
	}
}

func TestApplyIsAtomic(t *testing.T) {
	c := loadedCatalog(t)
	gen := c.Generation()
	// The batch parses and self-validates, but re-declaring fivestar at a
	// smaller arity breaks the already-registered m12/m23, so the whole
	// batch — including the innocent extra schema — must be rejected.
	bad := mustParse(t, `
schema extra { T/2; }
schema fivestar { FiveStarMovies/2; }
`)
	if _, err := c.Apply(bad); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if c.Generation() != gen {
		t.Fatalf("failed Apply bumped generation to %d", c.Generation())
	}
	if _, ok := c.Schema("extra"); ok {
		t.Fatal("failed Apply installed a schema")
	}
}

// TestApplyRejectsMalformedProblems: hand-built problems that the
// parser could never produce are rejected before anything is logged or
// installed, instead of panicking inside the write lock or installing a
// nameless entry.
func TestApplyRejectsMalformedProblems(t *testing.T) {
	rel := algebra.NewSchema()
	rel.Sig["R"] = 2
	cs := parser.MustParseConstraints("Movies <= OldMovies;")
	for _, tc := range []struct {
		name string
		p    *parser.Problem
	}{
		{"nil schema", &parser.Problem{Schemas: map[string]*algebra.Schema{"a": nil}, SchemaOrder: []string{"a"}}},
		{"schema order name without entry", &parser.Problem{SchemaOrder: []string{"ghost"}}},
		{"schema without relations", schemaItem("empty", algebra.NewSchema())},
		{"empty schema name", schemaItem("", rel)},
		{"nil mapping", &parser.Problem{Maps: map[string]*parser.MapDecl{"m": nil}, MapOrder: []string{"m"}}},
		{"map order name without entry", &parser.Problem{MapOrder: []string{"ghost"}}},
		{"empty mapping name", mappingItem("", "original", "archive", cs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := loadedCatalog(t)
			lg := &recordingLogger{}
			c.SetLogger(lg)
			gen := c.Generation()
			if _, err := c.Apply(tc.p); err == nil {
				t.Fatal("malformed problem accepted")
			}
			if g := c.Generation(); g != gen {
				t.Fatalf("rejected problem moved the generation %d → %d", gen, g)
			}
			if len(lg.muts) != 0 {
				t.Fatal("rejected problem was logged")
			}
		})
	}
}

func TestApplyEmptyProblemKeepsGeneration(t *testing.T) {
	c := loadedCatalog(t)
	gen := c.Generation()
	empty := mustParse(t, "-- nothing to install\n")
	got, err := c.Apply(empty)
	if err != nil {
		t.Fatal(err)
	}
	if got != gen || c.Generation() != gen {
		t.Fatalf("empty Apply moved generation %d → %d", gen, c.Generation())
	}
}

func TestPathResolution(t *testing.T) {
	c := loadedCatalog(t)
	path, err := routePath(c, "original", "split")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(path, ","); got != "m12,m23" {
		t.Fatalf("path original→split = %s, want m12,m23", got)
	}
	if _, err := routePath(c, "split", "original"); err == nil {
		t.Fatal("reverse path exists despite directed edges")
	}
	if _, err := routePath(c, "original", "original"); err == nil {
		t.Fatal("self-composition accepted")
	}
	if _, err := routePath(c, "original", "nowhere"); err == nil {
		t.Fatal("unknown schema accepted")
	}

	// A registered shortcut wins over the two-hop chain.
	short := parser.MustParseConstraints(
		"proj[1,2,3](sel[#4='5'](Movies)) <= proj[1,2,4](sel[#1=#3](Names * Years));")
	if _, err := c.Apply(mappingItem("mShort", "original", "split", short)); err != nil {
		t.Fatal(err)
	}
	path, err = routePath(c, "original", "split")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(path, ","); got != "mShort" {
		t.Fatalf("path with shortcut = %s, want mShort", got)
	}
}

// TestComposeMatchesManualChain is the acceptance check: resolving and
// composing a multi-hop σA→σB chain through the catalog returns the same
// constraints as manually chaining core.Compose over the same mappings.
func TestComposeMatchesManualChain(t *testing.T) {
	c := loadedCatalog(t)
	snap := c.Snap()
	res, route, err := compose(context.Background(), snap, "original", "split")
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Path) != 2 || snap.Generation() != c.Generation() {
		t.Fatalf("path=%v gen=%d", route.Path, snap.Generation())
	}

	p := mustParse(t, chainTask)
	m12, err := p.Mapping("m12")
	if err != nil {
		t.Fatal(err)
	}
	m23, err := p.Mapping("m23")
	if err != nil {
		t.Fatal(err)
	}
	manual, err := core.ComposeMappings(context.Background(), m12, m23, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Constraints.Fingerprint(), manual.Constraints.Fingerprint(); got != want {
		t.Fatalf("catalog chain fingerprint %016x != manual %016x\ncatalog:\n%s\nmanual:\n%s",
			got, want, res.Constraints, manual.Constraints)
	}
	if got, want := res.Constraints.String(), manual.Constraints.String(); got != want {
		t.Fatalf("catalog chain constraints differ:\n%s\nvs manual:\n%s", got, want)
	}
	if _, ok := res.Eliminated["FiveStarMovies"]; !ok {
		t.Fatalf("intermediate symbol not eliminated: %+v", res.Eliminated)
	}
}

// TestConcurrentRegisterAndCompose exercises the catalog under the race
// detector: writers keep re-registering schemas and mappings while
// readers resolve and compose chains.
func TestConcurrentRegisterAndCompose(t *testing.T) {
	c := loadedCatalog(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sch := algebra.NewSchema()
				sch.Sig[fmt.Sprintf("Aux%d", w)] = 2
				name := fmt.Sprintf("aux%d", w)
				if _, err := c.Apply(schemaItem(name, sch)); err != nil {
					t.Error(err)
					return
				}
				cs := parser.MustParseConstraints(fmt.Sprintf("proj[1,2](Movies) <= Aux%d;", w))
				if _, err := c.Apply(mappingItem(fmt.Sprintf("mAux%d", w), "original", name, cs)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, _, err := compose(context.Background(), c.Snap(), "original", "split"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Generation() == 1 {
		t.Fatal("writers did not advance the generation")
	}
}

// recordingLogger captures mutations and can be told to fail, to test
// the write-ahead contract: a failing logger aborts the mutation.
type recordingLogger struct {
	muts []*Mutation
	fail bool
}

func (l *recordingLogger) AppendMutation(m *Mutation) error {
	if l.fail {
		return fmt.Errorf("disk full")
	}
	l.muts = append(l.muts, m)
	return nil
}

// TestLoggerSeesMutationsAndAbortsOnError: every mutation reaches the
// logger with the generation it installs and the problem it applies,
// before it is visible; a logger error rejects the mutation and leaves
// the catalog untouched.
func TestLoggerSeesMutationsAndAbortsOnError(t *testing.T) {
	c := New()
	lg := &recordingLogger{}
	c.SetLogger(lg)

	sch := algebra.NewSchema()
	sch.Sig["R"] = 2
	if _, err := c.Apply(schemaItem("src", sch)); err != nil {
		t.Fatal(err)
	}
	sch2 := algebra.NewSchema()
	sch2.Sig["T"] = 2
	if _, err := c.Apply(schemaItem("dst", sch2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(mappingItem("m", "src", "dst", parser.MustParseConstraints("R <= T"))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(mustParse(t, chainTask)); err != nil {
		t.Fatal(err)
	}
	const logged = 4
	if len(lg.muts) != logged {
		t.Fatalf("logger saw %d mutations, want %d", len(lg.muts), logged)
	}
	for i, m := range lg.muts {
		if m.Gen != uint64(i+1) || m.Problem == nil {
			t.Fatalf("mutation %d = (gen %d, problem %v), want gen %d with its problem", i, m.Gen, m.Problem, i+1)
		}
	}

	// An Apply that installs nothing must not reach the logger (it does
	// not bump the generation either).
	if _, err := c.Apply(&parser.Problem{}); err != nil {
		t.Fatal(err)
	}
	if len(lg.muts) != logged {
		t.Fatal("no-op Apply was logged")
	}

	lg.fail = true
	gen := c.Generation()
	if _, err := c.Apply(schemaItem("nope", sch)); err == nil {
		t.Fatal("mutation committed although the logger failed")
	}
	if _, ok := c.Schema("nope"); ok {
		t.Fatal("rejected mutation is visible")
	}
	if g := c.Generation(); g != gen {
		t.Fatalf("generation moved from %d to %d on a rejected mutation", gen, g)
	}
	if _, err := c.Apply(mustParse(t, chainTask)); err == nil {
		t.Fatal("Apply committed although the logger failed")
	}
	if g := c.Generation(); g != gen {
		t.Fatal("generation moved on a rejected Apply")
	}
}

// TestRestoreValidates: Restore only fills virgin catalogs and
// re-validates mapping endpoints and constraints.
func TestRestoreValidates(t *testing.T) {
	src := algebra.NewSchema()
	src.Sig["R"] = 2
	entries := []*SchemaEntry{{Name: "src", Version: 1, Generation: 1, Schema: src}}
	maps := []*MappingEntry{{
		Name: "m", From: "src", To: "missing", Version: 1, Generation: 2,
		Constraints: parser.MustParseConstraints("R <= R"),
	}}
	if err := New().Restore(entries, maps, 2); err == nil {
		t.Fatal("Restore accepted a mapping with an unknown endpoint")
	}

	c := New()
	if _, err := c.Apply(schemaItem("x", src)); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(entries, nil, 1); err == nil {
		t.Fatal("Restore accepted a non-virgin catalog")
	}

	c2 := New()
	if err := c2.Restore(entries, nil, 1); err != nil {
		t.Fatal(err)
	}
	if g := c2.Generation(); g != 1 {
		t.Fatalf("restored generation = %d, want 1", g)
	}
	if _, ok := c2.Schema("src"); !ok {
		t.Fatal("restored schema missing")
	}
}

// TestPathPartialRouteOnNoPath: when the endpoints are registered but
// disconnected, Route reports ErrNoPath together with the partial route
// to the deepest schema BFS reached, and composing forwards it.
func TestPathPartialRouteOnNoPath(t *testing.T) {
	c := loadedCatalog(t)
	sch := algebra.NewSchema()
	sch.Sig["Lonely"] = 1
	if _, err := c.Apply(schemaItem("island", sch)); err != nil {
		t.Fatal(err)
	}
	partial, err := routePath(c, "original", "island")
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	// From original the graph explores m12→fivestar, mArch→archive, then
	// m23→split; the deepest frontier is split via m12,m23.
	if got := strings.Join(partial, ","); got != "m12,m23" {
		t.Fatalf("partial route = %v, want m12,m23", partial)
	}
	_, route, err := compose(context.Background(), c.Snap(), "original", "island")
	if !errors.Is(err, ErrNoPath) || strings.Join(route.Path, ",") != "m12,m23" {
		t.Fatalf("compose = (path %v, err %v), want the partial route with ErrNoPath", route.Path, err)
	}

	// Unknown endpoints still resolve to nothing.
	if partial, err := routePath(c, "original", "nowhere"); err == nil || len(partial) != 0 {
		t.Fatalf("unknown schema returned partial %v err %v", partial, err)
	}
}

// TestComposePreemptedReturnsPath: a dead context preempts the
// composition but the resolved path and generation still come back with
// the error, so the serving layer can report what it was composing.
func TestComposePreemptedReturnsPath(t *testing.T) {
	c := loadedCatalog(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	snap := c.Snap()
	_, route, err := compose(ctx, snap, "original", "split")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled through *core.Canceled", err)
	}
	var canceled *core.Canceled
	if !errors.As(err, &canceled) {
		t.Fatalf("err %T does not carry partial stats", err)
	}
	if len(route.Path) != 2 || snap.Generation() != c.Generation() {
		t.Fatalf("path=%v gen=%d, want the resolved chain at the current generation", route.Path, snap.Generation())
	}
}

// TestLockFreeReadsGenerationMonotonic is the -race hammer for the
// copy-on-write store: writers register new schemas and mappings (and
// re-register existing ones) while readers spin over the lock-free
// read surface asserting that (a) the generation each reader observes
// never decreases, (b) every snapshot is internally consistent (no
// entry newer than the snapshot generation), and (c) Route materializes
// against exactly one snapshot (its handle's generation).
func TestLockFreeReadsGenerationMonotonic(t *testing.T) {
	c := loadedCatalog(t)
	const writers, readers, rounds = 3, 6, 60
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < rounds; i++ {
				sch := algebra.NewSchema()
				sch.Sig[fmt.Sprintf("Aux%d", w)] = 2
				name := fmt.Sprintf("aux%d", w)
				if _, err := c.Apply(schemaItem(name, sch)); err != nil {
					t.Error(err)
					return
				}
				cs := parser.MustParseConstraints(fmt.Sprintf("proj[1,2](Movies) <= Aux%d;", w))
				if _, err := c.Apply(mappingItem(fmt.Sprintf("mAux%d", w), "original", name, cs)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				if g := c.Generation(); g < last {
					t.Errorf("generation went backwards: %d then %d", last, g)
					return
				} else {
					last = g
				}
				schemas, maps, gen := c.Snapshot()
				if gen < last {
					t.Errorf("snapshot generation %d older than observed %d", gen, last)
					return
				}
				last = gen
				for _, e := range schemas {
					if e.Generation > gen {
						t.Errorf("schema %s at generation %d inside snapshot %d", e.Name, e.Generation, gen)
						return
					}
				}
				for _, m := range maps {
					if m.Generation > gen {
						t.Errorf("mapping %s at generation %d inside snapshot %d", m.Name, m.Generation, gen)
						return
					}
				}
				snap := c.Snap()
				route, err := snap.Route("original", "split")
				if err != nil || len(route.Mappings()) != len(route.Path) {
					t.Errorf("route: %v", err)
					return
				}
				cgen := snap.Generation()
				if cgen < last {
					t.Errorf("route generation %d older than observed %d", cgen, last)
					return
				}
				last = cgen
				if _, _, err := compose(context.Background(), snap, "original", "split"); err != nil {
					t.Errorf("compose: %v", err)
					return
				}
			}
		}()
	}
	// Writers finish first, then readers are released; every reader must
	// have seen a strictly advancing catalog throughout.
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if got, want := c.Generation(), uint64(1+2*writers*rounds); got != want && !t.Failed() {
		t.Fatalf("final generation %d, want %d", got, want)
	}
}
