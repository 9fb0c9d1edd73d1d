// Package mapcomp is a Go implementation of the mapping composition
// algorithm of Bernstein, Green, Melnik and Nash, "Implementing Mapping
// Composition", VLDB 2006.
//
// A mapping is a set of constraints — containments or equalities between
// relational-algebra expressions — over the union of an input and an
// output schema. Given a mapping over σ1,σ2 and a mapping over σ2,σ3,
// Compose produces an equivalent mapping over σ1,σ3 by eliminating the σ2
// symbols one at a time with three strategies: view unfolding, left
// compose, and right compose (with Skolemization and deskolemization). The
// algorithm is best-effort: symbols that cannot be eliminated are kept,
// and the result remains a correct — if larger-signatured — mapping.
//
// # Quick start
//
//	problem, _ := mapcomp.ParseProblem(src)   // schemas, maps, compose decls
//	results, _ := mapcomp.Run(problem)
//	for _, r := range results {
//	    fmt.Println(r.Name, r.Result.Constraints)
//	}
//
// or programmatically:
//
//	m12 := &mapcomp.Mapping{In: s1, Out: s2, Constraints: cs12}
//	m23 := &mapcomp.Mapping{In: s2, Out: s3, Constraints: cs23}
//	res, _ := mapcomp.Compose(m12, m23, nil)
//
// The examples/ directory contains four runnable walkthroughs, and
// cmd/mapcompose is a command-line front end for the text format parsed by
// ParseProblem (see internal/parser for the grammar).
//
// # Performance
//
// The ELIMINATE loop rewrites, normalizes and compares the same
// expression trees over and over, so internal/algebra hash-conses
// expressions: a package-level interner (algebra.Intern) gives every
// distinct structure one shared node carrying a precomputed structural
// hash, a process-unique ID, interned child pointers, and a canonical
// ordering of commutative ∪/∩ operand chains. Structural equality of
// interned nodes is pointer comparison, and the IDs key exact (never
// hash-collision-guessing) memo tables for the hot rewrites: Simplify
// results, the implied-constraint containment lattice, and the
// deskolemization dependency analysis all memoize across eliminations.
// Memo caches are bounded and cleared wholesale on overflow, so memory
// stays flat across long experiment campaigns.
//
// Concurrency model: expressions and interned nodes are immutable, the
// interner and all memo caches are safe for concurrent use, and the
// experiment drivers (internal/experiment, internal/suite, cmd/evosim)
// fan seed-isolated runs out to a bounded worker pool
// (internal/par, default GOMAXPROCS, -workers on the command lines).
// Results are aggregated strictly in run order, so every outcome is
// byte-identical to a sequential execution for a fixed seed; only
// measured wall-clock durations vary. EXPERIMENTS.md records the
// measured speedups against the pre-interning baseline.
//
// The serving layer applies the same discipline to its result cache:
// composition results are stored in an N-way sharded cache (shard count
// a power of two derived from GOMAXPROCS, pairs hashed to shards, one
// byte budget split across the shards), each shard publishing an
// immutable copy-on-write view of one pair-keyed map through an atomic
// pointer, so a cache hit is a lock-free map probe with no cross-shard
// lock traffic. Entries carry the response pre-encoded in the wire
// format: hits, coalesced waiters, batch items and result fetches write
// the stored bytes straight to the client with zero JSON marshals —
// the hit path performs no encoding work at all, enforced by an
// allocation/marshal regression guard (BenchmarkServerComposeHit) and a
// CI throughput ceiling on the saturated benchmark.
//
// The catalog keeps a cache miss and a publish from paying for the
// whole mapping graph. Snap.Route runs its breadth-first search on
// pooled, epoch-stamped scratch arrays and stops when it discovers the
// target, so a route costs the part of the graph within its hop count
// and allocates only the route itself (TestRouteAllocBound: at most 8
// allocations, the same at 200 and at 2,000 schemas). A publish derives
// the sorted listings from the previous snapshot's, sorting only when
// a name was added; it shares the schema index when the names are
// unchanged and fills the adjacency into one array already in
// tie-break order. BenchmarkRoutePowerLaw and BenchmarkApplyPowerLaw
// measure both on catalog_2k's shape.
//
// # Serving
//
// The intended deployments of composition — schema evolution, data
// integration, ETL pipelines (§1) — are long-lived services: mappings
// are registered once and composed many times along chains σ1→σ2→…→σn.
// The serving layer amortizes the batch algorithm across requests:
//
//   - internal/catalog is an in-memory, versioned store of named schemas
//     and mappings. Every mutation bumps a monotonically increasing
//     catalog generation, and a directed mapping graph over schema names
//     resolves a requested σA→σB composition to a shortest multi-hop
//     chain of registered mappings, composed left to right via
//     ComposeChain (which also backs multi-map compose declarations in
//     the text format). The store is copy-on-write: reads load an
//     immutable snapshot — entries, sorted listings, precomputed BFS
//     adjacency and per-edge materialized mappings — from an atomic
//     pointer without locking, so they scale with cores, while
//     mutations serialize under a write mutex and publish fresh
//     snapshots.
//
//   - internal/server is the mapcompd HTTP/JSON API (stdlib net/http):
//     register schemas and mappings by POSTing the text format, request
//     single or batched compositions, fetch cached results. Results
//     live in a byte-bounded sharded cache keyed on (endpoint pair,
//     config fingerprint), with the catalog generation as a per-entry
//     watermark, that stores each response
//     pre-encoded, so a repeated request against an unchanged catalog
//     never re-runs ELIMINATE — verified by the server's step-count
//     instrumentation (/v1/stats) — and never re-encodes the response
//     either; identical in-flight requests are coalesced to one
//     computation per shard.
//
//   - cmd/mapcompd wires it together with flags for address, worker
//     pool width, the cache's byte budget, and the compose deadline,
//     plus graceful shutdown; examples/service is an end-to-end
//     walkthrough.
//
// Composition cost is worst-case exponential, so the serving stack is
// preemptible end to end: ComposeContext / ComposeChainContext /
// RunContext thread a context.Context into ELIMINATE, which checks
// cancellation between strategy attempts. The daemon's -compose-timeout
// (shortenable per request via "timeout_ms") surfaces an expired
// deadline as HTTP 504 carrying the partial statistics; preempted
// results are never cached, and a preempted cache leader hands its
// in-flight slot to a waiter with a live deadline.
//
// The "Serving" section of EXPERIMENTS.md records cold versus cache-hit
// throughput of BenchmarkServerCompose, and the PR 4 section the
// parallel read-path benchmarks of the copy-on-write catalog.
//
// # Invariants
//
// The architectural contracts above are checked at compile time by
// internal/lint, a suite of static analyzers compiled into
// cmd/mapcomplint and run in CI alongside vet and staticcheck. Each
// analyzer proves one invariant that a runtime counter or benchmark
// once had to catch being broken:
//
//   - nomarshal: no json.Marshal or Encoder.Encode is reachable from an
//     internal/server handler entry point except through
//     marshalWire/EncodeWire — the zero-marshal cache hit path
//     (introduced in PR 5, runtime mirror: the wireEncodes counter).
//
//   - lockfreeread: nothing reachable from the catalog's read API
//     (Generation, Schema, Mapping, Snapshot, Snap and its methods) acquires
//     a mutex or mutates shared state; reads load one immutable
//     snapshot via atomic.Pointer — the copy-on-write catalog (PR 4).
//
//   - interned: algebra expression node literals and raw constructors
//     are confined to the registered rewriting layers, and
//     algebra.Interned values are never hand-built or mutated, so
//     pointer identity always equals structural identity — the
//     hash-consing contract (PR 1).
//
//   - ctxthread: library code never calls context.Background or
//     context.TODO; contexts thread from the caller so experiment
//     sweeps and compositions cancel like serving requests — the
//     preemption contract (PR 4; extended to the experiment drivers in
//     this suite's PR).
//
//   - nopersistderived: internal/persist never handles
//     provenance-bearing catalog types, so derived-inverse edges —
//     per-snapshot judgements, recomputed each generation — are never
//     written to the WAL or a snapshot document (PR 8).
//
//   - obsinit: obs instrument get-or-create calls occur only in
//     package-level var declarations or init, never on request paths —
//     the zero-cost telemetry contract (PR 7).
//
// A finding can be suppressed in place with "//lint:allow <analyzer>
// <reason>"; the reason is mandatory and a malformed directive is
// itself a lint error. See the internal/lint package documentation for
// the analyzer framework and the fixture-based tests pinning each
// invariant's known-bad example.
package mapcomp

import (
	"context"
	"fmt"

	"mapcomp/internal/algebra"
	"mapcomp/internal/core"
	"mapcomp/internal/parser"

	_ "mapcomp/internal/ops" // register join, semijoin, antijoin, lojoin, tc
)

// Re-exported algebra types. Expressions are built either with the text
// syntax (ParseExpr) or the constructors in this package.
type (
	// Expr is a relational algebra expression (unnamed perspective).
	Expr = algebra.Expr
	// Constraint is E1 ⊆ E2 or E1 = E2.
	Constraint = algebra.Constraint
	// ConstraintSet is an ordered list of constraints.
	ConstraintSet = algebra.ConstraintSet
	// Signature maps relation names to arities.
	Signature = algebra.Signature
	// Keys records known key columns per relation.
	Keys = algebra.Keys
	// Schema bundles a signature with key information.
	Schema = algebra.Schema
	// Mapping is (σ_in, σ_out, Σ) as defined in §2 of the paper.
	Mapping = algebra.Mapping
	// Config selects algorithm features (view unfolding, left/right
	// compose, blow-up bound, key knowledge, simplification).
	Config = core.Config
	// Result is a composition outcome: final signature, constraints,
	// eliminated and surviving symbols, statistics.
	Result = core.Result
	// Step names the strategy that eliminated a symbol.
	Step = core.Step
	// Problem is a parsed composition task file.
	Problem = parser.Problem
	// Inversion is the per-constraint quasi-inverse analysis of one
	// mapping: a verdict per constraint plus the derived inverse mapping
	// when every verdict allows it.
	Inversion = core.Inversion
	// ConstraintVerdict is one constraint's inversion verdict.
	ConstraintVerdict = core.ConstraintVerdict
	// InvertReason classifies why a constraint does or does not invert.
	InvertReason = core.InvertReason
	// OpInfo describes a user-defined operator registration.
	OpInfo = algebra.OpInfo
	// Mono is the four-valued monotonicity status of the MONOTONE
	// procedure (§3.3): monotone, anti-monotone, independent, unknown.
	Mono = algebra.Mono
)

// Monotonicity statuses for user-defined operator tables.
const (
	MonoM = algebra.MonoM // monotone
	MonoA = algebra.MonoA // anti-monotone
	MonoI = algebra.MonoI // independent
	MonoU = algebra.MonoU // unknown
)

// Inversion verdict reasons reported by Invert.
const (
	ReasonOK           = core.ReasonOK           // constraint inverts losslessly
	ReasonSkolem       = core.ReasonSkolem       // Skolem functions are one-way
	ReasonContainment  = core.ReasonContainment  // ⊆ states no lower bound to invert
	ReasonNonInjective = core.ReasonNonInjective // projection drops or duplicates columns
	ReasonEntangled    = core.ReasonEntangled    // one side mixes input and output symbols
	ReasonUnsupported  = core.ReasonUnsupported  // shape outside the analyzed fragment
)

// NewSignature builds a signature from name/arity pairs:
// NewSignature("R", 2, "S", 3).
func NewSignature(pairs ...any) Signature { return algebra.NewSignature(pairs...) }

// DefaultConfig enables every algorithm feature with the paper's blow-up
// factor of 100.
func DefaultConfig() *Config { return core.DefaultConfig() }

// ParseProblem parses a composition task file (schemas, maps, compose
// declarations) in the library's text format.
func ParseProblem(src string) (*Problem, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := parser.Validate(p); err != nil {
		return nil, err
	}
	return p, nil
}

// FormatProblem renders a problem back into the text format.
func FormatProblem(p *Problem) string { return parser.Format(p) }

// ParseConstraints parses a semicolon-separated list of constraints.
func ParseConstraints(src string) (ConstraintSet, error) {
	return parser.ParseConstraints(src)
}

// ParseExpr parses a single relational-algebra expression.
func ParseExpr(src string) (Expr, error) { return parser.ParseExpr(src) }

// SubstituteRel returns e with every occurrence of relation name replaced
// by repl. Combined with ParseExpr it lets callers build expression
// templates (e.g. operator expansions) without constructing AST nodes.
func SubstituteRel(e Expr, name string, repl Expr) Expr {
	return algebra.SubstituteRel(e, name, repl)
}

// Compose composes two mappings, eliminating as many intermediate symbols
// (m12.Out = m23.In) as possible. cfg may be nil for defaults. The order
// of elimination follows sorted symbol names; use ComposeOrdered for an
// explicit order. Use ComposeContext to bound the run with a deadline.
func Compose(m12, m23 *Mapping, cfg *Config) (*Result, error) {
	return core.ComposeMappings(context.Background(), m12, m23, nil, cfg) //lint:allow ctxthread root-level convenience wrapper; ComposeContext is the threaded form
}

// ComposeContext is Compose under a context: cancellation or deadline
// expiry preempts ELIMINATE between strategy attempts, returning a
// *core.Canceled error (errors.Is-compatible with the context error)
// that carries the statistics accumulated up to the preemption point.
func ComposeContext(ctx context.Context, m12, m23 *Mapping, cfg *Config) (*Result, error) {
	return core.ComposeMappings(ctx, m12, m23, nil, cfg)
}

// ComposeOrdered is Compose with a user-specified symbol elimination order
// (the order can matter for which symbols get eliminated; see §3.1).
func ComposeOrdered(m12, m23 *Mapping, order []string, cfg *Config) (*Result, error) {
	return core.ComposeMappings(context.Background(), m12, m23, order, cfg) //lint:allow ctxthread root-level convenience wrapper; ComposeContext is the threaded form
}

// Eliminate attempts to remove a single relation symbol from a constraint
// set, returning the rewritten constraints, the successful strategy, and
// whether elimination succeeded.
func Eliminate(sig Signature, cs ConstraintSet, symbol string, cfg *Config) (ConstraintSet, Step, bool) {
	if cfg == nil {
		cfg = core.DefaultConfig()
	}
	return core.Eliminate(context.Background(), sig, cs, symbol, cfg) //lint:allow ctxthread root-level convenience wrapper over the context-bearing core entry point
}

// Simplify applies the domain/empty-relation elimination rules and other
// size-reducing identities to a constraint set.
func Simplify(cs ConstraintSet, sig Signature) ConstraintSet {
	return core.SimplifyConstraints(cs, sig)
}

// RemoveImplied drops containment constraints provably entailed by the
// rest of the set — the output-mapping simplification §4 of the paper
// identifies as essential ("detecting and removing implied constraints").
// The entailment check is sound but incomplete.
func RemoveImplied(cs ConstraintSet, sig Signature) ConstraintSet {
	return core.RemoveImplied(cs, sig)
}

// RegisterOperator installs a user-defined operator: its arity discipline,
// monotonicity table and optional evaluation. This is the paper's §1.3
// extensibility mechanism; see internal/ops for how join, semijoin,
// anti-semijoin, left outer join and transitive closure are registered
// through exactly this interface.
func RegisterOperator(info *OpInfo) { algebra.RegisterOp(info) }

// RegisterExpansion installs an expansion of a registered operator into
// more primitive expressions, used by normalization steps that need to
// look inside the operator.
func RegisterExpansion(op string, expand func(params []int, args []Expr, argArities []int) (Expr, bool)) {
	algebra.RegisterDesugar(op, algebra.DesugarFunc(expand))
}

// NamedResult pairs a compose declaration with its outcome.
type NamedResult struct {
	Name   string
	Result *Result
}

// Run executes every compose declaration in a parsed problem, chaining
// multi-map compositions left to right.
func Run(p *Problem) ([]NamedResult, error) {
	return RunContext(context.Background(), p, nil) //lint:allow ctxthread root-level convenience wrapper; RunContext is the threaded form
}

// RunWithConfig is Run with an explicit configuration.
func RunWithConfig(p *Problem, cfg *Config) ([]NamedResult, error) {
	return RunContext(context.Background(), p, cfg) //lint:allow ctxthread root-level convenience wrapper; RunContext is the threaded form
}

// RunContext is Run under a context and an explicit configuration (nil
// for defaults): cancellation or deadline expiry preempts the current
// composition between elimination strategies (cmd/mapcompose's -timeout
// uses it).
func RunContext(ctx context.Context, p *Problem, cfg *Config) ([]NamedResult, error) {
	var out []NamedResult
	for _, decl := range p.Compositions {
		ms := make([]*Mapping, len(decl.Maps))
		for i, name := range decl.Maps {
			m, err := p.Mapping(name)
			if err != nil {
				return nil, err
			}
			ms[i] = m
		}
		res, err := core.ComposeChain(ctx, ms, cfg)
		if err != nil {
			return nil, fmt.Errorf("compose %s: %w", decl.Name, err)
		}
		out = append(out, NamedResult{Name: decl.Name, Result: res})
	}
	return out, nil
}

// ComposeChain composes a chain of mappings left to right, merging each
// hop's eliminations and retrying surviving intermediate symbols in later
// hops. It is the public form of the entry point that backs multi-map
// compose declarations (Run) and the mapping catalog's multi-hop σA→σB
// resolution.
func ComposeChain(ms []*Mapping, cfg *Config) (*Result, error) {
	return core.ComposeChain(context.Background(), ms, cfg) //lint:allow ctxthread root-level convenience wrapper; ComposeChainContext is the threaded form
}

// ComposeChainContext is ComposeChain under a context; see ComposeContext
// for the preemption contract.
func ComposeChainContext(ctx context.Context, ms []*Mapping, cfg *Config) (*Result, error) {
	return core.ComposeChain(ctx, ms, cfg)
}

// Invert computes the quasi-inverse of a mapping: the input/output
// signatures swap and every constraint is judged for lossless
// reversibility. When all verdicts pass, Inversion.Mapping holds the
// derived σB→σA mapping (constraints carried verbatim — the ⊆/= algebra
// is symmetric, so a recoverable constraint reads identically in either
// direction); otherwise Mapping is nil and the verdicts name each
// blocking constraint and why. The catalog uses this to derive
// reverse-direction edges for bidirectional path resolution.
func Invert(m *Mapping) *Inversion { return core.Invert(m) }
