package lint

import (
	"go/ast"
	"go/types"
)

// catalogPkg is the copy-on-write store the lock-free-read contract
// covers.
const catalogPkg = "mapcomp/internal/catalog"

// catalogReadAPI are the Catalog methods that must stay lock-free: each
// loads one immutable snapshot through an atomic.Pointer and computes
// over it. (Snap's methods are entry points wholesale: a Snap is by
// construction a read-only view.)
var catalogReadAPI = map[string]bool{
	"Generation": true, "Schema": true, "Mapping": true,
	"Snapshot": true, "Snap": true,
}

// lockingCalls are the blocking synchronization entry points forbidden
// on the read path. atomic.Pointer Load/Store/CompareAndSwap are the
// only synchronization the contract allows.
var lockingCalls = []struct{ pkg, recv, name string }{
	{"sync", "Mutex", "Lock"},
	{"sync", "Mutex", "TryLock"},
	{"sync", "RWMutex", "Lock"},
	{"sync", "RWMutex", "TryLock"},
	{"sync", "RWMutex", "RLock"},
	{"sync", "RWMutex", "TryRLock"},
	{"sync", "Once", "Do"},
	{"sync", "WaitGroup", "Wait"},
}

// LockFreeRead proves the PR 4 copy-on-write contract at compile time:
// nothing reachable from the catalog's read API may block on a mutex or
// mutate state shared through a receiver or parameter. The runtime
// evidence for this invariant was a parallel benchmark (chain
// resolution 43 → 3 µs at -cpu 8); the analyzer fails the build before
// a stray Lock or shared-map write ever reaches that benchmark.
var LockFreeRead = &Analyzer{
	Name: "lockfreeread",
	Doc: "forbid mutex acquisition and shared-state mutation reachable from " +
		"the catalog read API; reads are atomic.Pointer snapshot loads only (PR 4)",
	Run: runLockFreeRead,
}

func runLockFreeRead(pass *Pass) {
	if pass.Pkg.Path() != catalogPkg {
		return
	}
	g := buildCallGraph(pass)
	var entries []*types.Func
	for f := range g.decls {
		switch recvName(f) {
		case "Catalog":
			if catalogReadAPI[f.Name()] {
				entries = append(entries, f)
			}
		case "Snap", "Route":
			entries = append(entries, f)
		}
	}
	reach := g.reachable(entries)
	for f := range reach {
		decl := g.decls[f]
		if decl == nil {
			continue
		}
		checkLockFree(pass, f, decl)
	}
}

func checkLockFree(pass *Pass, f *types.Func, decl *ast.FuncDecl) {
	// Parameters and receivers of every function on the path root the
	// "shared state" set: anything written through them may be visible
	// to concurrent readers. Locals (including maps and slices built
	// inside BFS and stats computations) are fair game.
	shared := make(map[types.Object]bool)
	markParams := func(ft *ast.FuncType, recv *ast.FieldList) {
		for _, fl := range []*ast.FieldList{recv, ft.Params} {
			if fl == nil {
				continue
			}
			for _, field := range fl.List {
				for _, name := range field.Names {
					if obj := pass.Info.Defs[name]; obj != nil {
						shared[obj] = true
					}
				}
			}
		}
	}
	markParams(decl.Type, decl.Recv)

	inspectWithStack(decl, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			markParams(n.Type, nil)
		case *ast.CallExpr:
			callee := calleeFunc(pass.Info, n)
			for _, lc := range lockingCalls {
				if isFunc(callee, lc.pkg, lc.recv, lc.name) {
					pass.Reportf(n.Pos(),
						"%s.%s.%s reachable from the catalog read API (via %s): "+
							"reads must stay lock-free — load an immutable snapshot through atomic.Pointer instead",
						lc.pkg, lc.recv, lc.name, f.Name())
				}
			}
			// The delete built-in mutates its map argument.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin &&
					len(n.Args) > 0 && rootedInShared(pass, n.Args[0], shared) {
					pass.Reportf(n.Pos(),
						"delete on shared state reachable from the catalog read API (via %s): "+
							"read paths must not mutate the published snapshot", f.Name())
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if rootedInShared(pass, lhs, shared) {
					pass.Reportf(lhs.Pos(),
						"write to shared state reachable from the catalog read API (via %s): "+
							"read paths must not mutate the published snapshot", f.Name())
				}
			}
		case *ast.IncDecStmt:
			if rootedInShared(pass, n.X, shared) {
				pass.Reportf(n.Pos(),
					"write to shared state reachable from the catalog read API (via %s): "+
						"read paths must not mutate the published snapshot", f.Name())
			}
		}
		return true
	})
}

// rootedInShared reports whether expr is a selector/index chain whose
// root identifier is a parameter or receiver (i.e. writes through it
// escape the function). A bare identifier write (x = ...) rebinds a
// local or parameter copy and is not a shared mutation; only writes
// through a field, element or pointer of a shared root count.
func rootedInShared(pass *Pass, expr ast.Expr, shared map[types.Object]bool) bool {
	chain := false
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			chain = true
			expr = e.X
		case *ast.IndexExpr:
			chain = true
			expr = e.X
		case *ast.StarExpr:
			chain = true
			expr = e.X
		case *ast.Ident:
			return chain && shared[pass.Info.Uses[e]]
		default:
			return false
		}
	}
}
