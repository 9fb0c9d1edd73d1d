package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// serverPkg is the serving layer the zero-marshal contract covers.
const serverPkg = "mapcomp/internal/server"

// marshalFuncs are the only internal/server functions allowed to encode
// response bodies: EncodeWire is the single canonical JSON encoder and
// marshalWire its counted wrapper. The runtime mirror is the
// wireEncodes counter asserted by BenchmarkServerComposeHit.
var marshalFuncs = map[string]bool{
	"EncodeWire":  true,
	"marshalWire": true,
}

// NoMarshal proves the PR 5 zero-marshal contract at compile time: no
// JSON encoding reachable from the server's handler entry points except
// through marshalWire/EncodeWire. Cache hits, coalesced waiters, batch
// splices and result fetches serve pre-encoded bytes; a stray
// json.Marshal on any of those paths used to surface only as a bumped
// marshal counter in a benchmark run — now it fails the build.
var NoMarshal = &Analyzer{
	Name: "nomarshal",
	Doc: "forbid json.Marshal/Encoder.Encode reachable from internal/server " +
		"handlers except via marshalWire/EncodeWire (PR 5 zero-marshal hit path)",
	Run: runNoMarshal,
}

// handlerEntry reports whether a function is a handler entry point:
// the mux targets (handle*) and their serve* bodies, plus ServeHTTP.
func handlerEntry(name string) bool {
	return strings.HasPrefix(name, "handle") ||
		strings.HasPrefix(name, "serve") ||
		name == "ServeHTTP"
}

func runNoMarshal(pass *Pass) {
	if pass.Pkg.Path() != serverPkg {
		return
	}
	g := buildCallGraph(pass)
	var entries []*types.Func
	for f := range g.decls {
		if handlerEntry(f.Name()) {
			entries = append(entries, f)
		}
	}
	reach := g.reachable(entries)
	for f := range reach {
		if marshalFuncs[f.Name()] && recvName(f) == "" {
			continue
		}
		decl := g.decls[f]
		if decl == nil {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil {
				return true
			}
			switch {
			case isFunc(callee, "encoding/json", "", "Marshal"),
				isFunc(callee, "encoding/json", "", "MarshalIndent"),
				isFunc(callee, "encoding/json", "", "NewEncoder"):
				pass.Reportf(call.Pos(),
					"json.%s on the serving path (reachable from handler entry points via %s): "+
						"responses must be encoded through marshalWire so the hit path stays zero-marshal",
					callee.Name(), f.Name())
			case callee.Name() == "Encode" && isFunc(callee, "encoding/json", "Encoder", "Encode"):
				pass.Reportf(call.Pos(),
					"(*json.Encoder).Encode on the serving path (reachable via %s): "+
						"responses must be encoded through marshalWire so the hit path stays zero-marshal",
					f.Name())
			}
			return true
		})
	}
}
