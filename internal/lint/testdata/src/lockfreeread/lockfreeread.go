// Known-bad examples for the lockfreeread analyzer. The runner
// type-checks this file as package path "mapcomp/internal/catalog",
// where the copy-on-write lock-free-read contract applies.
package catalog

import (
	"sync"
	"sync/atomic"
)

type view struct{ gen uint64 }

type Catalog struct {
	mu   sync.Mutex
	snap atomic.Pointer[view]
	gens map[string]uint64
}

// Generation locks on the read path: the canonical violation.
func (c *Catalog) Generation() uint64 {
	c.mu.Lock() // want `sync\.Mutex\.Lock reachable from the catalog read API`
	defer c.mu.Unlock()
	return c.snap.Load().gen
}

// Schema mutates receiver-rooted state on the read path.
func (c *Catalog) Schema(name string) bool {
	c.gens[name] = 1 // want `write to shared state reachable from the catalog read API`
	return false
}

// Mapping calls the delete built-in on receiver-rooted state.
func (c *Catalog) Mapping(name string) {
	delete(c.gens, name) // want `delete on shared state reachable from the catalog read API`
}

// Snapshot reaches a lock through a helper: the call graph follows it.
func (c *Catalog) Snapshot() { c.bump() }

func (c *Catalog) bump() {
	c.mu.Lock() // want `sync\.Mutex\.Lock reachable from the catalog read API`
	c.mu.Unlock()
}

// Snap builds and mutates local state only: allowed.
func (c *Catalog) Snap() map[string]uint64 {
	seen := make(map[string]uint64)
	seen["a"] = c.snap.Load().gen
	delete(seen, "a")
	return seen
}

// register is a write-path method, not part of the read API: locking
// here is the contract working as intended.
func (c *Catalog) register(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[name] = 1
}
