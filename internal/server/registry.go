// Package server is the lpathd serving layer: a long-running HTTP front end
// over the LPath engine with the production behaviors the one-shot CLIs
// cannot provide — request deadlines with cooperative cancellation,
// semaphore-based admission control with fast load shedding, a
// generation-keyed result cache, and an observability surface (Prometheus
// text metrics, structured request logs, pprof).
//
// The package splits along those behaviors: registry.go holds the named,
// generation-stamped corpora; admission.go bounds concurrency; resultcache.go
// memoizes responses; metrics.go counts everything; handlers.go implements
// the /v1 endpoints; server.go wires them into an http.Server.
package server

import (
	"fmt"
	"sort"
	"sync"

	"lpath"
	"lpath/internal/relstore/snapshot"
)

// Entry is one registered corpus: the queryable corpus itself plus the
// serving metadata the handlers and caches key on.
type Entry struct {
	// Name is the registry key clients address queries to.
	Name string
	// Gen is the registry-wide swap generation: every Set increments it, so
	// (Name, Gen) uniquely identifies one loaded corpus state. Result-cache
	// keys embed it, which is what invalidates cached results when a corpus
	// is swapped for a rebuilt or reloaded one.
	Gen uint64
	// Corpus is the live corpus. It must not be mutated after registration:
	// the registry builds the index eagerly in Set, and every later access
	// is read-only and safe for concurrent queries (Counts among them).
	Corpus *lpath.Corpus
}

// Registry maps corpus names to live corpora. Lookups are cheap RLock reads
// on the request path; Set swaps atomically under the write lock, so
// in-flight queries keep the entry (and corpus) they resolved and new
// requests see the replacement.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
	gen     uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// Set registers (or swaps) a corpus under the name, building its index
// eagerly so the serving path never triggers a lazy, non-concurrent-safe
// build. It returns the new entry. The corpus must not be mutated after Set.
func (r *Registry) Set(name string, c *lpath.Corpus) (*Entry, error) {
	if name == "" {
		return nil, fmt.Errorf("server: corpus name must not be empty")
	}
	if err := c.Build(); err != nil {
		return nil, fmt.Errorf("server: building corpus %q: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gen++
	e := &Entry{Name: name, Gen: r.gen, Corpus: c}
	r.entries[name] = e
	return e, nil
}

// LoadFile registers the corpus stored at path under name, sniffing the file
// format: binary store snapshots (.lpx files, recognized by magic) are
// memory-mapped via lpath.OpenStore — so startup reads and validates flat
// arrays instead of re-parsing and re-indexing — and anything else is parsed
// as Penn-bracketed text. It returns the entry and the detected format
// ("snapshot" or "text").
func (r *Registry) LoadFile(name, path string, opts ...lpath.Option) (*Entry, string, error) {
	snap, err := snapshot.SniffFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("server: loading corpus %q: %w", name, err)
	}
	var c *lpath.Corpus
	format := "text"
	if snap {
		format = "snapshot"
		c, err = lpath.OpenStore(path, opts...)
	} else {
		c, err = lpath.OpenCorpus(path, opts...)
	}
	if err != nil {
		return nil, "", fmt.Errorf("server: loading corpus %q: %w", name, err)
	}
	e, err := r.Set(name, c)
	if err != nil {
		return nil, "", err
	}
	return e, format, nil
}

// Get resolves a corpus by name. The empty name resolves iff exactly one
// corpus is registered — the single-corpus deployment needs no addressing.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.entries) == 1 {
			for _, e := range r.entries {
				return e, true
			}
		}
		return nil, false
	}
	e, ok := r.entries[name]
	return e, ok
}

// Remove drops a corpus from the registry; in-flight queries against it
// complete on the entry they already hold.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.entries, name)
}

// Entries returns the registered entries sorted by name.
func (r *Registry) Entries() []*Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered corpora.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
