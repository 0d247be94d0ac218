// The compiled-plan cache: parsing and validating an LPath query is pure
// CPU work that repeats verbatim under production traffic, where a small
// set of query texts dominates. PlanCache memoizes text → compiled plan
// with LRU eviction so the parse+validate cost is paid once per distinct
// query, and exposes hit/miss/eviction counters for observability.

package engine

import (
	"container/list"
	"sync"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// DefaultPlanCacheSize is the capacity used when none is given.
const DefaultPlanCacheSize = 128

// PlanCache is a bounded LRU cache from query text to compiled plan. It is
// safe for concurrent use. Plans are immutable after compilation (the
// engine never mutates a *lpath.Path), so a cached plan may be evaluated
// from many goroutines at once.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used; values are *planEntry
	entries   map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type planEntry struct {
	text string
	plan *lpath.Path
	// exec is the cost-based executable plan for the AST, valid for the
	// store generation gen. The AST outlives store rebuilds (parsing is
	// corpus-independent); the exec plan is re-derived when statistics
	// change. planned distinguishes a cached nil plan (planning disabled)
	// from an entry that has not been planned yet.
	exec    *planner.Plan
	gen     uint64
	planned bool
}

// NewPlanCache creates a cache holding at most capacity plans; a
// non-positive capacity selects DefaultPlanCacheSize.
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = DefaultPlanCacheSize
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached plan for the query text, marking it most recently
// used.
func (c *PlanCache) Get(text string) (*lpath.Path, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[text]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

// Put inserts or refreshes a plan, evicting the least recently used entry
// when the cache is full.
func (c *PlanCache) Put(text string, plan *lpath.Path) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[text]; ok {
		ent := el.Value.(*planEntry)
		ent.plan = plan
		// A replaced AST invalidates any exec plan keyed to the old one.
		ent.exec, ent.gen, ent.planned = nil, 0, false
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).text)
		c.evictions++
	}
	c.entries[text] = c.order.PushFront(&planEntry{text: text, plan: plan})
}

// GetOrPlan returns the cached AST and the cost-based exec plan valid for
// store generation gen, compiling and/or planning on demand. Concurrent
// misses on the same text may compile more than once; every compilation
// produces an equivalent immutable plan, so the duplicate work is harmless.
// Compilation errors are returned and not cached. A cached entry from an older
// generation keeps its AST but is re-planned, so corpus rebuilds invalidate
// plans without re-parsing. plan may return nil (planning disabled); the
// nil is cached like any other plan.
func (c *PlanCache) GetOrPlan(text string, gen uint64, compile func(string) (*lpath.Path, error), plan func(*lpath.Path) *planner.Plan) (*lpath.Path, *planner.Plan, error) {
	c.mu.Lock()
	if el, ok := c.entries[text]; ok {
		ent := el.Value.(*planEntry)
		c.order.MoveToFront(el)
		if ent.planned && ent.gen == gen {
			c.hits++
			ast, exec := ent.plan, ent.exec
			c.mu.Unlock()
			return ast, exec, nil
		}
		// AST hit, stale (or absent) exec plan: re-plan outside the lock.
		c.hits++
		ast := ent.plan
		c.mu.Unlock()
		exec := plan(ast)
		c.putExec(text, ast, exec, gen)
		return ast, exec, nil
	}
	c.misses++
	c.mu.Unlock()

	ast, err := compile(text)
	if err != nil {
		return nil, nil, err
	}
	exec := plan(ast)
	c.putExec(text, ast, exec, gen)
	return ast, exec, nil
}

// putExec inserts or refreshes an entry carrying an exec plan.
func (c *PlanCache) putExec(text string, ast *lpath.Path, exec *planner.Plan, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[text]; ok {
		ent := el.Value.(*planEntry)
		ent.plan, ent.exec, ent.gen, ent.planned = ast, exec, gen, true
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).text)
		c.evictions++
	}
	c.entries[text] = c.order.PushFront(&planEntry{
		text: text, plan: ast, exec: exec, gen: gen, planned: true,
	})
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a snapshot of the cache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Len       int
	Capacity  int
}

// Stats returns a consistent snapshot of the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.order.Len(),
		Capacity:  c.capacity,
	}
}
