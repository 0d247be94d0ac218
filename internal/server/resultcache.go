package server

import (
	"container/list"
	"sync"
)

// resultKey identifies one cacheable response. Gen is the registry swap
// generation of the corpus the result was computed against, so swapping a
// corpus makes all of its cached entries unreachable (and InvalidateCorpus
// frees them promptly). The key deliberately carries no limit: "query"
// entries store an ordered prefix that answers every limit it covers
// (GetServe), so distinct limits share one entry instead of duplicating the
// evaluation per limit.
type resultKey struct {
	Corpus string
	Gen    uint64
	Kind   string // "query", "count" or "explain"
	Query  string
}

// ResultCache is a thread-safe LRU of fully rendered query results, bounded
// both by entry count and by total estimated bytes. Entries are immutable
// once stored; handlers must not mutate a cached value.
type ResultCache struct {
	mu       sync.Mutex
	capacity int
	maxBytes int64 // 0 = no byte bound
	curBytes int64
	ll       *list.List // front = most recent
	items    map[resultKey]*list.Element

	hits           uint64
	misses         uint64
	evictions      uint64
	bytesEvictions uint64
}

type resultEntry struct {
	key   resultKey
	value any
	size  int64
}

// NewResultCache creates a cache holding at most capacity results with no
// byte bound; capacity below 1 disables caching (every Get misses, Put is a
// no-op).
func NewResultCache(capacity int) *ResultCache {
	return NewResultCacheBytes(capacity, 0)
}

// NewResultCacheBytes is NewResultCache with a total-bytes bound: once the
// estimated size of the resident entries exceeds maxBytes, least recently
// used entries are evicted until it fits. maxBytes <= 0 disables the byte
// bound; a single value larger than maxBytes is never cached at all.
func NewResultCacheBytes(capacity int, maxBytes int64) *ResultCache {
	if maxBytes < 0 {
		maxBytes = 0
	}
	return &ResultCache{
		capacity: capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[resultKey]*list.Element),
	}
}

// entrySize estimates one entry's resident memory: the key's strings, the
// list/map bookkeeping, and the value. The estimate is deliberately simple —
// it exists to bound the cache's footprint, not to audit the allocator.
func entrySize(key resultKey, value any) int64 {
	const bookkeeping = 256 // entry struct, list element, map slot
	n := int64(bookkeeping + len(key.Corpus) + len(key.Kind) + len(key.Query))
	switch v := value.(type) {
	case *queryResult:
		const matchOverhead = 48 // matchJSON struct + string headers
		for _, m := range v.matches {
			n += matchOverhead + int64(len(m.Tag)+len(m.Text))
		}
	case *queryResponse:
		n += 128 + int64(len(v.Corpus)+len(v.Query)+len(v.Explain))
		for _, m := range v.Matches {
			n += 48 + int64(len(m.Tag)+len(m.Text))
		}
	default:
		n += 512 // unknown value type: charge a conservative flat estimate
	}
	return n
}

// Get returns the cached value for the key, marking it most recently used.
func (c *ResultCache) Get(key resultKey) (any, bool) {
	return c.GetServe(key, nil)
}

// GetServe returns the cached value for the key only when the usable
// predicate (nil = always) approves it, marking it most recently used. An
// entry the predicate rejects counts as a miss and keeps its LRU position.
// This is how one stored /v1/query prefix serves many limits: query entries
// are keyed without their limit, and whether an entry answers a request
// depends on the request (see queryResult.canServe).
func (c *ResultCache) GetServe(key resultKey, usable func(any) bool) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		v := el.Value.(*resultEntry).value
		if usable == nil || usable(v) {
			c.hits++
			c.ll.MoveToFront(el)
			return v, true
		}
	}
	c.misses++
	return nil, false
}

// Put stores a value, evicting least recently used entries while either
// bound (entry count, total bytes) is exceeded. A value whose own estimated
// size exceeds the byte bound is not stored — caching it would evict the
// entire working set for an entry unlikely to be re-served before it is
// evicted in turn. A /v1/query prefix stored over another one for the same
// key keeps whatever both of them answer (mergeQueryResults), so a racing
// evaluation with a smaller limit never narrows what the entry serves.
func (c *ResultCache) Put(key resultKey, value any) {
	if c.capacity < 1 {
		return
	}
	size := entrySize(key, value)
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*resultEntry)
		var fromOld bool
		if value, fromOld = mergeQueryResults(e.value, value); fromOld {
			size = e.size // the old prefix stays; a count adds no bytes
		}
		c.curBytes += size - e.size
		e.value, e.size = value, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&resultEntry{key: key, value: value, size: size})
		c.items[key] = el
		c.curBytes += size
	}
	for c.ll.Len() > c.capacity || (c.maxBytes > 0 && c.curBytes > c.maxBytes) {
		// Decide the cause before removing the victim: afterwards the count
		// bound holds again whichever bound forced the eviction.
		if c.ll.Len() <= c.capacity {
			c.bytesEvictions++ // the byte bound alone forced this one out
		}
		oldest := c.ll.Back()
		e := oldest.Value.(*resultEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.curBytes -= e.size
		c.evictions++
	}
}

// mergeQueryResults returns the value a Put of nv over the stored ov keeps.
// Two /v1/query results for one key come from the same corpus generation, so
// they agree wherever both are defined: the merge keeps nv's prefix unless
// ov's is strictly longer or complete, with a total either of them knows, and
// so answers every (limit, count) request either one answered. fromOld
// reports that the kept prefix is ov's. Any other value simply replaces ov.
func mergeQueryResults(ov, nv any) (v any, fromOld bool) {
	o, ok := ov.(*queryResult)
	n, ok2 := nv.(*queryResult)
	if !ok || !ok2 {
		return nv, false
	}
	keep, other := n, o
	if fromOld = !n.complete && (o.complete || len(o.matches) > len(n.matches)); fromOld {
		keep, other = o, n
	}
	if other.countKnown && !keep.countKnown {
		counted := *keep // stored entries are immutable: count a copy
		counted.count, counted.countKnown = other.count, true
		keep = &counted
	}
	return keep, fromOld
}

// InvalidateCorpus drops every entry for the named corpus, regardless of
// generation. Generation keying already makes stale entries unreachable
// after a swap; this releases their memory without waiting for LRU churn.
func (c *ResultCache) InvalidateCorpus(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*resultEntry); e.key.Corpus == name {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.curBytes -= e.size
		}
		el = next
	}
}

// ResultCacheStats is a point-in-time snapshot of the cache counters.
type ResultCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// BytesEvictions counts evictions forced by the byte bound alone (the
	// entry count was still under capacity); a subset of Evictions.
	BytesEvictions uint64
	Len            int
	Capacity       int
	// Bytes is the estimated resident size of the cached values; MaxBytes is
	// the configured bound (0 = unbounded).
	Bytes    int64
	MaxBytes int64
}

// Stats snapshots the hit/miss/eviction counters.
func (c *ResultCache) Stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Hits:           c.hits,
		Misses:         c.misses,
		Evictions:      c.evictions,
		BytesEvictions: c.bytesEvictions,
		Len:            c.ll.Len(),
		Capacity:       c.capacity,
		Bytes:          c.curBytes,
		MaxBytes:       c.maxBytes,
	}
}
