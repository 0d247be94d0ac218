package server

import "testing"

func rk(corpus string, gen uint64, query string) resultKey {
	return resultKey{Corpus: corpus, Gen: gen, Kind: "count", Query: query}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	c.Put(rk("a", 1, "q1"), 1)
	c.Put(rk("a", 1, "q2"), 2)

	if v, ok := c.Get(rk("a", 1, "q1")); !ok || v.(int) != 1 {
		t.Fatalf("q1: got %v, %v", v, ok)
	}
	// q1 is now most recent; inserting q3 evicts q2.
	c.Put(rk("a", 1, "q3"), 3)
	if _, ok := c.Get(rk("a", 1, "q2")); ok {
		t.Fatal("q2 survived eviction")
	}
	if _, ok := c.Get(rk("a", 1, "q1")); !ok {
		t.Fatal("q1 evicted despite recent use")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 {
		t.Fatalf("stats %+v, want 1 eviction, len 2", st)
	}
}

func TestResultCacheGenerationKeying(t *testing.T) {
	c := NewResultCache(8)
	c.Put(rk("a", 1, "q"), "old")
	if _, ok := c.Get(rk("a", 2, "q")); ok {
		t.Fatal("new generation hit the old generation's entry")
	}
	c.Put(rk("a", 2, "q"), "new")
	if v, _ := c.Get(rk("a", 2, "q")); v != "new" {
		t.Fatalf("gen 2: got %v", v)
	}
	if v, _ := c.Get(rk("a", 1, "q")); v != "old" {
		t.Fatalf("gen 1: got %v", v)
	}
}

func TestResultCacheInvalidateCorpus(t *testing.T) {
	c := NewResultCache(8)
	c.Put(rk("a", 1, "q1"), 1)
	c.Put(rk("a", 2, "q2"), 2)
	c.Put(rk("b", 1, "q1"), 3)
	c.InvalidateCorpus("a")
	if st := c.Stats(); st.Len != 1 {
		t.Fatalf("len %d after invalidate, want 1", st.Len)
	}
	if _, ok := c.Get(rk("b", 1, "q1")); !ok {
		t.Fatal("unrelated corpus entry dropped")
	}
	if _, ok := c.Get(rk("a", 1, "q1")); ok {
		t.Fatal("invalidated entry still served")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := NewResultCache(0)
	c.Put(rk("a", 1, "q"), 1)
	if _, ok := c.Get(rk("a", 1, "q")); ok {
		t.Fatal("capacity-0 cache stored an entry")
	}
	c = NewResultCache(-1)
	c.Put(rk("a", 1, "q"), 1)
	if _, ok := c.Get(rk("a", 1, "q")); ok {
		t.Fatal("negative-capacity cache stored an entry")
	}
}

func TestResultCacheUpdateExisting(t *testing.T) {
	c := NewResultCache(2)
	key := rk("a", 1, "q")
	c.Put(key, 1)
	c.Put(key, 2)
	if v, _ := c.Get(key); v.(int) != 2 {
		t.Fatalf("got %v, want updated value 2", v)
	}
	if st := c.Stats(); st.Len != 1 {
		t.Fatalf("len %d, want 1 (update, not insert)", st.Len)
	}
}

// queryResultOfSize builds a *queryResult whose estimated entry size is
// dominated by one text payload of n bytes.
func queryResultOfSize(n int) *queryResult {
	return &queryResult{
		matches:  []matchJSON{{Tree: 1, Tag: "NP", Text: string(make([]byte, n))}},
		complete: true, count: 1, countKnown: true,
	}
}

func TestResultCacheBytesBound(t *testing.T) {
	// Capacity far above the byte bound: only bytes force evictions.
	c := NewResultCacheBytes(1000, 8<<10)
	for i := 0; i < 16; i++ {
		c.Put(rk("a", 1, string(rune('a'+i))), queryResultOfSize(1<<10))
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed bound %d", st.Bytes, st.MaxBytes)
	}
	if st.BytesEvictions == 0 {
		t.Fatal("no byte-bound evictions despite 2x over-subscription")
	}
	if st.Evictions < st.BytesEvictions {
		t.Fatalf("evictions %d < bytes evictions %d", st.Evictions, st.BytesEvictions)
	}
	if st.Len == 0 || st.Len >= 16 {
		t.Fatalf("len %d, want a nonempty strict subset of the inserts", st.Len)
	}
	// Recently used entries survive; the eldest are the ones evicted.
	if _, ok := c.Get(rk("a", 1, string(rune('a'+15)))); !ok {
		t.Fatal("most recent entry evicted")
	}
}

// TestResultCacheCountEvictionIsNotBytesEviction: an eviction forced by the
// entry-count capacity under a byte bound that was never reached must not be
// charged to the byte bound.
func TestResultCacheCountEvictionIsNotBytesEviction(t *testing.T) {
	c := NewResultCacheBytes(2, 1<<20)
	for _, q := range []string{"a", "b", "c"} {
		c.Put(rk("a", 1, q), queryResultOfSize(16))
	}
	if st := c.Stats(); st.Evictions != 1 || st.BytesEvictions != 0 {
		t.Fatalf("evictions %d, bytes evictions %d; want 1, 0", st.Evictions, st.BytesEvictions)
	}
}

func TestResultCacheOversizeEntryNotStored(t *testing.T) {
	c := NewResultCacheBytes(8, 1<<10)
	c.Put(rk("a", 1, "small"), queryResultOfSize(64))
	c.Put(rk("a", 1, "huge"), queryResultOfSize(1<<20))
	if _, ok := c.Get(rk("a", 1, "huge")); ok {
		t.Fatal("entry larger than the byte bound was cached")
	}
	if _, ok := c.Get(rk("a", 1, "small")); !ok {
		t.Fatal("oversize insert disturbed the resident working set")
	}
}

func TestResultCacheBytesAccounting(t *testing.T) {
	c := NewResultCacheBytes(8, 0) // unbounded: pure accounting
	key := rk("a", 1, "q")
	c.Put(key, queryResultOfSize(100))
	before := c.Stats().Bytes
	if before <= 0 {
		t.Fatalf("bytes %d after insert", before)
	}
	// Replacing a value re-accounts its size instead of double-counting.
	c.Put(key, queryResultOfSize(5000))
	mid := c.Stats().Bytes
	if mid <= before || mid > before+6000 {
		t.Fatalf("bytes %d after replace (was %d)", mid, before)
	}
	c.InvalidateCorpus("a")
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("bytes %d after invalidating every entry, want 0", got)
	}
}

// TestResultCachePutNeverNarrowsQueryEntry stores two /v1/query results for
// one key in both orders — what two concurrent misses with different limits
// or count flags race to do — and requires the surviving entry to answer
// every (limit, count) request either of them answered, with the right
// prefix. (It may answer more: a total one of them knows covers the other's
// longer prefix too.)
func TestResultCachePutNeverNarrowsQueryEntry(t *testing.T) {
	const total = 50
	all := make([]matchJSON, total)
	for i := range all {
		all[i] = matchJSON{Tree: i, Tag: "NP"}
	}
	// prefix is a limit+1 evaluation's result with limit n-1, optionally
	// with the exact total attached.
	prefix := func(n int, counted bool) *queryResult {
		qr := &queryResult{matches: all[:n]}
		if counted {
			qr.count, qr.countKnown = total, true
		}
		return qr
	}
	complete := &queryResult{matches: all, complete: true, count: total, countKnown: true}
	entries := map[string]*queryResult{
		"limit 2":          prefix(3, false),
		"limit 2 counted":  prefix(3, true),
		"limit 10":         prefix(11, false),
		"limit 10 counted": prefix(11, true),
		"limit 40":         prefix(41, false),
		"limit 40 counted": prefix(41, true),
		"complete":         complete,
	}
	pairs := [][2]string{
		{"limit 2", "limit 10"},
		{"limit 10", "limit 40"},
		{"limit 2", "limit 10 counted"},
		{"limit 2 counted", "limit 10"},
		{"limit 2 counted", "limit 40 counted"},
		{"limit 10", "limit 10 counted"},
		{"limit 10", "complete"},
		{"limit 2 counted", "complete"},
	}
	key := resultKey{Corpus: "a", Gen: 1, Kind: "query", Query: "//NP"}
	for _, pair := range pairs {
		for _, order := range [][2]string{{pair[0], pair[1]}, {pair[1], pair[0]}} {
			c := NewResultCache(8)
			for _, name := range order {
				c.Put(key, entries[name])
			}
			for _, limit := range []int{1, 2, 3, 10, 11, 20, 40, 49, 50, 100} {
				for _, counted := range []bool{false, true} {
					want := entries[order[0]].canServe(limit, counted) || entries[order[1]].canServe(limit, counted)
					v, ok := c.GetServe(key, func(v any) bool { return v.(*queryResult).canServe(limit, counted) })
					if want && !ok {
						t.Errorf("Put %q then %q: limit %d count %v served=%v, want %v", order[0], order[1], limit, counted, ok, want)
						continue
					}
					if !ok {
						continue
					}
					got := v.(*queryResult).render(limit)
					n := min(limit, total)
					if len(got.Matches) != n || got.Matches[n-1] != all[n-1] || got.Truncated != (limit < total) {
						t.Errorf("Put %q then %q: limit %d rendered %d matches truncated=%v", order[0], order[1], limit, len(got.Matches), got.Truncated)
					}
					if counted && got.Count != total {
						t.Errorf("Put %q then %q: limit %d count %d, want %d", order[0], order[1], limit, got.Count, total)
					}
				}
			}
		}
	}
}
