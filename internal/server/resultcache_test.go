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
