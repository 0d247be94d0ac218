package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

func TestPlanCacheHitMissEviction(t *testing.T) {
	c := NewPlanCache(2)
	a, b, d := lpath.MustParse(`//A`), lpath.MustParse(`//B`), lpath.MustParse(`//D`)

	if _, ok := c.Get("//A"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("//A", a)
	c.Put("//B", b)
	if p, ok := c.Get("//A"); !ok || p != a {
		t.Fatal("miss on cached //A")
	}
	// //B is now least recently used; inserting //D evicts it.
	c.Put("//D", d)
	if _, ok := c.Get("//B"); ok {
		t.Error("//B should have been evicted")
	}
	if _, ok := c.Get("//A"); !ok {
		t.Error("//A should have survived eviction")
	}
	if _, ok := c.Get("//D"); !ok {
		t.Error("//D should be cached")
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 2 || st.Evictions != 1 || st.Len != 2 || st.Capacity != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPlanCachePutRefreshesExisting(t *testing.T) {
	c := NewPlanCache(2)
	a1, a2 := lpath.MustParse(`//A`), lpath.MustParse(`//A`)
	c.Put("//A", a1)
	c.Put("//A", a2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if p, _ := c.Get("//A"); p != a2 {
		t.Error("Put should replace the stored plan")
	}
	if c.Stats().Evictions != 0 {
		t.Error("refreshing a key must not evict")
	}
}

func TestPlanCacheDefaultCapacity(t *testing.T) {
	for _, capGiven := range []int{0, -5} {
		if got := NewPlanCache(capGiven).Stats().Capacity; got != DefaultPlanCacheSize {
			t.Errorf("NewPlanCache(%d).Capacity = %d, want %d", capGiven, got, DefaultPlanCacheSize)
		}
	}
}

// noPlan is GetOrPlan's plan step for the tests that exercise the AST half
// of the cache.
func noPlan(*lpath.Path) *planner.Plan { return nil }

// TestPlanCacheGetOrCompile: GetOrPlan compiles a text once, and never
// caches a compilation error.
func TestPlanCacheGetOrCompile(t *testing.T) {
	c := NewPlanCache(4)
	compiles := 0
	compile := func(s string) (*lpath.Path, error) {
		compiles++
		return lpath.Parse(s)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := c.GetOrPlan(`//NP`, 0, compile, noPlan); err != nil {
			t.Fatal(err)
		}
	}
	if compiles != 1 {
		t.Errorf("compiled %d times, want 1", compiles)
	}
	// Errors are propagated and never cached.
	boom := errors.New("boom")
	fails := 0
	for i := 0; i < 3; i++ {
		_, _, err := c.GetOrPlan(`//bad`, 0, func(string) (*lpath.Path, error) {
			fails++
			return nil, boom
		}, noPlan)
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if fails != 3 {
		t.Errorf("failing compile ran %d times, want 3 (errors must not be cached)", fails)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestPlanCacheConcurrent hammers the cache from many goroutines over a key
// space larger than the capacity, so hits, misses and evictions all occur
// concurrently; the -race CI job runs this to certify the locking.
func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(8)
	texts := make([]string, 24)
	for i := range texts {
		texts[i] = fmt.Sprintf(`//NP[count(/_)=%d]`, i)
	}
	var wg sync.WaitGroup
	const goroutines, rounds = 16, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				text := texts[(g*7+i)%len(texts)]
				p, _, err := c.GetOrPlan(text, 0, lpath.Parse, noPlan)
				if err != nil || p == nil {
					t.Errorf("GetOrPlan(%q): %v", text, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Len > 8 {
		t.Errorf("Len = %d exceeds capacity", st.Len)
	}
	if st.Hits+st.Misses != goroutines*rounds {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, goroutines*rounds)
	}
}
