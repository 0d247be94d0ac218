package lpath

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// batchSizes chunks the 23-query suite: a singleton batch (must degenerate
// to Select), small and medium batches, and the whole suite at once.
var batchSizes = []int{1, 4, 16, 23}

// TestBatchParity is the public batch identity property: for every executor
// strategy and every batch size, chunking the paper's 23-query suite through
// SelectBatchStats yields slot-for-slot exactly what Select returns for each
// query alone.
func TestBatchParity(t *testing.T) {
	for _, st := range limitStrategies() {
		t.Run(st.name, func(t *testing.T) {
			c, err := GenerateCorpus("wsj", 0.004, 3, append(st.opts, WithWorkers(3))...)
			if err != nil {
				t.Fatal(err)
			}
			var qs []*Query
			var want [][]Match
			for _, eq := range EvalQueries() {
				q := MustCompile(eq.Text)
				ms, err := c.Select(q)
				if err != nil {
					t.Fatalf("Q%d select: %v", eq.ID, err)
				}
				qs, want = append(qs, q), append(want, ms)
			}
			for _, size := range batchSizes {
				for lo := 0; lo < len(qs); lo += size {
					hi := min(lo+size, len(qs))
					got, errs, _ := c.SelectBatchStats(context.Background(), qs[lo:hi])
					for i := range got {
						if errs[i] != nil {
							t.Fatalf("size %d: %q: %v", size, qs[lo+i], errs[i])
						}
						if !reflect.DeepEqual(got[i], want[lo+i]) {
							t.Errorf("size %d: %q: batch %d matches, serial %d",
								size, qs[lo+i], len(got[i]), len(want[lo+i]))
						}
					}
				}
			}
		})
	}
}

// TestSelectBatchStatsCancelled: a dead context fails every slot with its
// error.
func TestSelectBatchStatsCancelled(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs, _ := c.SelectBatchStats(ctx, []*Query{MustCompile(`//NP`), MustCompile(`//VP//V`), MustCompile(`//NP`)})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("slot %d: got %v, want context.Canceled", i, err)
		}
	}
}

// TestSelectBatchStatsSharing: a duplicate-heavy batch over the suite
// reports rows-memo hits through the public stats surface, and the shared
// results stay identical to serial.
func TestSelectBatchStatsSharing(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*Query, 0, 2*len(EvalQueries()))
	for _, eq := range EvalQueries() {
		qs = append(qs, MustCompile(eq.Text))
	}
	qs = append(qs, qs...) // every query appears twice
	got, errs, stats := c.SelectBatchStats(context.Background(), qs)
	n := len(qs) / 2
	for i := 0; i < n; i++ {
		if errs[i] != nil || errs[n+i] != nil {
			t.Fatalf("%q: %v / %v", qs[i], errs[i], errs[n+i])
		}
		if !reflect.DeepEqual(got[i], got[n+i]) {
			t.Errorf("%q: duplicate slots differ", qs[i])
		}
	}
	if stats.RowsHits < n {
		t.Errorf("rows memo: %d hits for %d duplicates", stats.RowsHits, n)
	}
}

// TestExplainTextCachedPlanFreshActuals pins the EXPLAIN-through-cache
// contract: repeated ExplainText renders the cached executable plan with
// fresh actual-cardinality counters — byte-identical reports, no stale or
// doubled actuals — and the repeats hit the plan cache rather than
// replanning.
func TestExplainTextCachedPlanFreshActuals(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5, WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	const text = `//VP{//NP$}`
	first, err := c.ExplainText(text)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first, "actual") {
		t.Fatalf("EXPLAIN report carries no actuals:\n%s", first)
	}
	before := c.PlanCacheStats()
	for i := 0; i < 3; i++ {
		again, err := c.ExplainText(text)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("ExplainText drifted on repeat %d:\n--- first ---\n%s\n--- again ---\n%s", i+1, first, again)
		}
	}
	after := c.PlanCacheStats()
	if after.Hits <= before.Hits {
		t.Errorf("repeated ExplainText did not hit the plan cache (hits %d -> %d)", before.Hits, after.Hits)
	}
	if after.Misses != before.Misses {
		t.Errorf("repeated ExplainText re-missed the plan cache (misses %d -> %d)", before.Misses, after.Misses)
	}

	// The cached-plan report must agree with a from-scratch Explain of the
	// same text (same plan, same fresh actuals).
	fresh, err := c.Explain(MustCompile(text))
	if err != nil {
		t.Fatal(err)
	}
	if fresh != first {
		t.Fatalf("cached-plan EXPLAIN differs from from-scratch EXPLAIN:\n--- cached ---\n%s\n--- fresh ---\n%s", first, fresh)
	}
}
