package lpath

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lpath/internal/engine"
)

// batchSizes chunks the 23-query suite: a singleton batch (must degenerate
// to Select), small and medium batches, and the whole suite at once.
var batchSizes = []int{1, 4, 16, 23}

// TestBatchParity pins the SelectBatchStats stub to Select: for every
// executor strategy and every batch size, chunking the paper's 23-query suite
// through it yields slot-for-slot exactly what Select returns for each query
// alone, with zero stats.
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
					got, errs, stats := c.SelectBatchStats(context.Background(), qs[lo:hi])
					if stats != (engine.BatchStats{}) {
						t.Errorf("size %d: stats %+v, want zero", size, stats)
					}
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

// TestExplainTextCachedPlanFreshActuals pins the repeated-EXPLAIN contract:
// repeated ExplainText renders the same executable plan with fresh
// actual-cardinality counters — byte-identical reports, no stale or doubled
// actuals.
func TestExplainTextCachedPlanFreshActuals(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
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
	for i := 0; i < 3; i++ {
		again, err := c.ExplainText(text)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("ExplainText drifted on repeat %d:\n--- first ---\n%s\n--- again ---\n%s", i+1, first, again)
		}
	}

	// The text report must agree with Explain of the compiled query (same
	// plan, same fresh actuals).
	compiled, err := c.Explain(MustCompile(text))
	if err != nil {
		t.Fatal(err)
	}
	if compiled != first {
		t.Fatalf("ExplainText differs from Explain:\n--- text ---\n%s\n--- compiled ---\n%s", first, compiled)
	}
}
