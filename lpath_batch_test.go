package lpath

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// batchSizes chunks the 23-query suite: a singleton batch (must degenerate
// to Run), small and medium batches, and the whole suite at once.
var batchSizes = []int{1, 4, 16, 23}

// suiteRequests returns one request per paper query, shaped by the given
// template (whose Query is replaced), and each query's serial Select result.
func suiteRequests(t *testing.T, c *Corpus, shape Request) ([]Request, [][]Match) {
	t.Helper()
	var reqs []Request
	var want [][]Match
	for _, eq := range EvalQueries() {
		shape.Query = MustCompile(eq.Text)
		ms, err := c.Select(shape.Query)
		if err != nil {
			t.Fatalf("Q%d select: %v", eq.ID, err)
		}
		reqs = append(reqs, shape)
		want = append(want, ms)
	}
	return reqs, want
}

// TestRunBatchParity is the public batch identity property: for every
// executor strategy and every batch size, chunking the paper's 23-query
// suite through RunBatch — serial slots and sharded slots alike — yields
// slot-for-slot exactly what Select returns for each query alone.
func TestRunBatchParity(t *testing.T) {
	for _, st := range limitStrategies() {
		t.Run(st.name, func(t *testing.T) {
			c, err := GenerateCorpus("wsj", 0.004, 3, append(st.opts, WithShards(3), WithWorkers(4))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []bool{false, true} {
				reqs, want := suiteRequests(t, c, Request{Parallel: parallel})
				for _, size := range batchSizes {
					for lo := 0; lo < len(reqs); lo += size {
						hi := min(lo+size, len(reqs))
						for i, got := range c.RunBatch(context.Background(), reqs[lo:hi]) {
							if got.Err != nil {
								t.Fatalf("size %d parallel=%v: %q: %v", size, parallel, reqs[lo+i].Query, got.Err)
							}
							if !reflect.DeepEqual(got.Matches, want[lo+i]) {
								t.Errorf("size %d parallel=%v: %q: batch %d matches, serial %d",
									size, parallel, reqs[lo+i].Query, len(got.Matches), len(want[lo+i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestRunBatchLimitTextParity drives the serving path (texts through the
// plan cache, with per-query caps): each capped slot is the exact prefix of
// the full serial result, and the batch shares plans across duplicates.
func TestRunBatchLimitTextParity(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.004, 3, WithPlanCache(64))
	if err != nil {
		t.Fatal(err)
	}
	reqs, full := suiteRequests(t, c, Request{})
	for i := range reqs {
		reqs[i] = Request{Text: reqs[i].Query.String(), Limit: []int{0, 1, 7, 1000}[i%4]}
	}
	for i, got := range c.RunBatch(context.Background(), reqs) {
		if got.Err != nil {
			t.Fatalf("%q: %v", reqs[i].Text, got.Err)
		}
		want := full[i]
		if k := reqs[i].Limit; k > 0 && k < len(want) {
			want = want[:k]
		}
		if !reflect.DeepEqual(got.Matches, want) {
			t.Errorf("%q limit %d: %d matches, want the serial prefix of %d",
				reqs[i].Text, reqs[i].Limit, len(got.Matches), len(want))
		}
	}
	if st := c.PlanCacheStats(); st.Misses == 0 {
		t.Error("plan cache reports no misses after a batch of fresh texts")
	}
}

// TestRunBatchTextCompileError: an uncompilable text occupies exactly its
// own slot with the compile error; batch mates are unaffected.
func TestRunBatchTextCompileError(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithPlanCache(8)}} {
		c := NewCorpus(opts...)
		if err := c.AddSentence(`(S (NP (N I)) (VP (V saw) (NP (D the) (N dog))))`); err != nil {
			t.Fatal(err)
		}
		got := c.RunBatch(context.Background(), []Request{{Text: `//NP`}, {Text: `//[`}, {Text: `//V`}})
		if got[0].Err != nil || got[2].Err != nil {
			t.Fatalf("healthy slots errored: %v, %v", got[0].Err, got[2].Err)
		}
		if got[1].Err == nil {
			t.Fatal("uncompilable text did not error its slot")
		}
		if got[1].Matches != nil {
			t.Errorf("failed slot carries %d matches", len(got[1].Matches))
		}
		if len(got[0].Matches) != 2 || len(got[2].Matches) != 1 {
			t.Errorf("matches = %d, %d; want 2, 1", len(got[0].Matches), len(got[2].Matches))
		}
	}
}

// TestRunBatchCancelled: a dead context fails every slot with its error,
// serial and sharded alike.
func TestRunBatchCancelled(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := c.RunBatch(ctx, []Request{
		{Query: MustCompile(`//NP`)}, {Query: MustCompile(`//VP//V`), Mode: ModeCount},
		{Query: MustCompile(`//NP`), Parallel: true}, {Query: MustCompile(`//VP//V`), Parallel: true},
	})
	for i, r := range got {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("slot %d: got %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestRunBatchCountAndExplain checks the other two modes as batch slots:
// counts ride the shared memo and equal serial Count, serial or sharded, and
// an EXPLAIN slot reports exactly what Explain does.
func TestRunBatchCountAndExplain(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	reqs, want := suiteRequests(t, c, Request{Mode: ModeCount})
	n := len(reqs)
	for _, r := range reqs[:n] {
		r.Parallel = true
		reqs = append(reqs, r)
	}
	q := MustCompile(`//VP{//NP$}`)
	reqs = append(reqs, Request{Query: q, Mode: ModeExplain})
	got := c.RunBatch(context.Background(), reqs)
	for i, r := range got[:2*n] {
		if r.Err != nil {
			t.Fatalf("%q: %v", reqs[i].Query, r.Err)
		}
		if r.Count != len(want[i%n]) || r.Matches != nil {
			t.Errorf("%q parallel=%v: batch count %d (%d matches), serial %d",
				reqs[i].Query, reqs[i].Parallel, r.Count, len(r.Matches), len(want[i%n]))
		}
	}
	report, err := c.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if last := got[2*n]; last.Err != nil || last.Explain != report {
		t.Errorf("EXPLAIN slot differs from Explain (%v):\n%s", last.Err, last.Explain)
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
