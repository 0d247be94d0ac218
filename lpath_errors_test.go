package lpath

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	ast "lpath/internal/lpath"
)

// requestShapes is the cross product of Request's axes — mode × parallel ×
// limit — that the error contracts below must hold over. spell fills in the
// query (compiled or raw text) per contract.
func requestShapes() []Request {
	var shapes []Request
	for _, mode := range []Mode{ModeSelect, ModeCount, ModeExplain} {
		for _, parallel := range []bool{false, true} {
			for _, limit := range []int{0, 3} {
				shapes = append(shapes, Request{Mode: mode, Parallel: parallel, Limit: limit})
			}
		}
	}
	return shapes
}

func shapeName(r Request) string {
	spelling := "query"
	if r.Query == nil {
		spelling = "text"
	}
	return fmt.Sprintf("mode=%d/parallel=%v/limit=%d/%s", r.Mode, r.Parallel, r.Limit, spelling)
}

// TestErrorParityAcrossRequests pins the error contract of the one request
// path: for one identical failure, every Request shape — serial or parallel,
// selecting, counting or explaining, limited or not, alone or as a batch
// slot — returns the identical error, independent of worker scheduling
// (runWindows propagates deterministically by window index).
func TestErrorParityAcrossRequests(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	// Run a shape alone and as a slot of a batch; both must fail alike.
	failures := func(ctx context.Context, r Request) map[string]error {
		_, runErr := c.Run(ctx, r)
		batch := c.RunBatch(ctx, []Request{{Text: `//NP`}, r})
		if batch[0].Err != nil && ctx.Err() == nil {
			t.Errorf("%s: healthy batch mate failed: %v", shapeName(r), batch[0].Err)
		}
		return map[string]error{"Run": runErr, "RunBatch": batch[1].Err}
	}

	// An attribute step in the main path fails validation. The public Compile
	// rejects it, so forge the Query the way a buggy caller (or a future code
	// path skipping validation) would: every request must still fail with
	// the same sentinel.
	badQuery := &Query{text: `//@lex`, path: &ast.Path{Steps: []ast.Step{
		{Axis: ast.AxisAttribute, Test: "lex"},
	}}}
	t.Run("forged invalid query", func(t *testing.T) {
		for _, r := range requestShapes() {
			r.Query = badQuery
			for entry, err := range failures(context.Background(), r) {
				if !errors.Is(err, ast.ErrAttrInMainPath) {
					t.Errorf("%s %s: got %v, want ErrAttrInMainPath", entry, shapeName(r), err)
				} else if got, want := err.Error(), ast.ErrAttrInMainPath.Error(); got != want {
					t.Errorf("%s %s: error text %q, want %q", entry, shapeName(r), got, want)
				}
			}
		}
	})

	t.Run("text compile error", func(t *testing.T) {
		const bad = `//VP[`
		_, wantErr := Compile(bad)
		if wantErr == nil {
			t.Fatalf("Compile(%q) unexpectedly succeeded", bad)
		}
		for _, r := range requestShapes() {
			r.Text = bad
			for entry, err := range failures(context.Background(), r) {
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s %s: error %v, want %q", entry, shapeName(r), err, wantErr)
				}
			}
		}
	})

	t.Run("cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, r := range requestShapes() {
			for _, spelled := range []Request{{Query: MustCompile(`//NP`)}, {Text: `//NP`}} {
				r.Query, r.Text = spelled.Query, spelled.Text
				for entry, err := range failures(ctx, r) {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("%s %s: got %v, want context.Canceled", entry, shapeName(r), err)
					}
				}
			}
		}
	})

	t.Run("unknown mode", func(t *testing.T) {
		if _, err := c.Run(context.Background(), Request{Text: `//NP`, Mode: Mode(7)}); err == nil {
			t.Error("Run accepted an unknown mode")
		}
	})
}

// TestSugarEqualsRun holds every surviving shorthand method to the Run (or
// RunBatch, or Stream) call its documentation names, on all 23 paper
// queries.
func TestSugarEqualsRun(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.004, 3, WithPlanCache(32), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func(r Request) Result {
		t.Helper()
		res, err := c.Run(ctx, r)
		if err != nil {
			t.Fatalf("Run(%s): %v", shapeName(r), err)
		}
		return res
	}
	var qs []*Query
	for _, eq := range EvalQueries() {
		q := MustCompile(eq.Text)
		qs = append(qs, q)
		full := run(Request{Query: q})

		if ms, err := c.Select(q); err != nil || !reflect.DeepEqual(ms, full.Matches) {
			t.Errorf("Q%d: Select = %d matches, %v; Run %d", eq.ID, len(ms), err, len(full.Matches))
		}
		if ms, err := c.SelectLimit(q, 5); err != nil || !reflect.DeepEqual(ms, run(Request{Query: q, Limit: 5}).Matches) {
			t.Errorf("Q%d: SelectLimit(5) = %d matches, %v", eq.ID, len(ms), err)
		}
		if ms, err := c.SelectLimitTextContext(ctx, eq.Text, 5); err != nil || !reflect.DeepEqual(ms, run(Request{Text: eq.Text, Limit: 5}).Matches) {
			t.Errorf("Q%d: SelectLimitTextContext(5) = %d matches, %v", eq.ID, len(ms), err)
		}
		for _, k := range []int{0, -1} {
			if ms, err := c.SelectLimit(q, k); err != nil || ms == nil || len(ms) != 0 {
				t.Errorf("Q%d: SelectLimit(%d) = %v, %v; want empty non-nil", eq.ID, k, ms, err)
			}
			if ms, err := c.SelectLimitTextContext(ctx, eq.Text, k); err != nil || ms == nil || len(ms) != 0 {
				t.Errorf("Q%d: SelectLimitTextContext(%d) = %v, %v; want empty non-nil", eq.ID, k, ms, err)
			}
		}
		var streamed []Match
		for m, err := range c.Matches(q) {
			if err != nil {
				t.Fatalf("Q%d: Matches: %v", eq.ID, err)
			}
			streamed = append(streamed, m)
		}
		if len(streamed) != len(full.Matches) || (len(streamed) > 0 && !reflect.DeepEqual(streamed, full.Matches)) {
			t.Errorf("Q%d: Matches yielded %d matches, Run %d", eq.ID, len(streamed), len(full.Matches))
		}

		want := run(Request{Query: q, Mode: ModeCount}).Count
		if want != len(full.Matches) {
			t.Errorf("Q%d: ModeCount = %d, ModeSelect has %d matches", eq.ID, want, len(full.Matches))
		}
		counts := map[string]func() (int, error){
			"Count":            func() (int, error) { return c.Count(q) },
			"CountParallel":    func() (int, error) { return c.CountParallel(q) },
			"CountText":        func() (int, error) { return c.CountText(eq.Text) },
			"CountTextContext": func() (int, error) { return c.CountTextContext(ctx, eq.Text) },
		}
		for name, count := range counts {
			if n, err := count(); err != nil || n != want {
				t.Errorf("Q%d: %s = %d, %v; Run %d", eq.ID, name, n, err, want)
			}
		}
		if n := run(Request{Query: q, Mode: ModeCount, Parallel: true}).Count; n != want {
			t.Errorf("Q%d: parallel ModeCount = %d, serial %d", eq.ID, n, want)
		}

		report := run(Request{Query: q, Mode: ModeExplain}).Explain
		if got, err := c.Explain(q); err != nil || got != report {
			t.Errorf("Q%d: Explain differs from Run: %v", eq.ID, err)
		}
		if got, err := c.ExplainText(eq.Text); err != nil || got != report {
			t.Errorf("Q%d: ExplainText differs from Run: %v", eq.ID, err)
		}
	}

	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Query: q}
	}
	batch := c.RunBatch(ctx, reqs)
	ms, errs, _ := c.SelectBatchStats(ctx, qs)
	for i := range qs {
		if errs[i] != nil || batch[i].Err != nil {
			t.Fatalf("%q: %v / %v", qs[i], errs[i], batch[i].Err)
		}
		if !reflect.DeepEqual(ms[i], batch[i].Matches) {
			t.Errorf("%q: SelectBatchStats slot differs from RunBatch", qs[i])
		}
	}
}
