package lpath

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

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
// selecting, counting or explaining, limited or not — returns the identical
// error, independent of worker scheduling (the window scheduler propagates
// deterministically by window index), and so does a compiled query's slot in
// a SelectBatchStats batch.
func TestErrorParityAcrossRequests(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), WithPlanCache(8))
	if err != nil {
		t.Fatal(err)
	}
	healthy := MustCompile(`//NP`)
	// Run a shape alone and, when it is a plain compiled select, as a slot of
	// a batch; both must fail alike.
	failures := func(ctx context.Context, r Request) map[string]error {
		_, runErr := c.Run(ctx, r)
		out := map[string]error{"Run": runErr}
		if r == (Request{Query: r.Query}) && r.Query != nil {
			_, errs, _ := c.SelectBatchStats(ctx, []*Query{healthy, r.Query})
			if errs[0] != nil && ctx.Err() == nil {
				t.Errorf("%s: healthy batch mate failed: %v", shapeName(r), errs[0])
			}
			out["SelectBatchStats"] = errs[1]
		}
		return out
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
// Stream) call its documentation names, and SelectBatchStats to Run, on all
// 23 paper queries.
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
	var fulls [][]Match
	for _, eq := range EvalQueries() {
		q := MustCompile(eq.Text)
		full := run(Request{Query: q})
		qs, fulls = append(qs, q), append(fulls, full.Matches)

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

	ms, errs, _ := c.SelectBatchStats(ctx, qs)
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("%q: %v", qs[i], errs[i])
		}
		if !reflect.DeepEqual(ms[i], fulls[i]) {
			t.Errorf("%q: SelectBatchStats slot differs from Run", qs[i])
		}
	}
}

// nestedQuery wraps the innermost filter //NN in depth levels of predicates,
// scopes, grouping and function-call parentheses under //S, each wrapper
// true exactly when the filter is, so the query selects the S nodes that
// dominate an NN however deep it nests.
func nestedQuery(depth int) string {
	wrappers := []struct {
		levels      int
		open, close string
	}{
		{2, `not(not(`, `))`},
		{1, `.[`, `]`},
		{2, `.{.[`, `]}`},
		{1, `(`, `)`},
		{2, `count(.[`, `])=1`},
	}
	inner := `//NN`
	for i, n := 0, 1; n < depth; i++ {
		w := wrappers[i%len(wrappers)]
		if n+w.levels > depth {
			w = wrappers[1]
		}
		inner = w.open + inner + w.close
		n += w.levels
	}
	return `//S[` + inner + `]`
}

// TestParseNestingBound pins the parser's nesting bound: a query nested
// exactly maxNesting deep compiles and counts what the tree-walking oracle
// selects, one level more is a syntax error at the offending opener, and a
// 10 000-deep query is refused as fast as it is read.
func TestParseNestingBound(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 64
	q, err := Compile(nestedQuery(bound))
	if err != nil {
		t.Fatalf("query at the bound: %v", err)
	}
	n, err := c.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.SelectOracle(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) || n == 0 {
		t.Errorf("query at the bound counts %d, oracle selects %d", n, len(want))
	}
	if _, err := Compile(q.path.String()); err != nil {
		t.Errorf("printed query at the bound does not recompile: %v", err)
	}

	deep := strings.Repeat(`//A[`, 10000) + `//B` + strings.Repeat(`]`, 10000)
	for name, text := range map[string]string{
		"one past the bound": nestedQuery(bound + 1),
		"10000 deep":         deep,
	} {
		start := time.Now()
		_, err := Compile(text)
		elapsed := time.Since(start)
		var se *ast.SyntaxError
		if !errors.As(err, &se) {
			t.Fatalf("%s: got %v, want a *SyntaxError", name, err)
		}
		if opener := text[se.Pos]; opener != '[' && opener != '{' && opener != '(' {
			t.Errorf("%s: error at offset %d (%q), want the opener past the bound", name, se.Pos, opener)
		}
		if elapsed > time.Second {
			t.Errorf("%s: refused after %v", name, elapsed)
		}
	}
}

// TestBuildRefusesTagsTheStoreCannotHold pins that a tree with an empty tag
// or an '@'-prefixed one (the store's attribute names) makes Build, and every
// query that builds lazily, return an error naming the tag, not panic.
func TestBuildRefusesTagsTheStoreCannotHold(t *testing.T) {
	for _, tag := range []string{"@x", ""} {
		c := NewCorpus()
		if err := c.AddSentence("(S (NP (N dogs)) (VP (V bark)))"); err != nil {
			t.Fatal(err)
		}
		c.Add(&Tree{Root: &Node{Tag: tag, Word: "w"}})
		want := fmt.Sprintf("tag %q", tag)
		if err := c.Build(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Build with tag %q: %v, want an error naming %s", tag, err, want)
		}
		if _, err := c.CountText("//S"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CountText with tag %q: %v, want an error naming %s", tag, err, want)
		}
	}
}
