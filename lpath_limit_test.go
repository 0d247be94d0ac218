package lpath

import (
	"context"
	"reflect"
	"slices"
	"testing"
)

// limitStrategies pins each executor strategy the way the differential
// fuzzer does, so the early-termination parity holds for the probe loop, the
// bitmap kernels under each filter side and the planner's own mix alike.
// probe is the unplanned probe loop; no-bitmap keeps the planner's step order
// and access paths with the kernels off.
func limitStrategies() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"auto", nil},
		{"probe", []Option{WithoutPlanner(), withoutBitmap()}},
		{"no-bitmap", []Option{withoutBitmap()}},
		{"bitmap", []Option{withBitmapAlways()}},
		{"filter-sets", []Option{withFilterSets()}},
		{"filter-forward", []Option{withFiltersForward()}},
		{"bitmap-filter-sets", []Option{withBitmapAlways(), withFilterSets()}},
		{"bitmap-filter-forward", []Option{withBitmapAlways(), withFiltersForward()}},
	}
}

// checkLimit holds Limit k to its one meaning — the first k entries of the
// full result, the whole result when k is 0 — everywhere a limit can be
// applied through Run: the serial stream and the windowed settled prefix;
// and through a Parallel Stream, which stops by itself at the limit.
func checkLimit(t *testing.T, c *Corpus, q *Query, k int, full []Match) {
	t.Helper()
	want := full
	if k > 0 && k < len(full) {
		want = full[:k]
	}
	ctx := context.Background()
	for name, parallel := range map[string]bool{"serial": false, "parallel": true} {
		res, err := c.Run(ctx, Request{Query: q, Limit: k, Parallel: parallel})
		if err != nil {
			t.Fatalf("%s %s limit %d: %v", q, name, k, err)
		}
		if !reflect.DeepEqual(res.Matches, want) || res.Count != len(want) {
			t.Errorf("%s %s: Limit %d = %d matches (Count %d), want prefix of %d",
				q, name, k, len(res.Matches), res.Count, len(want))
		}
	}
	var streamed []Match
	for m, err := range c.Stream(ctx, Request{Query: q, Limit: k, Parallel: true}) {
		if err != nil {
			t.Fatalf("%s parallel stream limit %d: %v", q, k, err)
		}
		streamed = append(streamed, m)
	}
	if !slices.Equal(streamed, want) {
		t.Errorf("%s parallel stream: Limit %d = %d matches, want prefix of %d", q, k, len(streamed), len(want))
	}
}

// TestLimitParity is the one limit convention, through Run, for every query
// of the paper's 23-query suite and mainPathShapes under every executor
// strategy, at limits around the interesting boundaries (none, one,
// mid-stream at a shallow and a deeper cut, exact, past the end),
// independent of the worker (so window) count.
func TestLimitParity(t *testing.T) {
	for _, st := range limitStrategies() {
		t.Run(st.name, func(t *testing.T) {
			c, err := GenerateCorpus("wsj", 0.004, 3, append(st.opts, WithWorkers(3))...)
			if err != nil {
				t.Fatal(err)
			}
			for _, eq := range identityQueries() {
				q := MustCompile(eq.Text)
				full, err := c.Select(q)
				if err != nil {
					t.Fatalf("%s select: %v", eq.Name, err)
				}
				for _, k := range []int{0, 1, 7, 100, len(full), len(full) + 1} {
					checkLimit(t, c, q, k, full)
				}
			}
		})
	}
}

// TestMatchesIterator exercises the range-over-func surface: full
// consumption equals Select, breaking early equals the prefix, and
// cancellation surfaces as the iterator's final error pair — serially and on
// a worker pool.
func TestMatchesIterator(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//VB->NP`)
	full, err := c.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 10 {
		t.Fatalf("corpus too small: %d matches", len(full))
	}

	var all []Match
	for m, err := range c.Matches(q) {
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, m)
	}
	if !reflect.DeepEqual(all, full) {
		t.Errorf("full iteration: %d matches, Select: %d", len(all), len(full))
	}

	var prefix []Match
	for m, err := range c.Matches(q) {
		if err != nil {
			t.Fatal(err)
		}
		prefix = append(prefix, m)
		if len(prefix) == 5 {
			break
		}
	}
	if !reflect.DeepEqual(prefix, full[:5]) {
		t.Errorf("early break: %d matches, want the first 5", len(prefix))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawErr := false
	for _, err := range c.Stream(ctx, Request{Query: q}) {
		if err != nil {
			sawErr = true
			if err != context.Canceled {
				t.Errorf("iterator error = %v, want context.Canceled", err)
			}
		}
	}
	if !sawErr {
		t.Error("cancelled iteration yielded no error")
	}

	// Stream stops by itself at a positive Limit, resolves Text like Run, and
	// refuses the modes that have nothing to iterate.
	var limited []Match
	for m, err := range c.Stream(context.Background(), Request{Text: `//VB->NP`, Limit: 5}) {
		if err != nil {
			t.Fatal(err)
		}
		limited = append(limited, m)
	}
	if !reflect.DeepEqual(limited, full[:5]) {
		t.Errorf("Stream under Limit 5: %d matches, want the first 5", len(limited))
	}
	for _, err := range c.Stream(context.Background(), Request{Query: q, Mode: ModeCount}) {
		if err == nil {
			t.Error("Stream accepted a ModeCount request")
		}
	}

	// A Parallel stream yields the serial sequence; a break stops it and
	// leaves the corpus answering correctly; a dead context is one error pair.
	par := Request{Query: q, Parallel: true}
	var seq []Match
	for m, err := range c.Stream(context.Background(), par) {
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, m)
	}
	if !reflect.DeepEqual(seq, full) {
		t.Errorf("parallel stream: %d matches, Select: %d", len(seq), len(full))
	}
	for _, k := range []int{1, 5, len(full) - 1} {
		var prefix []Match
		for m, err := range c.Stream(context.Background(), par) {
			if err != nil {
				t.Fatal(err)
			}
			prefix = append(prefix, m)
			if len(prefix) == k {
				break
			}
		}
		if !reflect.DeepEqual(prefix, full[:k]) {
			t.Errorf("parallel stream, break at %d: %d matches, want the first %d", k, len(prefix), k)
		}
		if again, err := c.Select(q); err != nil || !reflect.DeepEqual(again, full) {
			t.Errorf("Select after a parallel stream broke at %d: %d matches, %v; want %d", k, len(again), err, len(full))
		}
	}
	var pairs []error
	for m, err := range c.Stream(ctx, par) {
		if m != (Match{}) {
			t.Errorf("cancelled parallel stream yielded a match in tree %d", m.TreeID)
		}
		pairs = append(pairs, err)
	}
	if len(pairs) != 1 || pairs[0] != context.Canceled {
		t.Errorf("cancelled parallel stream yielded %v, want exactly one context.Canceled", pairs)
	}
}

// TestLimitText covers the plan-cache serving path: with and without a
// configured cache, a limited Text request equals the prefix of the full one.
func TestLimitText(t *testing.T) {
	ctx := context.Background()
	for _, cached := range []bool{false, true} {
		opts := []Option{}
		if cached {
			opts = append(opts, WithPlanCache(16))
		}
		c, err := GenerateCorpus("wsj", 0.002, 5, opts...)
		if err != nil {
			t.Fatal(err)
		}
		const text = `//VB->NP`
		full, err := c.Run(ctx, Request{Text: text})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(ctx, Request{Text: text, Limit: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Matches) < 3 || !reflect.DeepEqual(got.Matches, full.Matches[:3]) {
			t.Errorf("cached=%v: Limit 3 = %d matches, want the first 3 of %d",
				cached, len(got.Matches), len(full.Matches))
		}
		if _, err := c.Run(ctx, Request{Text: `//VB[`, Limit: 3}); err == nil {
			t.Errorf("cached=%v: compile error not reported", cached)
		}
	}
}

// TestSelectLimitScoped pins the windowed scoped-roots expansion: scoping on
// the virtual root must restrict per tree inside each streaming window.
func TestSelectLimitScoped(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{`//S{//NP$}`, `//VP{/VB-->NN}`, `//NP[not(//JJ) and //NN]`} {
		q := MustCompile(text)
		full, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, len(full)} {
			got, err := c.SelectLimit(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: SelectLimit(%d) = %d matches, want %d", text, k, len(got), len(want))
			}
		}
	}
}
