package lpath

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// axisPropertyQueries cover all eight horizontal axes (-> --> <- <-- => ==>
// <= <==), subtree scoping and edge alignment over the WSJ tag set, for the
// randomized parallel ≡ serial ≡ oracle property.
var axisPropertyQueries = []string{
	`//VB->NP`, `//VB-->NN`, `//NN[<-VB]`, `//NN[<--DT]`,
	`//VB=>NP`, `//VB==>NP`, `//NP[<=VB]`, `//NP[<==VB]`,
	`//VP{/VB-->NN}`, `//VP{//NP$}`, `//VP{//^NP}`, `//S{//NP{//NN}}`,
	`//VP/^_`, `//VP/_$`, `//^NP`, `//NP$`,
	`//S[//_[@lex=saw]]`, `//NP[not(//JJ)]`,
}

// TestSelectParallelEqualsSelect checks byte-identical results (same
// matches, same order) between the serial and the windowed parallel path on
// the full 23-query evaluation matrix, across worker counts.
func TestSelectParallelEqualsSelect(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	selectParallel := func(q *Query) ([]Match, error) {
		res, err := c.Run(context.Background(), Request{Query: q, Parallel: true})
		return res.Matches, err
	}
	for _, workers := range []int{1, 2, 4} {
		c.Configure(WithWorkers(workers))
		for _, eq := range EvalQueries() {
			q := MustCompile(eq.Text)
			serial, err := c.Select(q)
			if err != nil {
				t.Fatalf("Q%d select: %v", eq.ID, err)
			}
			par, err := selectParallel(q)
			if err != nil {
				t.Fatalf("Q%d parallel (w=%d): %v", eq.ID, workers, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("Q%d (w=%d): parallel %d matches, serial %d — or order differs",
					eq.ID, workers, len(par), len(serial))
			}
		}
		// Byte-identity includes the zero-match case: both paths return a
		// non-nil empty slice, so DeepEqual holds without special-casing.
		q := MustCompile(`//NOSUCHTAG`)
		serial, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		par, err := selectParallel(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("zero-match (w=%d): serial %#v vs parallel %#v", workers, serial, par)
		}
	}
}

// TestSelectParallelOracleProperty is the randomized three-way property:
// on corpora of varying seeds and window layouts, a Parallel request, Select
// and the reference tree-walking oracle agree on every axis-coverage query.
func TestSelectParallelOracleProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, err := GenerateCorpus("wsj", 0.001, seed, WithWorkers(int(seed)+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, text := range axisPropertyQueries {
			q := MustCompile(text)
			parRes, err := c.Run(context.Background(), Request{Query: q, Parallel: true})
			if err != nil {
				t.Fatalf("seed %d %s parallel: %v", seed, text, err)
			}
			par := parRes.Matches
			serial, err := c.Select(q)
			if err != nil {
				t.Fatalf("seed %d %s select: %v", seed, text, err)
			}
			oracle, err := c.SelectOracle(q)
			if err != nil {
				t.Fatalf("seed %d %s oracle: %v", seed, text, err)
			}
			if len(par) != len(serial) || len(par) != len(oracle) {
				t.Errorf("seed %d %s: parallel/serial/oracle sizes %d/%d/%d",
					seed, text, len(par), len(serial), len(oracle))
				continue
			}
			for i := range par {
				if par[i] != serial[i] || par[i] != oracle[i] {
					t.Errorf("seed %d %s: match %d differs across evaluators", seed, text, i)
					break
				}
			}
		}
	}
}

func TestSelectParallelAfterAdd(t *testing.T) {
	c := NewCorpus(WithWorkers(2))
	if err := c.AddSentence(`(S (NP I) (VP (V saw) (NP it)))`); err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//NP`)
	n, err := c.CountParallel(q)
	if err != nil || n != 2 {
		t.Fatalf("CountParallel = %d, %v; want 2", n, err)
	}
	if err := c.AddSentence(`(S (NP me) (VP (V ran)))`); err != nil {
		t.Fatal(err)
	}
	n, err = c.CountParallel(q)
	if err != nil || n != 3 {
		t.Errorf("CountParallel after Add = %d, %v; want 3", n, err)
	}
}

// TestSelectParallelMoreWorkersThanTrees: a pool larger than the corpus
// gets one window per tree, with the serial results at every limit.
func TestSelectParallelMoreWorkersThanTrees(t *testing.T) {
	c := figure1Corpus(t)
	for _, s := range []string{`(S (NP a) (VP (V b) (NP c)))`, `(S (NP d))`} {
		if err := c.AddSentence(s); err != nil {
			t.Fatal(err)
		}
	}
	c.Configure(WithWorkers(64))
	for _, text := range []string{`//NP`, `//VP/V-->NP`, `//S{//NP$}`, `//ZZZ`} {
		q := MustCompile(text)
		serial, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int{0, 1, 2} {
			want := serial
			if limit > 0 && limit < len(serial) {
				want = serial[:limit]
			}
			res, err := c.Run(context.Background(), Request{Query: q, Limit: limit, Parallel: true})
			if err != nil || !reflect.DeepEqual(res.Matches, want) {
				t.Errorf("%s limit %d: parallel %d matches (%v), want %d", text, limit, len(res.Matches), err, len(want))
			}
		}
		if n, err := c.CountParallel(q); err != nil || n != len(serial) {
			t.Errorf("%s: CountParallel = %d, %v; want %d", text, n, err, len(serial))
		}
	}
}

func TestSelectParallelEmptyCorpus(t *testing.T) {
	c := NewCorpus()
	res, err := c.Run(context.Background(), Request{Text: `//NP`, Parallel: true})
	if err != nil || res.Matches == nil || len(res.Matches) != 0 {
		t.Errorf("empty corpus: %v, %v; want empty non-nil", res.Matches, err)
	}
}

func TestSelectParallelContextCancelled(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.001, 2, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, Request{Query: MustCompile(`//NP`), Parallel: true}); err == nil {
		t.Error("expected error from cancelled context")
	}
}

// TestSelectTextWithoutCache pins the plan-cache stubs: WithPlanCache is
// accepted and changes nothing, and PlanCacheStats stays zero after text
// requests run.
func TestSelectTextWithoutCache(t *testing.T) {
	c := figure1Corpus(t)
	c.Configure(WithPlanCache(8))
	for i := 0; i < 3; i++ {
		n, err := c.CountText(`//NP`)
		if err != nil || n != 4 {
			t.Fatalf("CountText = %d, %v", n, err)
		}
	}
	if st := c.PlanCacheStats(); st != (CacheStats{}) {
		t.Errorf("PlanCacheStats = %+v, want zero", st)
	}
}

// TestSelectParallelConcurrentUse exercises a built corpus answering
// parallel text requests from many goroutines at once, as a multi-user
// server would: every request compiles and plans its text, so the -race job
// certifies both planning and the windowed evaluation are read-safe.
func TestSelectParallelConcurrentUse(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.001, 4, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	queries := EvalQueries()
	want := make([]int, len(queries))
	for i, eq := range queries {
		if want[i], err = c.CountText(eq.Text); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	done := make(chan error, 12)
	for g := 0; g < 12; g++ {
		go func() {
			for i, eq := range queries {
				res, err := c.Run(ctx, Request{Text: eq.Text, Parallel: true})
				if err == nil && res.Count != want[i] {
					err = fmt.Errorf("Q%d: got %d, want %d", eq.ID, res.Count, want[i])
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 12; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
