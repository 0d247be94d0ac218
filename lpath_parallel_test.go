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
// matches, same order) between the serial and the sharded parallel path on
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
		c.Configure(WithWorkers(workers), WithShards(4))
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
// on corpora of varying seeds and shard layouts, a Parallel request, Select
// and the reference tree-walking oracle agree on every axis-coverage query.
func TestSelectParallelOracleProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		c, err := GenerateCorpus("wsj", 0.001, seed, WithShards(int(seed)+1), WithWorkers(3))
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

func TestSelectParallelAddInvalidatesShards(t *testing.T) {
	c := NewCorpus(WithShards(2))
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

func TestSelectParallelEmptyCorpus(t *testing.T) {
	c := NewCorpus()
	res, err := c.Run(context.Background(), Request{Text: `//NP`, Parallel: true})
	if err != nil || res.Matches == nil || len(res.Matches) != 0 {
		t.Errorf("empty corpus: %v, %v; want empty non-nil", res.Matches, err)
	}
}

func TestSelectParallelContextCancelled(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.001, 2, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(ctx, Request{Query: MustCompile(`//NP`), Parallel: true}); err == nil {
		t.Error("expected error from cancelled context")
	}
}

func TestPlanCacheThroughPublicAPI(t *testing.T) {
	c := figure1Corpus(t)
	c.Configure(WithPlanCache(8))
	for i := 0; i < 3; i++ {
		n, err := c.CountText(`//NP`)
		if err != nil || n != 4 {
			t.Fatalf("CountText = %d, %v", n, err)
		}
	}
	st := c.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 2 || st.Len != 1 {
		t.Errorf("stats after 3 identical queries = %+v", st)
	}
	if _, err := c.Run(context.Background(), Request{Text: `//NP[`}); err == nil {
		t.Error("expected compile error through Request.Text")
	}
	if got := c.PlanCacheStats().Len; got != 1 {
		t.Errorf("failed compile cached: Len = %d", got)
	}
	// Cached plans must produce identical results to fresh ones.
	fresh, _ := c.Select(MustCompile(`//NP`))
	cached, err := c.Run(context.Background(), Request{Text: `//NP`})
	if err != nil || !reflect.DeepEqual(fresh, cached.Matches) {
		t.Errorf("cached plan results differ: %v", err)
	}
	// A Parallel text request reuses the cached parse (a hit, no new entry)
	// and plans on the shards.
	before := c.PlanCacheStats()
	par, err := c.Run(context.Background(), Request{Text: `//NP`, Parallel: true})
	if err != nil || !reflect.DeepEqual(fresh, par.Matches) {
		t.Errorf("parallel text results differ: %v", err)
	}
	if st := c.PlanCacheStats(); st.Hits != before.Hits+1 || st.Len != 1 {
		t.Errorf("parallel text request: stats %+v -> %+v, want one more hit", before, st)
	}
}

func TestSelectTextWithoutCache(t *testing.T) {
	c := figure1Corpus(t)
	n, err := c.CountText(`//NP`)
	if err != nil || n != 4 {
		t.Fatalf("CountText without cache = %d, %v", n, err)
	}
	if st := c.PlanCacheStats(); st != (CacheStats{}) {
		t.Errorf("no-cache stats = %+v, want zero", st)
	}
}

// TestSelectParallelConcurrentUse exercises a built corpus answering
// parallel queries from many goroutines at once, as a multi-user server
// would; the -race job certifies the shard engines are read-safe.
func TestSelectParallelConcurrentUse(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.001, 4, WithShards(3), WithWorkers(2), WithPlanCache(16))
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//VP/VB-->NN`)
	want, err := c.CountParallel(q)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 12)
	for g := 0; g < 12; g++ {
		go func() {
			n, err := c.CountParallel(q)
			if err == nil && n != want {
				err = fmt.Errorf("got %d, want %d", n, want)
			}
			done <- err
		}()
	}
	for i := 0; i < 12; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}
