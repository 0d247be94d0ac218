package lpath

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5). Corpora are synthetic WSJ/SWB profiles (see internal/corpus);
// the scale defaults to 0.01 of the paper's corpus size and can be raised
// with the LPATH_SCALE environment variable (e.g. LPATH_SCALE=0.1). The
// figure-level experiment logic lives in internal/bench; cmd/lpathbench
// prints the same experiments as paper-style tables.
//
//	Figure 6(a)  BenchmarkFig6aDatasets
//	Figure 6(b)  BenchmarkFig6bTagFrequencies
//	Figure 6(c)  BenchmarkFig6cResultSizes
//	Figure 7     BenchmarkFig7WSJ/Q*/{LPath,TGrep2,CorpusSearch}
//	Figure 8     BenchmarkFig8SWB/Q*/{LPath,TGrep2,CorpusSearch}
//	Figure 9     BenchmarkFig9Scalability/Q*/x*/{LPath,TGrep2,CorpusSearch}
//	Figure 10    BenchmarkFig10Labeling/Q*/{Interval,StartEnd}
//	Ablations    BenchmarkAblation*
//	Axes         BenchmarkAxisTemplates/<axis>/{Count,Limit100}

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"lpath/internal/bench"
	"lpath/internal/corpus"
	"lpath/internal/tree"
)

func benchScale() float64 {
	if s := os.Getenv("LPATH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.01
}

var (
	benchOnce sync.Once
	wsjSys    *bench.Systems
	swbSys    *bench.Systems
)

func systems(b *testing.B) (*bench.Systems, *bench.Systems) {
	b.Helper()
	benchOnce.Do(func() {
		scale := benchScale()
		var err error
		wsjSys, err = bench.BuildSystems(bench.GenerateTrees(corpus.WSJ, scale, 42))
		if err != nil {
			b.Fatal(err)
		}
		swbSys, err = bench.BuildSystems(bench.GenerateTrees(corpus.SWB, scale, 42))
		if err != nil {
			b.Fatal(err)
		}
	})
	if wsjSys == nil || swbSys == nil {
		b.Fatal("benchmark corpora failed to build")
	}
	return wsjSys, swbSys
}

// BenchmarkFig6aDatasets measures the Figure 6(a) dataset statistics pass.
func BenchmarkFig6aDatasets(b *testing.B) {
	wsj, swb := systems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := bench.Fig6a(wsj.Trees, swb.Trees)
		if rows[0].Stats.TreeNodes == 0 {
			b.Fatal("empty stats")
		}
	}
}

// BenchmarkFig6bTagFrequencies measures the tag-frequency ranking pass.
func BenchmarkFig6bTagFrequencies(b *testing.B) {
	wsj, swb := systems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wt, st := bench.Fig6b(wsj.Trees, swb.Trees, 10)
		if len(wt) == 0 || len(st) == 0 {
			b.Fatal("empty rankings")
		}
	}
}

// BenchmarkFig6cResultSizes evaluates all 23 queries on both corpora.
func BenchmarkFig6cResultSizes(b *testing.B) {
	wsj, swb := systems(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig6c(wsj, swb); err != nil {
			b.Fatal(err)
		}
	}
}

// perQuerySystems runs the Figure 7/8 grid: every query on every system.
func perQuerySystems(b *testing.B, s *bench.Systems) {
	for _, id := range s.QueryIDs() {
		id := id
		b.Run(fmt.Sprintf("Q%02d/LPath", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.RunLPath(id); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%02d/TGrep2", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.RunTGrep(id)
			}
		})
		b.Run(fmt.Sprintf("Q%02d/CorpusSearch", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.RunCS(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7WSJ is the Figure 7 grid on the WSJ-profile corpus.
func BenchmarkFig7WSJ(b *testing.B) {
	wsj, _ := systems(b)
	perQuerySystems(b, wsj)
}

// BenchmarkFig8SWB is the Figure 8 grid on the SWB-profile corpus.
func BenchmarkFig8SWB(b *testing.B) {
	_, swb := systems(b)
	perQuerySystems(b, swb)
}

var (
	fig9Once sync.Once
	fig9Sys  map[string]*bench.Systems
)

// fig9Systems replicates the WSJ corpus at the Figure 9 factors.
func fig9Systems(b *testing.B) map[string]*bench.Systems {
	b.Helper()
	fig9Once.Do(func() {
		base := bench.GenerateTrees(corpus.WSJ, benchScale(), 42)
		fig9Sys = map[string]*bench.Systems{}
		for _, f := range []float64{0.5, 1, 2, 4} {
			rep := bench.Replicate(base, f)
			s, err := bench.BuildSystems(rep)
			if err != nil {
				b.Fatal(err)
			}
			fig9Sys[fmt.Sprintf("x%g", f)] = s
		}
	})
	return fig9Sys
}

// BenchmarkFig9Scalability measures query time as the WSJ corpus is
// replicated ×0.5 to ×4 (Figure 9), for the representative queries Q3, Q6
// and Q11.
func BenchmarkFig9Scalability(b *testing.B) {
	sys := fig9Systems(b)
	for _, id := range bench.Fig9Queries {
		for _, size := range []string{"x0.5", "x1", "x2", "x4"} {
			s := sys[size]
			id := id
			b.Run(fmt.Sprintf("Q%02d/%s/LPath", id, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.RunLPath(id); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("Q%02d/%s/TGrep2", id, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = s.RunTGrep(id)
				}
			})
			b.Run(fmt.Sprintf("Q%02d/%s/CorpusSearch", id, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.RunCS(id); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10Labeling compares the interval labeling (LPath engine)
// against the start/end labeling (XPath engine) on the 11 XPath-expressible
// queries (Figure 10).
func BenchmarkFig10Labeling(b *testing.B) {
	wsj, _ := systems(b)
	for _, id := range wsj.QueryIDs() {
		if !wsj.XPathExpressible(id) {
			continue
		}
		id := id
		b.Run(fmt.Sprintf("Q%02d/Interval", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsj.RunLPath(id); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%02d/StartEnd", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsj.RunXPath(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationValueIndex measures the {value, tid, id} secondary index
// contribution on the word-lookup queries (DESIGN.md §5.3).
func BenchmarkAblationValueIndex(b *testing.B) {
	wsj, _ := systems(b)
	for _, id := range []int{1, 11, 12} {
		id := id
		b.Run(fmt.Sprintf("Q%02d/WithIndex", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsj.RunLPath(id); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Q%02d/WithoutIndex", id), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wsj.RunLPathNoValueIndex(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScopeFilter contrasts the scoped query Q4 with its
// unscoped counterpart Q3: scoping is one extra range conjunct, not a
// rewrite (DESIGN.md §5.4).
func BenchmarkAblationScopeFilter(b *testing.B) {
	wsj, _ := systems(b)
	b.Run("Scoped_Q4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wsj.RunLPath(4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Unscoped_Q3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := wsj.RunLPath(3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationJoinOrder contrasts starting the Q16 join from the rare
// tag (RRC) against starting from the frequent side (PP-TMP, via the parent
// axis) — the selectivity-first join-order choice (DESIGN.md §5.5).
func BenchmarkAblationJoinOrder(b *testing.B) {
	wsj, _ := systems(b)
	rare := MustCompile(`//RRC/PP-TMP`)
	freq := MustCompile(`//PP-TMP[\RRC]`)
	c := &Corpus{trees: treeCorpusOf(wsj.Trees), dirty: true}
	if err := c.Build(); err != nil {
		b.Fatal(err)
	}
	b.Run("RareFirst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Count(rare); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FrequentFirst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Count(freq); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationClustering contrasts the clustered name-range scan with a
// full-relation filter for candidate retrieval — the clustering-by-name
// design (DESIGN.md §5.2).
func BenchmarkAblationClustering(b *testing.B) {
	wsj, _ := systems(b)
	store := wsj.Store
	b.Run("ClusteredNameScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if lo, hi, _ := store.NameRange("NP"); hi == lo {
				b.Fatal("no NP rows")
			}
		}
	})
	b.Run("FullRelationFilter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, ri := range store.ElementsByLeft() {
				if store.Row(ri).Name == "NP" {
					n++
				}
			}
			if n == 0 {
				b.Fatal("no NP rows")
			}
		}
	})
}

var (
	parBenchOnce sync.Once
	parBenchCorp *Corpus
)

// parallelBenchCorpus builds one shared WSJ corpus so every sub-benchmark
// varies only the worker count.
func parallelBenchCorpus(b *testing.B) *Corpus {
	b.Helper()
	parBenchOnce.Do(func() {
		c, err := GenerateCorpus("wsj", benchScale(), 42)
		if err != nil {
			return
		}
		if err := c.Build(); err != nil {
			return
		}
		parBenchCorp = c
	})
	if parBenchCorp == nil {
		b.Fatal("parallel benchmark corpus failed to build")
	}
	return parBenchCorp
}

// BenchmarkParallelSelect compares serial Select against a Parallel request
// at increasing worker counts on representative queries.
// Speedup is bounded by physical cores: expect ≥2x at 4 workers on 4+ cores
// and ~1x on a single-core host.
func BenchmarkParallelSelect(b *testing.B) {
	c := parallelBenchCorpus(b)
	queries := map[string]*Query{
		"Q03": MustCompile(`//VP/VB-->NN`),
		"Q18": MustCompile(`//NP/NP/NP/NP/NP`),
		"Q22": MustCompile(`//NP=>NP=>NP`),
	}
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for name, q := range queries {
		q := q
		b.Run(name+"/Serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Select(q); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, w := range workerCounts {
			w := w
			b.Run(fmt.Sprintf("%s/Workers%d", name, w), func(b *testing.B) {
				c.Configure(WithWorkers(w))
				for i := 0; i < b.N; i++ {
					if _, err := c.Run(context.Background(), Request{Query: q, Parallel: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// axisTemplates are the ten serve_distinct query templates of benchmark/, one
// per axis shape, each filled with two node tests.
var axisTemplates = []struct{ name, text string }{
	{"child", "//%s/%s"},
	{"descendant", "//%s//%s"},
	{"immediate-following", "//%s->%s"},
	{"following", "//%s-->%s"},
	{"immediate-following-sibling", "//%s=>%s"},
	{"following-sibling", "//%s==>%s"},
	{"scoped-right-aligned-child", "//%s{/%s$}"},
	{"scoped-left-aligned-descendant", "//%s{//^%s}"},
	{"descendant-filter", "//%s[//%s]"},
	{"negated-descendant-filter", "//%s[not(//%s)]"},
}

// BenchmarkAxisTemplates runs each serve_distinct template over every pair
// of the 14 most frequent tags (196 texts) on a scale-0.05 WSJ corpus: one
// op is the Count, or the first-100-match SelectLimit, of all 196 texts. It
// is the per-axis yardstick for the run-time choice between the bitmap step
// kernels and per-binding probes.
func BenchmarkAxisTemplates(b *testing.B) {
	c, err := GenerateCorpus("wsj", 0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Build(); err != nil {
		b.Fatal(err)
	}
	tags := topTags(c, 14)
	for _, tpl := range axisTemplates {
		var qs []*Query
		for _, a := range tags {
			for _, t := range tags {
				qs = append(qs, MustCompile(fmt.Sprintf(tpl.text, a, t)))
			}
		}
		b.Run(tpl.name+"/Count", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if _, err := c.Count(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(tpl.name+"/Limit100", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if _, err := c.SelectLimit(q, 100); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkBuildStore measures index construction (the offline cost of the
// labeling scheme).
func BenchmarkBuildStore(b *testing.B) {
	trees := bench.GenerateTrees(corpus.WSJ, benchScale(), 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &Corpus{trees: treeCorpusOf(trees), dirty: true}
		if err := c.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func treeCorpusOf(tc *tree.Corpus) *tree.Corpus { return tc }
