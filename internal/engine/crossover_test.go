package engine

import (
	"math"
	"reflect"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// chainCorpus builds n trees, each a unary chain of depth deep whose every
// node is tagged W and whose single leaf carries the given word — a corpus
// with ~deep element rows per unit of leaf span, far from the treebank-
// typical density of 2 the unplanned engine assumes.
func chainCorpus(n, deep int, word func(i int) string) *tree.Corpus {
	c := tree.NewCorpus()
	for i := 0; i < n; i++ {
		leaf := &tree.Node{Tag: "W", Word: word(i)}
		root := leaf
		for d := 1; d < deep; d++ {
			root = &tree.Node{Tag: "W", Children: []*tree.Node{root}}
			root.Children[0].Parent = root
		}
		c.AddRoot(root)
	}
	return c
}

// TestValueCrossoverFromStatistics pins the regression for the hardcoded
// value-index crossover: the unplanned engine compares the posting-list size
// against 2×span (the treebank-typical nodes-per-span density), while a
// planned step carries the corpus's measured density as StepPlan.Bias. On a
// skewed corpus — deep unary chains, density ≈ 10 — the two thresholds make
// opposite decisions in the band (2×span, density×span), and the planned
// decision is the one that matches the corpus.
func TestValueCrossoverFromStatistics(t *testing.T) {
	const deep = 10
	c := chainCorpus(20, deep, func(i int) string {
		if i < 5 {
			return "rare"
		}
		return "common"
	})
	s := relstore.Build(c, relstore.SchemeInterval)
	e, err := New(s)
	if err != nil {
		t.Fatal(err)
	}

	density := float64(s.NameCount("W")) / float64(s.Parts().Stats.TotalSpan)
	if math.Abs(density-deep) > 1e-9 {
		t.Fatalf("corpus density = %g, want %d", density, deep)
	}

	p := lpath.MustParse(`//W[@lex=rare]`)
	plan := e.Plan(p)
	if plan == nil {
		t.Fatal("no plan")
	}
	sp := plan.Step(&p.Steps[0])
	if sp == nil {
		t.Fatal("no step plan for //W")
	}
	if math.Abs(sp.Bias-density) > 1e-9 {
		t.Fatalf("planned Bias = %g, want the measured density %g", sp.Bias, density)
	}

	// Context: one chain's root, span 1. 5 postings lie in the band
	// (2×span, density×span): the legacy constant refuses the value index,
	// the statistics accept it.
	step := &p.Steps[0]
	b := bind{row: s.Roots()[0], scope: noRow}
	if e.valueWorthwhile(step, b, 5, nil) {
		t.Error("legacy threshold accepted 5 postings for span 1 (2×span = 2)")
	}
	if !e.valueWorthwhile(step, b, 5, sp) {
		t.Error("statistics threshold rejected 5 postings for span 1 (density×span = 10)")
	}
	// Outside the band both agree.
	if e.valueWorthwhile(step, b, deep+1, sp) {
		t.Error("statistics threshold accepted more postings than the context holds rows")
	}
	if !e.valueWorthwhile(step, b, 1, nil) || !e.valueWorthwhile(step, b, 1, sp) {
		t.Error("a single posting must win under either threshold")
	}

	// The decision is an access path, never a semantic choice: planned and
	// unplanned evaluation agree exactly on the skewed corpus.
	noplan, err := New(s, WithoutPlanner())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//W[@lex=rare]`, `//W[@lex=common]`, `//W//W[@lex=rare]`} {
		fast, err := e.Eval(lpath.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		slow, err := noplan.Eval(lpath.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%s: planned %d matches, unplanned %d", q, len(fast), len(slow))
		}
	}
}
