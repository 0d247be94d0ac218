package engine

import (
	"reflect"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// chainCorpus builds n trees, each a unary chain of depth deep whose every
// node is tagged W and whose single leaf carries the given word — a corpus
// with ~deep element rows per unit of leaf span, far from the treebank-
// typical density of 2.
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

// TestValueCrossoverFromStatistics: a step whose equality's posting is
// shorter than its name range takes its candidates from the posting on
// every side, whatever the context's span. On a skewed corpus — deep unary
// chains, density ≈ 10 — the planned engine, with its value drive on the
// root, the probes and the kernels, agrees exactly with the unplanned one,
// which has no value drive.
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
	p := lpath.MustParse(`//W//W[@lex=rare]`)
	if sp := e.Plan(p).Step(&p.Steps[1]); sp == nil || sp.Value != "rare" || len(sp.Exec) != 0 {
		t.Fatalf("//W[@lex=rare] after //W is not value-driven: %+v", sp)
	}

	noplan, err := New(s, WithoutPlanner())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`//W[@lex=rare]`, `//W[@lex=common]`, `//W//W[@lex=rare]`, `//W/W[@lex=rare]`, `//W{//W[@lex=rare]}`} {
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
