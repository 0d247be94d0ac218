package engine

import (
	"reflect"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// Differential tests for the holistic twig executor: with the executor pinned
// on (every maximal run sweeps) and pinned off (planner falls back to
// merge/probe), results must agree with the tree-walking oracle and, ordered,
// with the probe-only engine.

// twigQueries exercises the shapes the twig sweep must get right: same-name
// vertical chains (stack discipline under laminar nesting), or-self support,
// adjacency chains (the pending-edge stack), following (running minimum
// right), rooted pipelines, scoped alignment residuals, and pushed-down
// attribute predicates.
var twigQueries = []string{
	// Same-name vertical chains, including unary spines.
	`//NP/NP`, `//NP//NP`, `//NP/NP/NP`, `//NP//NP//NP`,
	`//NP/NP/NP/NP/NP`, `//NP//NP/NP`,
	`//NP/descendant-or-self::NP`, `//NP/descendant-or-self::NP/NP`,
	// Adjacency chains.
	`//Det->N`, `//V->NP->PP`, `//Det-->N`, `//V-->N`,
	`//NP=>NP`, `//NP=>NP=>NP`, `//PP=>_`, `//V==>NP`, `//VP=>_=>_`,
	// Following with and without self.
	`//Det/following::N`, `//N/following-or-self::N`,
	`//Det/following::NP//N`,
	// Rooted pipelines (root mode, including the child residual).
	`/S/NP/N`, `/S//NP/NP`, `/NP/NP`,
	// Scoped alignment over twig-shaped tails.
	`//VP{/NP$}`, `//S{//NP/NP}`, `//VP{//^NP=>NP}`, `//S{//NP=>NP$}`,
	// Predicate pushdown inside a run.
	`//NP[@lex]/NP`, `//NP//N[@lex=dog]`, `//_[@lex=the]->_[@lex=old]`,
	`//S//NP->PP//N`,
}

// nestedCorpus builds trees that stress laminar same-name nesting: an NP
// spine alternating identical-span unary links (same left and right, depth
// tiebreak) with left-aligned widened links (same left, distinct rights —
// the shape that forces the per-name document-order permutation), a
// branching same-name tree with adjacent same-name siblings, and a copy of
// the spine in a second tree to cross tree boundaries mid-sweep.
func nestedCorpus() *tree.Corpus {
	spine := func() *tree.Node {
		root := &tree.Node{Tag: "NP"}
		cur := root
		for i := 0; i < 5; i++ {
			k := &tree.Node{Tag: "NP"}
			cur.AddChild(k)
			if i%2 == 0 {
				cur.AddChild(&tree.Node{Tag: "N", Word: "man"})
			}
			cur = k
		}
		cur.AddChild(&tree.Node{Tag: "N", Word: "dog"})
		return root
	}
	branchy := func() *tree.Node {
		root := &tree.Node{Tag: "S"}
		for i := 0; i < 3; i++ {
			np := &tree.Node{Tag: "NP"}
			inner := &tree.Node{Tag: "NP"}
			inner.AddChild(&tree.Node{Tag: "Det", Word: "the"})
			inner.AddChild(&tree.Node{Tag: "N", Word: "man"})
			np.AddChild(inner)
			np.AddChild(&tree.Node{Tag: "N", Word: "dog"})
			root.AddChild(np)
		}
		vp := &tree.Node{Tag: "VP"}
		vp.AddChild(&tree.Node{Tag: "V", Word: "saw"})
		np := &tree.Node{Tag: "NP"}
		np.AddChild(&tree.Node{Tag: "N", Word: "dog"})
		vp.AddChild(np)
		root.AddChild(vp)
		return root
	}
	c := tree.NewCorpus()
	c.AddRoot(spine())
	c.AddRoot(branchy())
	c.AddRoot(spine())
	c.Add(tree.Figure1())
	return c
}

func TestCrossValidateTwigAlways(t *testing.T) {
	queries := append(append([]string{}, queryCorpus...), twigQueries...)
	crossValidate(t, nestedCorpus(), queries, WithTwigAlways())
	fig := tree.NewCorpus()
	fig.Add(tree.Figure1())
	crossValidate(t, fig, queries, WithTwigAlways())
	for seed := int64(61); seed <= 66; seed++ {
		crossValidate(t, randomCorpus(seed, 3), queries, WithTwigAlways())
	}
}

func TestCrossValidateTwigOff(t *testing.T) {
	queries := append(append([]string{}, queryCorpus...), twigQueries...)
	crossValidate(t, nestedCorpus(), queries, WithoutTwig())
	for seed := int64(71); seed <= 74; seed++ {
		crossValidate(t, randomCorpus(seed, 3), queries, WithoutTwig())
	}
}

// TestTwigEqualsProbeOrdered builds engines over one shared store —
// planner-driven, twig-forced, twig-off, twig-forced with merge also forced
// for the residual steps, and the bitmap kernels forced and off — and
// requires byte-identical ordered results against the probe-only baseline on
// every query.
func TestTwigEqualsProbeOrdered(t *testing.T) {
	queries := append(append([]string{}, queryCorpus...), twigQueries...)
	corpora := []*tree.Corpus{nestedCorpus()}
	for seed := int64(81); seed <= 85; seed++ {
		corpora = append(corpora, randomCorpus(seed, 4))
	}
	for ci, c := range corpora {
		s := relstore.Build(c, relstore.SchemeInterval)
		probe, err := New(s, WithoutMerge(), WithoutTwig())
		if err != nil {
			t.Fatal(err)
		}
		variants := map[string]*Engine{}
		add := func(name string, opts ...Option) {
			e, err := New(s, opts...)
			if err != nil {
				t.Fatal(err)
			}
			variants[name] = e
		}
		add("auto")
		add("twig-always", WithTwigAlways())
		add("twig-off", WithoutTwig())
		add("twig-and-merge", WithTwigAlways(), WithMergeAlways())
		add("bitmap-always", WithBitmapAlways())
		add("bitmap-off", WithoutBitmap())
		for _, q := range queries {
			p := lpath.MustParse(q)
			want, err := probe.Eval(p)
			if err != nil {
				t.Fatalf("corpus %d probe %q: %v", ci, q, err)
			}
			for name, e := range variants {
				got, err := e.Eval(p)
				if err != nil {
					t.Fatalf("corpus %d %s %q: %v", ci, name, q, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("corpus %d: %s and probe-only disagree on %q (%d vs %d matches, or order)",
						ci, name, q, len(got), len(want))
				}
			}
		}
	}
}
