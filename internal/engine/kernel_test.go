package engine

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
	"lpath/internal/treeval"
)

// Differential tests for the bitmap step kernels: with the kernels pinned on
// (every eligible step walks its posting) and pinned off (every step
// probes), results must agree with the tree-walking oracle and, ordered,
// with each other.

// kernelQueries exercises the shapes the posting walks must get right:
// same-name vertical chains (nested subtree marks under laminar nesting,
// unary spines), or-self forms, adjacency chains (edge sets), following and
// preceding (one extreme edge per tree), rooted pipelines, scoped alignment
// and predicates on kernel steps.
var kernelQueries = []string{
	// Same-name vertical chains, including unary spines.
	`//NP/NP`, `//NP//NP`, `//NP/NP/NP`, `//NP//NP//NP`,
	`//NP/NP/NP/NP/NP`, `//NP//NP/NP`,
	`//NP/descendant-or-self::NP`, `//NP/descendant-or-self::NP/NP`,
	`//NP//^NP`, `//NP//NP$`, `//NP/descendant-or-self::^NP$`,
	// Adjacency chains.
	`//Det->N`, `//V->NP->PP`, `//Det-->N`, `//V-->N`, `//N<-Det`, `//N<--Det`,
	`//NP=>NP`, `//NP=>NP=>NP`, `//PP=>_`, `//V==>NP`, `//VP=>_=>_`,
	// Following and preceding with and without self.
	`//Det/following::N`, `//N/following-or-self::N`, `//N/preceding-or-self::N`,
	`//Det/following::NP//N`, `//N/following-or-self::^N`, `//N/preceding-or-self::N$`,
	// Rooted pipelines.
	`/S/NP/N`, `/S//NP/NP`, `/NP/NP`, `/S-->_`,
	// Scoped alignment over kernel-shaped tails.
	`//VP{/NP$}`, `//S{//NP/NP}`, `//VP{//^NP=>NP}`, `//S{//NP=>NP$}`,
	`//S{//NP-->N$}`, `//S{//^Det->N}`,
	// Predicates on kernel steps.
	`//NP[@lex]/NP`, `//NP//N[@lex=dog]`, `//_[@lex=the]->_[@lex=old]`,
	`//S//NP->PP//N`, `//NP-->N[not(//Det)]`,
	// Scoped frontiers, walked one scope at a time: chained horizontal
	// steps after the entry, a predicate on a scoped step, or-self forms,
	// and nested scopes in which one context sits in several scopes.
	`//S{//Det->N->_}`, `//VP{/V-->N-->_}`, `//S{//NP-->N[//^_]}`,
	`//S{//NP->_<-_}`, `//NP{//Det/following-or-self::_$}`,
	`//S{//N/preceding-or-self::^_}`, `//S{//NP/descendant-or-self::NP$}`,
	`//NP{//NP->N}`, `//S{//VP{//V-->N}}`, `//NP{//NP{//N<--_}}`,
	// Immediately preceding, answered from the child lists: from a first
	// child whose preceding sibling hangs off an ancestor (the branchy
	// tree's inner NPs and Dets; on the spine the climb reaches the root),
	// from a tree's first leaf (no answer), named and wildcard, inside a
	// scope, and as filters, which build their satisfiers along <- and <--.
	`//NP/NP<-_`, `//Det<-_`, `//Det<-N`, `//N<-NP`,
	`/NP/NP/NP/NP/NP/NP/N<-_`, `//_[@lex=I]<-_`,
	`//S{//N<-_}`, `//N[<-Det]`, `//NP[->_]`, `//N[<--_]`,
	// The sibling kernels: named and wildcard, over a scoped frontier, and
	// from only children (the unary chains' N and inner NP), whose parent
	// has no other child.
	`//NP==>PP`, `//N<==Det`, `//_==>_`, `//_<==N`, `//VP{//NP==>PP}`,
	`//S{//Det<==_}`, `//N==>_`, `//NP/NP<==_`,
	// Filters merged against their posting: unary chains whose rows share
	// a left edge, or-self, a wildcard, negated, after a kernel step, and
	// a nested filter whose climb level is not in document order.
	`//NP[//NP]`, `//NP[not(//NP)]`, `//NP[//N]`, `//S[//NP]`, `//NP[//_]`,
	`//N[not(//_)]`, `//NP[/descendant-or-self::NP]`, `//NP/NP[not(//Det)]`,
	`//S[//NP[//Det]/N]`, `//_[//NP[not(//N)]/_]`,
	// Value-driven steps, whose candidates are the value posting on every
	// side: under the kernel axes, as a scope's entry and a later scoped
	// step, aligned, or-self, counted through a scope, and from one-binding
	// frontiers (a filter evaluated forward from each candidate).
	`//NP//_[@lex=dog]`, `//VP/_[@lex=saw]`, `//NP->_[@lex=dog]`, `//NP-->_[@lex=dog]`,
	`//VP{//_[@lex=dog]}`, `//S{//NP/_[@lex=dog]}`, `//S{//_[@lex=the]->_[@lex=man]}`,
	`//S{//^_[@lex=the]}`, `//NP//_$[@lex=dog]`, `//NP/descendant-or-self::_[@lex=dog]`,
	`//S[count({//_[@lex=man]})=1]`, `//NP[//_[@lex=dog]]`, `//NP[->_[@lex=saw]]`,
	`/S//N[@lex=dog]`, `//N[@lex=dog]`, `//_[@lex=man]`,
}

// nestedCorpus builds trees that stress laminar same-name nesting: an NP
// spine alternating identical-span unary links (same left and right, depth
// tiebreak) with left-aligned widened links (same left, distinct rights —
// the shape whose clustered order is not document order), a
// branching same-name tree with adjacent same-name siblings, and a copy of
// the spine in a second tree to cross tree boundaries mid-walk.
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

// unaryCorpus holds same-name unary chains, (S (NP (NP (NP x))) ...): the
// clustered order of such a chain is not its document order, so a walk that
// skipped nested frontier rows with a "covered up to" cursor would return
// wrong answers here. A one-node tree sits between them, so an edge summary
// indexed past a tree's own positions would spill into its neighbour.
func unaryCorpus() *tree.Corpus {
	chain := func(depth int, word string) *tree.Node {
		n := &tree.Node{Tag: "N", Word: word}
		for i := 0; i < depth; i++ {
			np := &tree.Node{Tag: "NP"}
			np.AddChild(n)
			n = np
		}
		return n
	}
	c := tree.NewCorpus()
	for _, depth := range []int{3, 1, 4} {
		s := &tree.Node{Tag: "S"}
		s.AddChild(chain(depth, "dog"))
		vp := &tree.Node{Tag: "VP"}
		vp.AddChild(&tree.Node{Tag: "V", Word: "saw"})
		vp.AddChild(chain(depth-1, "man"))
		s.AddChild(vp)
		s.AddChild(chain(2, "today"))
		c.AddRoot(s)
		c.AddRoot(&tree.Node{Tag: "NP", Word: "I"})
	}
	return c
}

// kernelAxes are the axes the unscoped step kernel walks, as written in a
// query between two node tests.
var kernelAxes = []string{
	"/", "=>", "//", "/descendant-or-self::",
	"-->", "/following-or-self::", "<--", "/preceding-or-self::",
	"->", "<-", "==>", "<==",
}

// kernelAxisQueries crosses every kernel axis with the step shapes the
// kernel distinguishes: unscoped, inside a subtree scope (the entry step,
// a later one, two chained, one under nested same-name scopes), left- and
// right-aligned, with a predicate, under count() through a scope, whose
// result counts (row, scope) pairs, after a step whose output is not in
// document order, and value-driven (its candidates the value posting).
func kernelAxisQueries() []string {
	forms := []string{
		`//NP%sN`, `//_%sNP`, `//NP%sNP`,
		`//S{%sNP}`, `//S{//NP%sN}`, `//VP{/_%s_}`,
		`//NP%s^N`, `//NP%sN$`, `//S{//NP%s^_$}`, `//S{//_%s_$}`,
		`//NP%sN[//_]`, `//S[count({//NP%s_})>=2]`, `//S[count(//_%sN)=3]`,
		// Scoped steps after the entry: nested same-name scopes (one
		// context in several scopes), chained, with a predicate.
		`//NP{//NP%sN}`, `//S{//VP{//V%sN}}`, `//S{//_%s_%s_}`, `//S{//NP%sN[//^_]}`,
		// An ancestor probe hands the kernel a frontier out of document
		// order.
		`//N\\_%s_`,
		// Value-driven steps: unscoped, a scope's entry and a later scoped
		// step, aligned, counted through a scope, and from one binding.
		`//NP%s_[@lex=dog]`, `//VP%s_[@lex=saw]`, `//S{%s_[@lex=the]}`, `//S{//NP%s_[@lex=dog]}`,
		`//NP%s^_[@lex=man]`, `//S{//_%s_$[@lex=dog]}`, `//S[count({//NP%s_[@lex=dog]})>=1]`,
		`//NP[%s_[@lex=dog]]`,
	}
	var qs []string
	for _, ax := range kernelAxes {
		for _, f := range forms {
			qs = append(qs, strings.ReplaceAll(f, "%s", ax))
		}
	}
	return qs
}

// The cross-validation and ordered-identity tests below keep the names,
// corpora and seeds of the differential tests of the merge and twig sweeps
// that the step kernels replaced: the Merge tests run over Figure 1 and the
// low-numbered random seeds, the Twig tests over the nested and unary
// corpora and the high-numbered seeds. Every query set includes the kernel
// shapes, so each test holds the kernels to the oracle (or to probe-only)
// on its own corpora.

// allKernelQueries is the paper corpus plus every kernel shape.
func allKernelQueries() []string {
	return append(append(append([]string{}, queryCorpus...), kernelQueries...), kernelAxisQueries()...)
}

func TestCrossValidateMergeAlways(t *testing.T) {
	queries := allKernelQueries()
	fig := tree.NewCorpus()
	fig.Add(tree.Figure1())
	crossValidate(t, fig, queries, WithBitmapAlways())
	for seed := int64(21); seed <= 26; seed++ {
		crossValidate(t, randomCorpus(seed, 3), queries, WithBitmapAlways())
	}
}

func TestCrossValidateTwigAlways(t *testing.T) {
	queries := allKernelQueries()
	crossValidate(t, nestedCorpus(), queries, WithBitmapAlways())
	crossValidate(t, unaryCorpus(), queries, WithBitmapAlways())
	for seed := int64(61); seed <= 66; seed++ {
		crossValidate(t, randomCorpus(seed, 3), queries, WithBitmapAlways())
	}
}

func TestCrossValidateMergeOff(t *testing.T) {
	queries := append(append([]string{}, queryCorpus...), kernelQueries...)
	fig := tree.NewCorpus()
	fig.Add(tree.Figure1())
	crossValidate(t, fig, queries, WithoutBitmap())
	for seed := int64(41); seed <= 44; seed++ {
		crossValidate(t, randomCorpus(seed, 3), queries, WithoutBitmap())
	}
}

func TestCrossValidateTwigOff(t *testing.T) {
	queries := append(append([]string{}, queryCorpus...), kernelQueries...)
	crossValidate(t, nestedCorpus(), queries, WithoutBitmap())
	for seed := int64(71); seed <= 74; seed++ {
		crossValidate(t, randomCorpus(seed, 3), queries, WithoutBitmap())
	}
}

// TestMergeEqualsProbeOrdered and TestTwigEqualsProbeOrdered hold the
// kernel variants to the probe-only baseline, ordered, over their corpora.
func TestMergeEqualsProbeOrdered(t *testing.T) {
	var corpora []*tree.Corpus
	for seed := int64(31); seed <= 36; seed++ {
		corpora = append(corpora, randomCorpus(seed, 4))
	}
	kernelEqualsProbeOrdered(t, corpora)
}

func TestTwigEqualsProbeOrdered(t *testing.T) {
	corpora := []*tree.Corpus{nestedCorpus(), unaryCorpus()}
	for seed := int64(81); seed <= 85; seed++ {
		corpora = append(corpora, randomCorpus(seed, 4))
	}
	kernelEqualsProbeOrdered(t, corpora)
}

// kernelEqualsProbeOrdered builds engines over one shared store per corpus —
// planner-driven, kernel-forced, and the kernel-forced engine with each
// filter side forced — and requires byte-identical ordered results against
// the probe-only baseline on every query. This is stricter than the oracle
// cross-validation (which compares multisets): the sides must agree on
// result order too.
func kernelEqualsProbeOrdered(t *testing.T, corpora []*tree.Corpus) {
	t.Helper()
	queries := append(append([]string{}, queryCorpus...), kernelQueries...)
	for ci, c := range corpora {
		s := relstore.Build(c, relstore.SchemeInterval)
		probe, err := New(s, WithoutBitmap())
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
		add("bitmap-always", WithBitmapAlways())
		add("bitmap-filter-sets", WithBitmapAlways(), WithFilterPath(true))
		add("bitmap-filter-forward", WithBitmapAlways(), WithFilterPath(false))
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

// wideCorpus holds one tree too wide for the reach stamp's 16-bit edges:
// an M after 70 000 leaves, then an N, and a second M in a narrow tree.
func wideCorpus() *tree.Corpus {
	wide := &tree.Node{Tag: "S"}
	for range 70_000 {
		wide.AddChild(&tree.Node{Tag: "N", Word: "x"})
	}
	wide.AddChild(&tree.Node{Tag: "M", Word: "m"})
	wide.AddChild(&tree.Node{Tag: "N", Word: "y"})
	narrow := &tree.Node{Tag: "S"}
	narrow.AddChild(&tree.Node{Tag: "N", Word: "x"})
	narrow.AddChild(&tree.Node{Tag: "M", Word: "m"})
	c := tree.NewCorpus()
	c.AddRoot(wide)
	c.AddRoot(narrow)
	return c
}

// TestKernelAxesMatchProbe holds every kernel axis, in every step shape the
// kernel distinguishes, to the probe-only engine: the kernel-forced result
// equals the probe result in order, in full and through stream windows with
// limits 1 and 7 and one short of the whole answer (a prefix crossing the
// first window), and Count equals the length of Select. The count() forms
// pin the (row, scope) multiplicity a scoped subpath reports. The wide
// corpus sends the sibling kernels' too-wide edges back to the probes.
func TestKernelAxesMatchProbe(t *testing.T) {
	corpora := []*tree.Corpus{unaryCorpus(), nestedCorpus()}
	for seed := int64(91); seed <= 94; seed++ {
		corpora = append(corpora, randomCorpus(seed, 40))
	}
	testKernelMatchesProbe(t, corpora, append(kernelAxisQueries(), kernelQueries...))
	testKernelMatchesProbe(t, []*tree.Corpus{wideCorpus()}, []string{`//M==>N`, `//M<==N`, `//S{//M<==_}`, `//S/M==>_`})
}

func testKernelMatchesProbe(t *testing.T, corpora []*tree.Corpus, queries []string) {
	t.Helper()
	ctx := context.Background()
	for ci, c := range corpora {
		s := relstore.Build(c, relstore.SchemeInterval)
		probe, err := New(s, WithoutBitmap())
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := New(s, WithBitmapAlways())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			p := lpath.MustParse(q)
			want, err := probe.Eval(p)
			if err != nil {
				t.Fatalf("corpus %d probe %q: %v", ci, q, err)
			}
			got, err := kernel.Eval(p)
			if err != nil {
				t.Fatalf("corpus %d kernel %q: %v", ci, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("corpus %d %q: kernel %d matches, probe %d (or order differs)", ci, q, len(got), len(want))
				continue
			}
			n, err := kernel.Count(p)
			if err != nil || n != len(got) {
				t.Errorf("corpus %d %q: Count = %d, %v; Select has %d", ci, q, n, err, len(got))
			}
			for _, k := range []int{1, 7, max(len(want)-1, 1)} {
				lim, err := kernel.EvalPlanLimitContext(ctx, p, kernel.Plan(p), k)
				if err != nil {
					t.Fatalf("corpus %d kernel %q limit %d: %v", ci, q, k, err)
				}
				if !reflect.DeepEqual(lim, want[:min(k, len(want))]) {
					t.Errorf("corpus %d %q limit %d: %d matches differ from the probe prefix", ci, q, k, len(lim))
				}
			}
		}
	}
}

// TestOrSelfAxisOrder pins the result order of every or-self long-form axis:
// matches come back sorted by (tree, document order) with no duplicates,
// planned, with the kernels forced and probe-only, and agree with the oracle
// as a multiset. (The grammar defines six or-self axes: descendant-,
// ancestor-, following-, preceding-, following-sibling- and
// preceding-sibling-or-self.)
func TestOrSelfAxisOrder(t *testing.T) {
	queries := []string{
		`//NP/descendant-or-self::_`,
		`//Adj\ancestor-or-self::_`,
		`//N/following-or-self::_`,
		`//N/preceding-or-self::_`,
		`//V/following-sibling-or-self::_`,
		`//V/preceding-sibling-or-self::_`,
		// Scoped forms: the self row must still land in document order.
		`//VP{/V/following-sibling-or-self::_}`,
		`//VP{//N/preceding-or-self::_}`,
	}
	for seed := int64(51); seed <= 56; seed++ {
		c := randomCorpus(seed, 3)
		s := relstore.Build(c, relstore.SchemeInterval)
		docIdx := documentOrder(c)
		oracle := treeval.NewCorpus(c)
		for name, opts := range map[string][]Option{
			"auto": nil, "bitmap-always": {WithBitmapAlways()}, "probe-only": {WithoutBitmap()},
		} {
			e, err := New(s, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				p := lpath.MustParse(q)
				got, err := e.Eval(p)
				if err != nil {
					t.Fatalf("seed %d %s %q: %v", seed, name, q, err)
				}
				for i := 1; i < len(got); i++ {
					a, b := got[i-1], got[i]
					if a.TreeID > b.TreeID ||
						(a.TreeID == b.TreeID && docIdx[a.Node] >= docIdx[b.Node]) {
						t.Errorf("seed %d %s: %q out of document order (or duplicate) at %d: %s then %s",
							seed, name, q, i, sig(a.Node), sig(b.Node))
						break
					}
				}
				want, err := oracle.Eval(p)
				if err != nil {
					t.Fatalf("seed %d oracle %q: %v", seed, q, err)
				}
				if !sameMatches(got, want) {
					t.Errorf("seed %d %s: %q disagrees with oracle (%d vs %d)",
						seed, name, q, len(got), len(want))
				}
			}
		}
	}
}

// documentOrder maps every node of the corpus to its preorder index within
// its tree.
func documentOrder(c *tree.Corpus) map[*tree.Node]int {
	idx := map[*tree.Node]int{}
	for _, tr := range c.Trees {
		i := 0
		var walk func(n *tree.Node)
		walk = func(n *tree.Node) {
			idx[n] = i
			i++
			for _, k := range n.Children {
				walk(k)
			}
		}
		walk(tr.Root)
	}
	return idx
}

// TestExplainScopedSide pins the EXPLAIN side of steps after a scope's
// entry: Q4's -->NN and Q7's ->NP and ->PP$ report the side of their
// per-scope choice that ran.
func TestExplainScopedSide(t *testing.T) {
	e := cancelEngine(t, cancelCorpus(t))
	for _, tt := range []struct{ query, step string }{
		{`//VP{/VB-->NN}`, "s2. -->NN"},
		{`//VP[{//^VB->NP->PP$}]`, "ps2. ->NP"},
		{`//VP[{//^VB->NP->PP$}]`, "ps3. ->PP$"},
	} {
		p := lpath.MustParse(tt.query)
		res, err := e.Run(context.Background(), p, e.Plan(p), Spec{Mode: ModeExplain})
		report := res.Explain
		if err != nil {
			t.Fatalf("%s: %v", tt.query, err)
		}
		found := false
		for _, line := range strings.Split(report, "\n") {
			if strings.Contains(line, tt.step+" ") {
				found = true
				if !strings.HasSuffix(line, "[kernel]") && !strings.HasSuffix(line, "[kernel+probe]") {
					t.Errorf("%s: step %q reports no kernel side:\n%s", tt.query, tt.step, line)
				}
			}
		}
		if !found {
			t.Errorf("%s: no step %q in\n%s", tt.query, tt.step, report)
		}
	}
}
