package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
	"lpath/internal/treeval"
)

func figureEngine(t *testing.T, opts ...Option) (*Engine, *tree.Corpus) {
	t.Helper()
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	s := relstore.Build(c, relstore.SchemeInterval)
	e, err := New(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e, c
}

func sig(n *tree.Node) string {
	return n.Tag + "[" + strings.Join(n.Words(), " ") + "]"
}

func evalSigs(t *testing.T, e *Engine, query string) []string {
	t.Helper()
	ms, err := e.Eval(lpath.MustParse(query))
	if err != nil {
		t.Fatalf("eval %q: %v", query, err)
	}
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		out = append(out, sig(m.Node))
	}
	sort.Strings(out)
	return out
}

func expect(t *testing.T, e *Engine, query string, want ...string) {
	t.Helper()
	got := evalSigs(t, e, query)
	sort.Strings(want)
	if want == nil {
		want = []string{}
	}
	if got == nil {
		got = []string{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %v\nwant %v", query, got, want)
	}
}

// TestFigure2Queries checks the paper's Figure 2 result sets on the engine.
func TestFigure2Queries(t *testing.T) {
	e, _ := figureEngine(t)
	expect(t, e, `//S[//_[@lex=saw]]`, "S[I saw the old man with a dog today]")
	expect(t, e, `//V==>NP`, "NP[the old man with a dog]")
	expect(t, e, `//V->NP`, "NP[the old man with a dog]", "NP[the old man]")
	expect(t, e, `//VP/V-->N`, "N[man]", "N[dog]", "N[today]")
	expect(t, e, `//VP{/V-->N}`, "N[man]", "N[dog]")
	expect(t, e, `//VP{/NP$}`, "NP[the old man with a dog]")
	expect(t, e, `//VP{//NP$}`, "NP[the old man with a dog]", "NP[a dog]")
}

func TestEngineRequiresIntervalScheme(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	s := relstore.Build(c, relstore.SchemeStartEnd)
	if _, err := New(s); err == nil {
		t.Fatal("expected scheme error")
	}
}

func TestEngineRejectsMainPathAttribute(t *testing.T) {
	e, _ := figureEngine(t)
	if _, err := e.Eval(lpath.MustParse(`//S@lex`)); err == nil {
		t.Error("expected error for attribute step in main path")
	}
	if _, err := e.Eval(lpath.MustParse(`//_[@lex/NP]`)); err == nil {
		t.Error("expected error for non-final attribute step")
	}
	if _, err := e.Eval(lpath.MustParse(`//_[//NP=x]`)); err == nil {
		t.Error("expected error for comparison without attribute")
	}
}

func TestEngineResultOrderAndTreeIDs(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.MustParseTree(`(S (NP b) (VP (V x) (NP y)))`))
	c.Add(tree.MustParseTree(`(S (NP c) (NP d))`))
	s := relstore.Build(c, relstore.SchemeInterval)
	e, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := e.Eval(lpath.MustParse(`//NP`))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 {
		t.Fatalf("matches = %d", len(ms))
	}
	wantTrees := []int{1, 1, 2, 2}
	for i, m := range ms {
		if m.TreeID != wantTrees[i] {
			t.Errorf("match %d tree = %d, want %d", i, m.TreeID, wantTrees[i])
		}
	}
	// Document order within tree 2: NP[c] before NP[d].
	if got := strings.Join(ms[2].Node.Words(), ""); got != "c" {
		t.Errorf("first tree-2 match = %q, want c", got)
	}
}

// queryCorpus is a broad set of LPath queries exercising every axis,
// scoping, alignment and predicate form; used by the cross-validation tests.
var queryCorpus = []string{
	`//NP`, `/S`, `/S/VP`, `//VP/V`, `//VP//N`, `//N\_`, `//N\\_`, `//N\\NP`,
	`//V->_`, `//V->NP`, `//V-->N`, `//N<-_`, `//N<--_`, `//N<--Det`,
	`//V==>NP`, `//NP==>_`, `//N<=_`, `//NP<==_`, `//V.`, `//_.NP`,
	`//VP{//N}`, `//VP{/NP$}`, `//VP{//NP$}`, `//VP{//^_}`, `//VP{//_$}`,
	`//S{//NP{//N}}`, `//NP{//Det->_}`,
	`//VP/_$`, `//VP/^_`, `//^_`, `//_$`,
	`//S[//_[@lex=saw]]`, `//_[@lex=saw]`, `//_[@lex=dog]`, `//_[@lex=missing]`,
	`//NP[//Adj]`, `//NP[not(//Adj)]`, `//NP[//Adj and //Prep]`,
	`//NP[//Adj or @lex=I]`, `//NP[@lex]`, `//NP[@lex!=I]`, `//N[@lex!=man]`,
	`//NP[/NP and /PP]`, `//NP[\VP]`, `//Det[-->N[@lex=dog]]`,
	`//NP[->PP[//Det]]`, `//VP[{//^V->NP->PP$}]`, `//VP[{//_[@lex=saw]}]`,
	`//S[{//_[@lex=the]->_[@lex=old]}]`,
	`//N/following::Det`, `//N/following-or-self::N`, `//N/preceding-or-self::N`,
	`//V/following-sibling-or-self::_`, `//V/preceding-sibling-or-self::_`,
	`//Det/immediate-following::_`, `//NP/descendant-or-self::NP`,
	`//Adj\ancestor::NP`, `//Adj\ancestor-or-self::_`,
	`//NP/NP`, `//NP/NP/NP`, `//PP=>_`, `//_=>PP`,
	// Function library: positional, counting and string predicates.
	`//VP/_[position()=1]`, `//VP/_[last()]`, `//VP/_[position()=last()]`,
	`//NP/_[2]`, `//NP/_[position()>1]`, `//NP/_[position()<=2]`,
	`//NP/_[position()!=1]`, `//NP/_[position()>=2][position()<2]`,
	`//N\\_[position()=1]`, `//N\\_[last()]`, `//N<==_[position()=1]`,
	`//N<--_[position()=1]`, `//N-->_[position()=2]`,
	`//V/following-sibling::_[position()=1][.NP]`, `//VP/_[last()][.NP]`,
	`//NP[count(/_)=3]`, `//NP[count(//N)>=1]`, `//S[count(//NP)>2]`,
	`//NP[count(/Det)<1]`, `//NP[count(//_)!=2]`,
	`//_[contains(@lex,'o')]`, `//_[starts-with(@lex,'d')]`,
	`//_[ends-with(@lex,'w')]`, `//NP[contains(//N@lex,'a')]`,
	`//NP[count(/_)=2 and //Adj]`, `//VP{//_[position()=1]}`,
	`//NP/_[position()=1 or position()=last()]`,
	`//NP/_[not(position()=1)]`,
}

// crossValidate checks engine == oracle on one corpus for every query.
func crossValidate(t *testing.T, c *tree.Corpus, queries []string, opts ...Option) {
	t.Helper()
	s := relstore.Build(c, relstore.SchemeInterval)
	e, err := New(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := treeval.NewCorpus(c)
	for _, q := range queries {
		p, err := lpath.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		want, err := oracle.Eval(p)
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		got, err := e.Eval(p)
		if err != nil {
			t.Fatalf("engine %q: %v", q, err)
		}
		if !sameMatches(got, want) {
			t.Errorf("%s: engine and oracle disagree\nengine: %v\noracle: %v",
				q, matchSigs(got), oracleSigs(want))
		}
	}
}

func matchSigs(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = sig(m.Node)
	}
	return out
}

func oracleSigs(ms []treeval.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = sig(m.Node)
	}
	return out
}

func sameMatches(got []Match, want []treeval.Match) bool {
	if len(got) != len(want) {
		return false
	}
	type key struct {
		tid  int
		node *tree.Node
	}
	a := make(map[key]int)
	for _, m := range got {
		a[key{m.TreeID, m.Node}]++
	}
	for _, m := range want {
		a[key{m.TreeID, m.Node}]--
	}
	for _, v := range a {
		if v != 0 {
			return false
		}
	}
	return true
}

func TestCrossValidateFigure1(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	crossValidate(t, c, queryCorpus)
}

func TestCrossValidateWithoutValueIndex(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	crossValidate(t, c, queryCorpus, WithoutValueIndex())
}

// randomCorpus builds a corpus of random trees over the fixture tag set,
// with unary branching allowed.
func randomCorpus(seed int64, nTrees int) *tree.Corpus {
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"S", "NP", "VP", "PP", "N", "V", "Det", "Adj", "Prep"}
	words := []string{"saw", "dog", "man", "the", "a", "old", "with", "I", "today"}
	var build func(depth int) *tree.Node
	build = func(depth int) *tree.Node {
		n := &tree.Node{Tag: tags[rng.Intn(len(tags))]}
		if depth >= 6 || rng.Intn(3) == 0 {
			n.Word = words[rng.Intn(len(words))]
			return n
		}
		kids := 1 + rng.Intn(3)
		for i := 0; i < kids; i++ {
			n.AddChild(build(depth + 1))
		}
		return n
	}
	c := tree.NewCorpus()
	for i := 0; i < nTrees; i++ {
		c.AddRoot(build(1))
	}
	return c
}

// TestCrossValidateRandom is the main correctness property: on random
// corpora (including unary branching), the label-based engine agrees with
// the tree-walking oracle on every query in the corpus.
func TestCrossValidateRandom(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		c := randomCorpus(seed, 4)
		crossValidate(t, c, queryCorpus)
	}
}

func TestCrossValidateRandomNoValueIndex(t *testing.T) {
	for seed := int64(100); seed <= 104; seed++ {
		c := randomCorpus(seed, 3)
		crossValidate(t, c, queryCorpus, WithoutValueIndex())
	}
}

// randomQuery generates a random syntactically valid LPath query.
func randomQuery(rng *rand.Rand) string {
	tags := []string{"S", "NP", "VP", "PP", "N", "V", "Det", "_", "_"}
	axes := []string{"/", "//", `\`, `\\`, "->", "-->", "<-", "<--",
		"=>", "==>", "<=", "<==", "."}
	words := []string{"saw", "dog", "the", "I"}
	var steps func(n int, allowScope bool) string
	step := func(allowPred bool) string {
		var b strings.Builder
		b.WriteString(axes[rng.Intn(len(axes))])
		if rng.Intn(8) == 0 {
			b.WriteByte('^')
		}
		b.WriteString(tags[rng.Intn(len(tags))])
		if rng.Intn(8) == 0 {
			b.WriteByte('$')
		}
		if allowPred && rng.Intn(4) == 0 {
			switch rng.Intn(8) {
			case 0:
				b.WriteString("[@lex=" + words[rng.Intn(len(words))] + "]")
			case 1:
				b.WriteString("[" + steps(1, false) + "]")
			case 2:
				b.WriteString("[not(" + steps(1, false) + ")]")
			case 3:
				b.WriteString("[" + steps(1, false) + " and " + steps(1, false) + "]")
			case 4:
				ops := []string{"=", "!=", "<", "<=", ">", ">="}
				fmt.Fprintf(&b, "[position()%s%d]", ops[rng.Intn(len(ops))], 1+rng.Intn(3))
			case 5:
				b.WriteString("[last()]")
			case 6:
				fmt.Fprintf(&b, "[count(%s)%s%d]", steps(1, false),
					[]string{"=", ">=", "<"}[rng.Intn(3)], rng.Intn(3))
			case 7:
				fns := []string{"contains", "starts-with", "ends-with"}
				fmt.Fprintf(&b, "[%s(@lex,'%s')]", fns[rng.Intn(3)],
					words[rng.Intn(len(words))][:1])
			}
		}
		return b.String()
	}
	steps = func(n int, allowScope bool) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(step(true))
		}
		if allowScope && rng.Intn(4) == 0 {
			b.WriteString("{" + steps(1+rng.Intn(2), false) + "}")
		}
		return b.String()
	}
	q := "//" + tags[rng.Intn(len(tags))] + steps(rng.Intn(3), true)
	return q
}

// TestCrossValidateGeneratedQueries fuzzes randomly generated queries
// against random corpora.
func TestCrossValidateGeneratedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := randomCorpus(7, 5)
	s := relstore.Build(c, relstore.SchemeInterval)
	e, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	oracle := treeval.NewCorpus(c)
	for i := 0; i < 300; i++ {
		q := randomQuery(rng)
		p, err := lpath.Parse(q)
		if err != nil {
			t.Fatalf("generated query %q does not parse: %v", q, err)
		}
		want, err1 := oracle.Eval(p)
		got, err2 := e.Eval(p)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: oracle err=%v engine err=%v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !sameMatches(got, want) {
			t.Errorf("%q: engine %v, oracle %v", q, matchSigs(got), oracleSigs(want))
		}
	}
}

func TestCount(t *testing.T) {
	e, _ := figureEngine(t)
	n, err := e.Count(lpath.MustParse(`//NP`))
	if err != nil || n != 4 {
		t.Errorf("Count(//NP) = %d, %v", n, err)
	}
	n, err = e.Count(lpath.MustParse(`//ZZZ`))
	if err != nil || n != 0 {
		t.Errorf("Count(//ZZZ) = %d, %v", n, err)
	}
}

// TestAlignmentTIDGaps holds edge alignment from the virtual root — where ^
// and $ compare against the candidate's own tree root, found by its (tid, 1)
// identity — on stores whose tree ids have gaps, as a filtered corpus has:
// against the oracle serially, and over tid windows against serial.
func TestAlignmentTIDGaps(t *testing.T) {
	full := randomCorpus(91, 12)
	gappy := tree.NewCorpus()
	for i, tr := range full.Trees {
		if i%3 != 0 { // keeps tree ids 2, 3, 5, 6, 8, ...: gaps, and none at 1
			gappy.Trees = append(gappy.Trees, tr)
		}
	}
	queries := []string{
		`//^_`, `//_$`, `//^NP`, `//N$`, `//^_$`, `//^S//N`, `//_$/^_`,
		`//VP/^_`, `//VP/_$`, `//NP{//^_}`, `//S{//N$}`,
	}
	crossValidate(t, gappy, queries)
	e := buildEngine(t, gappy)
	for _, q := range queries {
		p := lpath.MustParse(q)
		want, err := e.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.EvalParallel(context.Background(), p, e.Plan(p), 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: windowed %d matches, serial %d", q, len(got), len(want))
		}
	}
}

func TestTopLevelScope(t *testing.T) {
	e, _ := figureEngine(t)
	// A query that is only a scoped tail: scope is each tree root.
	expect(t, e, `{//V}`, "V[saw]")
	// // inside the scope is a proper-descendant step, so the scope root
	// itself (S) is not a candidate.
	expect(t, e, `{//^_}`, "NP[I]")
}
