package lpath

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// Metamorphic identities for the set-at-a-time filters: whichever side of
// the run-time forward/set choice a filter takes, and whatever executors
// the rest of the query runs on, a filter and its negation partition the
// unfiltered result, and a scope-only filter keeps exactly the nodes that
// open a scope in which its tail matches.

// filterRotations is every strategy rotation the identities run under
// (probe and no-bitmap as in limitStrategies).
var filterRotations = []struct {
	name string
	opts []Option
}{
	{"auto", nil},
	{"no-planner", []Option{WithoutPlanner()}},
	{"probe", []Option{WithoutPlanner(), withoutBitmap()}},
	{"no-bitmap", []Option{withoutBitmap()}},
	{"bitmap", []Option{withBitmapAlways()}},
	{"filter-sets", []Option{withFilterSets()}},
	{"filter-forward", []Option{withFiltersForward()}},
	{"bitmap-filter-sets", []Option{withBitmapAlways(), withFilterSets()}},
	{"bitmap-filter-forward", []Option{withBitmapAlways(), withFiltersForward()}},
}

// filterCorpus generates the scale-0.05 corpus once and returns a loader
// that opens it from its snapshot under the given options.
func filterCorpus(t *testing.T) (*Corpus, func(opts ...Option) *Corpus) {
	t.Helper()
	if testing.Short() {
		t.Skip("needs a scale-0.05 corpus")
	}
	base, err := GenerateCorpus("wsj", 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := base.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	return base, func(opts ...Option) *Corpus {
		c, err := LoadStore(bytes.NewReader(buf.Bytes()), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// topTags returns the k most frequent tags usable as bare node tests.
func topTags(c *Corpus, k int) []string {
	freq := make(map[string]int)
	for _, tr := range c.Trees() {
		for _, n := range tr.Nodes() {
			if n.Tag != "" && strings.Trim(n.Tag, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") == "" {
				freq[n.Tag]++
			}
		}
	}
	tags := slices.SortedFunc(maps.Keys(freq), func(a, b string) int {
		return cmp.Or(cmp.Compare(freq[b], freq[a]), cmp.Compare(a, b))
	})
	return tags[:min(k, len(tags))]
}

func mustCountText(t *testing.T, c *Corpus, text string) int {
	t.Helper()
	n, err := c.CountText(text)
	if err != nil {
		t.Fatalf("%s: %v", text, err)
	}
	return n
}

// TestFilterComplementPartitions checks Count(q[p]) + Count(q[not(p)]) ==
// Count(q) for the paper's filter queries and for the serving mix's [//B] and
// [not(//B)] templates over the corpus's most frequent tags.
func TestFilterComplementPartitions(t *testing.T) {
	base, open := filterCorpus(t)
	type split struct{ q, p string }
	splits := []split{
		{"//S", "//_[@lex=saw]"},                      // Q1
		{"//S", "//NP/ADJP"},                          // Q8
		{"//NP", "//JJ"},                              // Q9
		{"//NP", "->PP[//IN[@lex=of]]=>VP"},           // Q10
		{"//S", "{//_[@lex=what]->_[@lex=building]}"}, // Q11
		{"//VP", "{//^VB->NP->PP$}"},                  // Q7
		{"//WHPP", "//NN"},
		{"//RRC", "//NN"},
		// The wildcard <- and <-- final hops of buildSatisfiers, which only
		// Q10 reaches among the paper's queries.
		{"//NP", "<-VB"},
		{"//NP", "->_"},
		{"//NN", "<--DT"},
	}
	tags := topTags(base, 6)
	for _, a := range tags {
		for _, b := range tags {
			splits = append(splits, split{"//" + a, "//" + b})
		}
	}
	for _, rot := range filterRotations {
		t.Run(rot.name, func(t *testing.T) {
			c := open(rot.opts...)
			for _, s := range splits {
				all := mustCountText(t, c, s.q)
				kept := mustCountText(t, c, s.q+"["+s.p+"]")
				dropped := mustCountText(t, c, s.q+"[not("+s.p+")]")
				if kept+dropped != all {
					t.Errorf("%s[%s]: %d kept + %d dropped != %d", s.q, s.p, kept, dropped, all)
				}
			}
		})
	}
}

// TestScopeFilterCountsScopes checks that Count(q[{t}]) equals the number of
// distinct scopes of q{t}: the q-nodes whose own subtree holds a match of t.
// The expectation comes from the tree-walking oracle, over a corpus whose
// trees are the q-nodes' subtrees, each queried as /_{t}.
func TestScopeFilterCountsScopes(t *testing.T) {
	base, open := filterCorpus(t)
	pairs := [][2]string{
		{"//VP", "//^VB->NP->PP$"},                  // Q7
		{"//S", "//_[@lex=what]->_[@lex=building]"}, // Q11
		{"//VP", "/VB-->NN"},
		{"//VP", "/NP$"},
		{"//PP", "/IN->NP[//NN]"},
		{"//NP", "/^DT"},
	}
	want := make([]int, len(pairs))
	for i, pr := range pairs {
		nodes, err := base.Select(MustCompile(pr[0]))
		if err != nil {
			t.Fatal(err)
		}
		sub := NewCorpus()
		for _, m := range nodes {
			if err := sub.AddSentence(m.Node.String()); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := sub.SelectOracle(MustCompile("/_{" + pr[1] + "}"))
		if err != nil {
			t.Fatal(err)
		}
		scopes := make(map[int]bool)
		for _, m := range ms {
			scopes[m.TreeID] = true
		}
		want[i] = len(scopes)
		t.Logf("%s{%s}: %d distinct scopes", pr[0], pr[1], want[i])
	}
	for _, rot := range filterRotations {
		t.Run(rot.name, func(t *testing.T) {
			c := open(rot.opts...)
			for i, pr := range pairs {
				text := fmt.Sprintf("%s[{%s}]", pr[0], pr[1])
				if got := mustCountText(t, c, text); got != want[i] {
					t.Errorf("Count(%s) = %d, %s{%s} has %d distinct scopes", text, got, pr[0], pr[1], want[i])
				}
			}
		})
	}
}

// TestFilterPathChoice pins the run-time filter path through EXPLAIN
// actuals at scale 0.05. Q9's one-step [not(//JJ)] filters the whole NP name
// range, so it merges against the JJ posting, as does //PP-DIR[//NN]'s
// handful of candidates. The multi-step filters keep the forward/set
// decision: Q10 filters every NP, and its satisfier set is built from a few
// thousand seeds, so the set answers it; //PP-DIR[//NP/NN] filters a
// handful of candidates, for which a set seeded from every NN would cost a
// thousand times the forward probes.
func TestFilterPathChoice(t *testing.T) {
	base, _ := filterCorpus(t)
	for _, tc := range []struct{ query, filter, path string }{
		{EvalQueries()[8].Text, "where [not(//JJ)]", "[merge "},
		{"//PP-DIR[//NN]", "where [//NN]", "[merge "},
		{EvalQueries()[9].Text, "where [->PP[//IN[@lex=of]]=>VP]", "[set "},
		{"//PP-DIR[//NP/NN]", "where [//NP/NN]", "[forward "},
	} {
		out, err := base.ExplainText(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, tc.filter) {
				line = l
				break
			}
		}
		if !strings.Contains(line, tc.path) {
			t.Errorf("%s: filter line %q, want the %s path\n%s", tc.query, line, strings.Trim(tc.path, "[ "), out)
		}
	}
}
