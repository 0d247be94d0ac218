// Golden EXPLAIN snapshots for the 23-query evaluation matrix, plus one query
// the tag-pair summary proves empty (empty.golden): the chosen access paths,
// predicate order, semijoins, cardinality estimates and the empty proof over
// the deterministic wsj corpus (scale 0.01, seed 42) are pinned byte-for-byte,
// so any cost-model or estimator change shows up as a reviewed diff. Refresh
// with:
//
//	go test ./internal/planner -run TestGoldenPlans -update

package planner_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lpath"
)

var update = flag.Bool("update", false, "rewrite the golden EXPLAIN snapshots")

func goldenPlans(t *testing.T, c *lpath.Corpus, allowUpdate bool) {
	t.Helper()
	texts := map[string]string{"empty": `//NP==>NNS`}
	for _, eq := range lpath.EvalQueries() {
		texts[fmt.Sprintf("q%02d", eq.ID)] = eq.Text
	}
	for name, text := range texts {
		t.Run(name, func(t *testing.T) {
			got, err := c.ExplainText(text)
			if err != nil {
				t.Fatal(err)
			}
			got += "\n"
			path := filepath.Join("testdata", name+".golden")
			if allowUpdate && *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if got != string(want) {
				t.Errorf("EXPLAIN drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}

func TestGoldenPlans(t *testing.T) {
	c, err := lpath.GenerateCorpus("wsj", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	goldenPlans(t, c, true)
}

// TestGoldenPlansFromSnapshot pins that a snapshot round trip preserves the
// statistics the planner reads: the store saved to the binary snapshot format
// and loaded back must produce the exact same EXPLAIN output — same access
// paths, same cardinality estimates — as the freshly built store.
func TestGoldenPlansFromSnapshot(t *testing.T) {
	built, err := lpath.GenerateCorpus("wsj", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := lpath.LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	goldenPlans(t, c, false)
}

// TestVacuousPredicateEstimates: a predicate the tag-pair summary proves
// vacuous keeps every row at no cost, so its step, and the query, estimate
// exactly the head's name count — 777 IN rows on this corpus, none of which
// has an NP below it.
func TestVacuousPredicateEstimates(t *testing.T) {
	c, err := lpath.GenerateCorpus("wsj", 0.01, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ExplainText(`//IN[not(//NP)]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1. //IN  [name-scan]  est=777 actual=777\n",
		"where [not(//NP)]  sel=1 cost=0  vacuous: no IN // NP pair",
		"estimated matches: 777   actual: 777\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, got)
		}
	}
}
