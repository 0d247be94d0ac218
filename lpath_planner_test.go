package lpath

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// mainPathShapes are the main-path / and => shapes beyond the paper's
// queries that the identity, limit and fuzz suites hold too: a child of the
// virtual root as the head, wildcard child and sibling chains, a filter on a
// kernel step, the kernel after a filter, a twig run that ends where a =>
// begins, and a scoped =>, which the kernel leaves to per-binding probes.
var mainPathShapes = []string{
	`/S/VP/NP`, `//_/_/_`, `//DT=>NN`, `//_=>_=>_`,
	`//NP/PP[//IN]`, `//S[//NP]/VP/VB`, `//VB->NP=>PP`, `//VP{/NP=>PP}`,
}

// namedQuery is one input of the identity suites.
type namedQuery struct{ Name, Text string }

// identityQueries is the paper's 23-query matrix followed by mainPathShapes.
func identityQueries() []namedQuery {
	var out []namedQuery
	for _, eq := range EvalQueries() {
		out = append(out, namedQuery{fmt.Sprintf("Q%d", eq.ID), eq.Text})
	}
	for _, s := range mainPathShapes {
		out = append(out, namedQuery{s, s})
	}
	return out
}

// TestPlannerResultIdentity is the optimizer's acceptance property: over the
// full 23-query evaluation matrix and mainPathShapes, the cost-based planner
// changes evaluation strategy only — results are byte-identical with the
// planner on and off, serially and in parallel, and the count pipelines agree
// with materialization under every forced or disabled executor.
func TestPlannerResultIdentity(t *testing.T) {
	planned, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	unplanned, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), WithoutPlanner())
	if err != nil {
		t.Fatal(err)
	}
	// Executor rotation: the merge executor forced on every eligible step,
	// and disabled entirely — both must match the planner-chosen mix.
	forcedMerge, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), withMergeAlways())
	if err != nil {
		t.Fatal(err)
	}
	probeOnly, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), withoutMerge())
	if err != nil {
		t.Fatal(err)
	}
	// Twig rotation: the holistic sweep forced on every maximal run, and
	// disabled entirely (falling back to the per-step probe/merge pipeline).
	forcedTwig, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), withTwigAlways())
	if err != nil {
		t.Fatal(err)
	}
	twigOff, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), withoutTwig())
	if err != nil {
		t.Fatal(err)
	}
	// Bitmap rotation: the dense-bitset kernels forced on every eligible
	// scope entry, and disabled entirely (per-scope expansion, every filter
	// evaluated forward).
	forcedBitmap, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), withBitmapAlways())
	if err != nil {
		t.Fatal(err)
	}
	bitmapOff, err := GenerateCorpus("wsj", 0.005, 11, WithWorkers(4), withoutBitmap())
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range identityQueries() {
		q := MustCompile(eq.Text)
		want, err := unplanned.Select(q)
		if err != nil {
			t.Fatalf("%s unplanned: %v", eq.Name, err)
		}
		got, err := planned.Select(q)
		if err != nil {
			t.Fatalf("%s planned: %v", eq.Name, err)
		}
		if !matchesEqual(got, want) {
			t.Errorf("%s: planned %d matches, unplanned %d — or a match differs",
				eq.Name, len(got), len(want))
		}
		gotMerge, err := forcedMerge.Select(q)
		if err != nil {
			t.Fatalf("%s forced-merge: %v", eq.Name, err)
		}
		if !matchesEqual(gotMerge, want) {
			t.Errorf("%s: forced-merge %d matches, unplanned %d — or a match differs",
				eq.Name, len(gotMerge), len(want))
		}
		gotProbe, err := probeOnly.Select(q)
		if err != nil {
			t.Fatalf("%s probe-only: %v", eq.Name, err)
		}
		if !matchesEqual(gotProbe, want) {
			t.Errorf("%s: probe-only %d matches, unplanned %d — or a match differs",
				eq.Name, len(gotProbe), len(want))
		}
		gotTwig, err := forcedTwig.Select(q)
		if err != nil {
			t.Fatalf("%s forced-twig: %v", eq.Name, err)
		}
		if !matchesEqual(gotTwig, want) {
			t.Errorf("%s: forced-twig %d matches, unplanned %d — or a match differs",
				eq.Name, len(gotTwig), len(want))
		}
		gotNoTwig, err := twigOff.Select(q)
		if err != nil {
			t.Fatalf("%s twig-off: %v", eq.Name, err)
		}
		if !matchesEqual(gotNoTwig, want) {
			t.Errorf("%s: twig-off %d matches, unplanned %d — or a match differs",
				eq.Name, len(gotNoTwig), len(want))
		}
		gotBitmap, err := forcedBitmap.Select(q)
		if err != nil {
			t.Fatalf("%s forced-bitmap: %v", eq.Name, err)
		}
		if !matchesEqual(gotBitmap, want) {
			t.Errorf("%s: forced-bitmap %d matches, unplanned %d — or a match differs",
				eq.Name, len(gotBitmap), len(want))
		}
		gotNoBitmap, err := bitmapOff.Select(q)
		if err != nil {
			t.Fatalf("%s bitmap-off: %v", eq.Name, err)
		}
		if !matchesEqual(gotNoBitmap, want) {
			t.Errorf("%s: bitmap-off %d matches, unplanned %d — or a match differs",
				eq.Name, len(gotNoBitmap), len(want))
		}
		parallel := Request{Query: q, Parallel: true}
		gotPar, err := planned.Run(context.Background(), parallel)
		if err != nil {
			t.Fatalf("%s planned parallel: %v", eq.Name, err)
		}
		wantPar, err := unplanned.Run(context.Background(), parallel)
		if err != nil {
			t.Fatalf("%s unplanned parallel: %v", eq.Name, err)
		}
		if !reflect.DeepEqual(got, gotPar.Matches) || !matchesEqual(gotPar.Matches, wantPar.Matches) {
			t.Errorf("%s: parallel results diverge (planned %d / unplanned %d)",
				eq.Name, len(gotPar.Matches), len(wantPar.Matches))
		}
		for name, pair := range map[string][2]int{
			"Count planned/unplanned":         {mustCount(t, planned.Count, q), mustCount(t, unplanned.Count, q)},
			"CountParallel planned/unplanned": {mustCount(t, planned.CountParallel, q), mustCount(t, unplanned.CountParallel, q)},
			"Count merge forced/off":          {mustCount(t, forcedMerge.Count, q), mustCount(t, probeOnly.Count, q)},
			"Count twig forced/off":           {mustCount(t, forcedTwig.Count, q), mustCount(t, twigOff.Count, q)},
			"Count bitmap forced/off":         {mustCount(t, forcedBitmap.Count, q), mustCount(t, bitmapOff.Count, q)},
		} {
			if pair[0] != len(want) || pair[1] != len(want) {
				t.Errorf("%s %s: %d and %d, want %d",
					eq.Name, name, pair[0], pair[1], len(want))
			}
		}
	}
}

func mustCount(t *testing.T, count func(*Query) (int, error), q *Query) int {
	t.Helper()
	n, err := count(q)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// matchesEqual compares match lists across two corpora built from the same
// trees: Node pointers differ, so compare (tree, tag, words) in order.
func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TreeID != b[i].TreeID || a[i].Node.Tag != b[i].Node.Tag ||
			strings.Join(a[i].Node.Words(), " ") != strings.Join(b[i].Node.Words(), " ") {
			return false
		}
	}
	return true
}

// TestExplainOnEvalMatrix checks Corpus.Explain renders a plan with actual
// cardinalities for every matrix query, and that explaining never perturbs
// subsequent evaluation.
func TestExplainOnEvalMatrix(t *testing.T) {
	c, err := GenerateCorpus("wsj", 0.002, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range EvalQueries() {
		q := MustCompile(eq.Text)
		report, err := c.Explain(q)
		if err != nil {
			t.Fatalf("Q%d explain: %v", eq.ID, err)
		}
		if !strings.Contains(report, "query: "+eq.Text) ||
			!strings.Contains(report, "estimated matches:") ||
			!strings.Contains(report, "actual:") {
			t.Errorf("Q%d: malformed report:\n%s", eq.ID, report)
		}
		ms, err := c.Select(q)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.Count(q)
		if err != nil || n != len(ms) {
			t.Errorf("Q%d after explain: Count = %d, len(Select) = %d, %v", eq.ID, n, len(ms), err)
		}
	}
	// Explain works on a planner-disabled corpus too (it plans on demand).
	c.Configure(WithoutPlanner())
	if _, err := c.Explain(MustCompile(`//NP`)); err != nil {
		t.Errorf("explain without planner: %v", err)
	}
}
