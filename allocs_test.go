package lpath

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// allocBudgets caps warm steady-state allocations per CountText evaluation
// for every query of the evaluation matrix at scale 0.01. Budgets are ~2x the
// measured steady state (minimum 64, to absorb incidental per-group sorting
// and map growth), so a regression that reintroduces per-binding or per-row
// allocation — historically tens of thousands of objects per evaluation —
// fails loudly while arena/pool jitter does not.
var allocBudgets = map[int]int{
	1: 64, 2: 64, 3: 64, 4: 700, 5: 70, 6: 90, 7: 64, 8: 64, 9: 64,
	10: 64, 11: 64, 12: 64, 13: 64, 14: 64, 15: 64, 16: 64, 17: 64,
	18: 64, 19: 64, 20: 64, 21: 64, 22: 64, 23: 64,
}

// bitmapAllocBudgets is the same contract with the dense-bitset kernels
// forced onto every eligible scope entry: the sets are arena-pooled, so
// forcing them must not reintroduce per-scope or per-row allocation on any
// query.
var bitmapAllocBudgets = map[int]int{
	1: 64, 2: 64, 3: 64, 4: 700, 5: 70, 6: 90, 7: 64, 8: 64, 9: 64,
	10: 64, 11: 64, 12: 64, 13: 64, 14: 64, 15: 64, 16: 64, 17: 64,
	18: 64, 19: 64, 20: 64, 21: 64, 22: 64, 23: 64,
}

// semijoinAttr is an attribute name too long for the compiler's 32-byte
// stack buffer for non-escaping concatenations: with @lex a per-row "@"+name
// costs no heap allocation and would go unnoticed. The test copies @lex under
// this name onto every DT node and filters on it through a name-seeded
// semijoin (EXPLAIN: "semijoin (seed=name ..."), whose every seed row passes
// through semiAttrOK.
var semijoinAttr = strings.Repeat("lex", 12)

// TestStepEvaluationAllocBudget pins the steady-state allocation behavior of
// the executors across the full 23-query evaluation matrix: with each query
// compiled and planned once, outside the measurement, and grown scratch
// arenas, evaluation must not allocate per binding or per row. Before the
// columnar merge executor and the arena-pooled evaluation context, one warm
// CountText of Q10 allocated ~58k objects; today the probe and kernel
// pipelines hold nearly every query to double-digit allocations.
func TestStepEvaluationAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a non-trivial corpus")
	}
	configs := []struct {
		name    string
		opts    []Option
		budgets map[int]int
	}{
		{"auto", nil, allocBudgets},
		{"bitmap", []Option{withBitmapAlways()}, bitmapAllocBudgets},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			c, err := GenerateCorpus("wsj", 0.01, 42, cfg.opts...)
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, budget int, run func() error) {
				t.Run(name, func(t *testing.T) {
					if err := run(); err != nil { // warm: size arenas, build trees
						t.Fatal(err)
					}
					allocs := testing.AllocsPerRun(20, func() {
						if err := run(); err != nil {
							t.Fatal(err)
						}
					})
					t.Logf("warm %s = %.0f allocs/op (budget %d)", name, allocs, budget)
					if allocs > float64(budget) {
						t.Errorf("warm %s = %.0f allocs/op, budget %d", name, allocs, budget)
					}
				})
			}
			// evaluate compiles and plans req once and returns one evaluation
			// of that plan: c.eng.Run alone is what the budgets measure.
			evaluate := func(c *Corpus, req Request) func() error {
				path, plan, err := c.resolve(req)
				if err != nil {
					t.Fatal(err)
				}
				return func() error {
					_, err := c.eng.Run(context.Background(), path, plan, c.spec(req))
					return err
				}
			}
			for _, eq := range EvalQueries() {
				budget, ok := cfg.budgets[eq.ID]
				if !ok {
					t.Fatalf("Q%d: no allocation budget defined", eq.ID)
				}
				check(fmt.Sprintf("Q%d", eq.ID), budget, evaluate(c, Request{Text: eq.Text, Mode: ModeCount}))
			}
			// The main-path kernel steps under the limit stream, which runs
			// them window by window on small frontiers: the run-time choice
			// and the windowed posting walk must not allocate per window.
			for _, id := range []int{18, 22} {
				req := Request{Text: EvalQueries()[id-1].Text, Limit: 10}
				check(fmt.Sprintf("Q%d-limit10", id), cfg.budgets[id], evaluate(c, req))
			}
			// A corpus of its own: the extra attribute rows must not shift the
			// statistics the 23 budgets above were measured under.
			sc, err := GenerateCorpus("wsj", 0.01, 42, cfg.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range sc.Trees() {
				for _, n := range tr.Nodes() {
					if n.Tag == "DT" {
						n.SetAttr(semijoinAttr, n.Word)
					}
				}
			}
			check("semijoin-attr", 64, evaluate(sc, Request{Text: "//NP[/DT@" + semijoinAttr + "!=the]", Mode: ModeCount}))
		})
	}
}

// TestFilterPathAllocBudget holds the three filter queries the set-at-a-time
// filters target — Q7's scope-only filter, Q9's negated set filter and Q10's
// nested one — to the same no-per-row-allocation contract on each side of the
// run-time forward/set choice, under a full Select and under SelectLimit(q,
// 10), whose limit stream evaluates tid window by window and resets the
// filters' sets between windows. Select's budget covers its result: one
// match slice and the lazily built trees' nodes are per-match costs paid once
// (the corpus caches them) and excluded by the warm-up run.
func TestFilterPathAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs a non-trivial corpus")
	}
	for _, cfg := range []struct {
		name string
		opts []Option
	}{
		{"auto", nil},
		{"sets", []Option{withFilterSets()}},
		{"forward", []Option{withFiltersForward()}},
	} {
		c, err := GenerateCorpus("wsj", 0.01, 42, cfg.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{7, 9, 10} {
			q := MustCompile(EvalQueries()[id-1].Text)
			for _, run := range []struct {
				name string
				f    func() error
			}{
				{"full", func() error { _, err := c.Select(q); return err }},
				{"limit10", func() error { _, err := c.SelectLimit(q, 10); return err }},
			} {
				t.Run(fmt.Sprintf("%s/Q%d/%s", cfg.name, id, run.name), func(t *testing.T) {
					if err := run.f(); err != nil { // warm: arenas, trees
						t.Fatal(err)
					}
					allocs := testing.AllocsPerRun(10, func() {
						if err := run.f(); err != nil {
							t.Fatal(err)
						}
					})
					t.Logf("%.0f allocs/op (budget %d)", allocs, filterAllocBudget)
					if allocs > filterAllocBudget {
						t.Errorf("%.0f allocs/op, budget %d", allocs, filterAllocBudget)
					}
				})
			}
		}
	}
}

// filterAllocBudget is TestFilterPathAllocBudget's cap per evaluation, ~2x
// the steady state measured at scale 0.01 (32–68 allocs/op).
const filterAllocBudget = 128
