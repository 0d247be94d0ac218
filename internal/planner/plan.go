// Package planner is the cost-based query planner between LPath compilation
// and evaluation. It reads the relational store's own catalog — the name
// dictionary's ranges, the value postings and the statistics block computed
// at build time (relstore.StatsParts) — and turns a compiled query into an
// explicit Plan: for every location step an access-path choice (clustered
// name scan, {value,tid,id} value index, {tid,pid} child index, or pid-chain
// walk), an execution order for the step's commutative predicate conjuncts
// (cheapest first), and — for selective existential filters — a reverse
// "semijoin" strategy that computes the filter's satisfier set once from its
// most selective end instead of re-probing it from every candidate.
//
// The plan is pure annotation: it never changes what a query means, only
// how the engine evaluates it, and the engine's unplanned path remains
// available so the equivalence is continuously checked by differential
// tests and fuzzing. EXPLAIN (Plan.Render) prints the chosen plan with
// estimated and, when available, actual cardinalities.
package planner

import (
	"fmt"
	"strings"

	"lpath/internal/lpath"
)

// Access enumerates the access paths of the paper's storage design
// (Section 5): how a step's candidate rows are retrieved.
type Access int

const (
	// AccessNameScan probes the clustered {name, tid, left, ...} relation
	// with a sargable range for the axis (Table 2).
	AccessNameScan Access = iota
	// AccessDocScan is the wildcard variant: a document-order range scan
	// over all element rows.
	AccessDocScan
	// AccessChildIndex probes the {tid, pid} index (child and sibling axes).
	AccessChildIndex
	// AccessPidChain walks the pid chain upward (parent and ancestor axes).
	AccessPidChain
	// AccessSelf tests the context row itself.
	AccessSelf
	// AccessValueIndex drives the step from the {value, tid, id} posting
	// list of a direct @attr=value predicate, then filters by the axis.
	AccessValueIndex
)

func (a Access) String() string {
	switch a {
	case AccessNameScan:
		return "name-scan"
	case AccessDocScan:
		return "doc-scan"
	case AccessChildIndex:
		return "child-index"
	case AccessPidChain:
		return "pid-chain"
	case AccessSelf:
		return "self"
	case AccessValueIndex:
		return "value-index"
	}
	return fmt.Sprintf("access(%d)", int(a))
}

// SeedKind says how a semijoin's seed set (the matches of the filter path's
// final step) is materialized.
type SeedKind int

const (
	// SeedName scans the final step's clustered name range.
	SeedName SeedKind = iota
	// SeedValue drives the seed from a value-index posting list.
	SeedValue
)

func (k SeedKind) String() string {
	if k == SeedValue {
		return "value"
	}
	return "name"
}

// Plan is the executable plan for one query. It is immutable after
// planning; the engine threads it through evaluation and looks up the
// per-step and per-predicate choices by AST node identity.
type Plan struct {
	// Root is the plan of the main path.
	Root *PathPlan
	// EstMatches is the estimated final result cardinality.
	EstMatches float64
	// Empty, when not "", says why the query has no answer on this corpus:
	// a step needs a name pair the store's tag-pair summary lacks
	// (empty.go). The engine returns such a plan's empty result without
	// evaluating it.
	Empty string

	steps map[*lpath.Step]*StepPlan
	semis map[lpath.Expr]*Semijoin
	// vacuous holds why each predicate proveEmpty proved vacuous, before the
	// steps are planned: planStep estimates such a predicate as keeping every
	// row at no cost.
	vacuous map[lpath.Expr]string
}

// Step returns the plan of an AST step, or nil when the step was not
// planned (e.g. a trailing attribute step).
func (p *Plan) Step(s *lpath.Step) *StepPlan { return p.steps[s] }

// StrategyCounts tallies the main path's steps (including scoped tails) by
// shape: bitmap counts the steps a kernel can take (BitmapStep) and probe the
// rest, the root path's first step among them (its one context is the
// virtual root). Which side a step runs on is the engine's run-time choice,
// not the plan's. The merge and twig results are always 0. The function's
// only caller is the frozen benchmark harness, which destructures all four.
func (p *Plan) StrategyCounts() (probe, merge, twig, bitmap int) {
	for pp := p.Root; pp != nil; pp = pp.Scoped {
		for i, sp := range pp.Steps {
			head := pp == p.Root && i == 0 // one context: the virtual root
			if !head && BitmapStep(sp.Step, pp != p.Root && i == 0) {
				bitmap++
			} else {
				probe++
			}
		}
	}
	return probe, 0, 0, bitmap
}

// SemijoinFor returns the semijoin strategy chosen for a predicate
// expression, or nil when the predicate runs forward.
func (p *Plan) SemijoinFor(x lpath.Expr) *Semijoin { return p.semis[x] }

// PathPlan mirrors one relative path of the query.
type PathPlan struct {
	Path   *lpath.Path
	Steps  []*StepPlan
	Scoped *PathPlan
	// EstOut is the estimated number of bindings the path produces.
	EstOut float64
	// cost is the modeled total row touches of evaluating the path once.
	cost float64
}

// StepPlan is the planned form of one location step.
type StepPlan struct {
	Step   *lpath.Step
	Access Access
	// Value/Attr/Postings describe the value-index drive — the literal, the
	// attribute name (with '@'), and the statistics-time posting count — of
	// a step whose direct @attr=value predicate has a posting list shorter
	// than the step's name range. Such a step is value-drivable: the engine
	// may drive it from the index per binding (Bias), and its side rule
	// keeps it on the probes. Access is AccessValueIndex when the planner expects the drive
	// to win for every binding.
	Value    string
	Attr     string
	Postings int
	// Bias is the statistics-derived crossover density for the value probe:
	// the engine drives a descendant step from the value index when the
	// posting list is smaller than Bias × the context's span (the expected
	// name rows a clustered scan of that subtree would touch). It replaces
	// the engine's former hardcoded nodes-per-span constant of 2.
	Bias float64
	// Preds is the predicate pipeline in execution order, and Exec its
	// expressions less the vacuous ones: what the engine evaluates.
	Preds []*PredPlan
	Exec  []lpath.Expr
	// EstCand and EstOut estimate the candidates after the node test and
	// the bindings surviving the predicates.
	EstCand, EstOut float64
	// cost is the modeled per-context row touches of executing the step.
	cost float64
}

// PredPlan is one predicate conjunct with its cost-model annotations.
type PredPlan struct {
	Expr lpath.Expr
	// Sel is the estimated selectivity (fraction of candidates kept) and
	// Cost the estimated per-candidate evaluation cost in row touches.
	Sel  float64
	Cost float64
	// Note is a short human-readable strategy annotation for EXPLAIN.
	Note string
	// Vacuous, when not "", says why the predicate holds on every row its
	// step can bind (empty.go): the engine skips it.
	Vacuous string
	// Paths are the plans of the relative paths inside the expression, in
	// visit order (used by EXPLAIN to render nested steps).
	Paths []*PathPlan
}

// Semijoin is the set strategy for one existential filter [path] or
// [path Op 'value']: materialize the set of rows that satisfy the filter
// once — seeding from the path's final step and walking the inverse axes
// back — then answer each candidate with a set-membership test. The planner
// registers one on every filter the reversal is sound for; the engine picks
// between it and forward evaluation per frontier (SetWins).
type Semijoin struct {
	Expr lpath.Expr
	// ID numbers the plan's semijoins densely from 0, so an evaluation keeps
	// its per-filter state in a slice.
	ID int
	// Head is the filter path with a trailing attribute step removed.
	Head *lpath.Path
	// Attr (without '@'), Op and Value carry the attribute comparison the
	// filter ends in; Attr == "" means a pure existence test.
	Attr, Op, Value string
	// Seed describes how the final step's matches are materialized.
	Seed SeedKind
	// SeedValue/SeedAttr are the posting-list drive when Seed == SeedValue.
	SeedValue, SeedAttr string
	// SeedPreds are the final step's predicates the seed rows must pass: all
	// of them, less the equality a value seed already enforces.
	SeedPreds []lpath.Expr
	// EstSeed and EstSet estimate the seed rows and the satisfier-set size.
	EstSeed, EstSet float64

	// The cost model's inputs (forwardCost, setCost): the forward path's
	// modeled row touches per candidate, the posting length its probe
	// searches, the planned seed-range length, and the climb cost per seed
	// row.
	probe, posting, seedScan, climbPerSeed float64
}

// Actuals carries runtime cardinalities collected by an instrumented
// execution, to be rendered next to the estimates.
type Actuals struct {
	// Steps maps a step plan to the number of bindings it produced.
	Steps map[*StepPlan]int
	// Filters maps a set-capable or scope-only filter to how it ran.
	Filters map[lpath.Expr]*FilterRun
	// Sides maps a kernel-capable step — a scope's entry, an unscoped step
	// or a step over a scoped frontier — to the side of the engine's
	// run-time choice that ran whenever the choice got past its gate:
	// "kernel", "probe", or "kernel+probe" when successive stream windows,
	// or the scopes of one scoped frontier, chose differently.
	Sides map[*StepPlan]string
	// Matches is the final distinct-match count.
	Matches int
}

// FilterRun is how an instrumented execution answered one filter: which
// path ran and the sizes behind the choice. Path is "forward", "set",
// "forward+set" (forward on early frontiers, then the set once the forward
// work outgrew it), "merge" (a one-step // filter merged against its
// posting) or "scope" (a scope-only filter run for whole frontiers);
// Frontier counts the candidates filtered, Seeds the seed rows the choice
// was made against, and Set the satisfier-set size once materialized.
type FilterRun struct {
	Path                 string
	Frontier, Seeds, Set int
}

// Render formats the plan in the EXPLAIN format (docs/PLANNER.md). With a
// non-nil Actuals the actual cardinalities are printed next to the
// estimates.
func (p *Plan) Render(a *Actuals) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", p.Root.Path)
	fmt.Fprintf(&b, "plan:\n")
	p.renderPath(&b, p.Root, a, "  ", "")
	if p.Empty != "" {
		fmt.Fprintf(&b, "empty: %s\n", p.Empty)
	}
	fmt.Fprintf(&b, "estimated matches: %s", card(p.EstMatches))
	if a != nil {
		fmt.Fprintf(&b, "   actual: %d", a.Matches)
	}
	b.WriteByte('\n')
	return b.String()
}

func (p *Plan) renderPath(b *strings.Builder, pp *PathPlan, a *Actuals, indent, numPrefix string) {
	for i, sp := range pp.Steps {
		num := fmt.Sprintf("%s%d", numPrefix, i+1)
		fmt.Fprintf(b, "%s%s. %s  [%s]", indent, num, stepText(sp.Step), accessText(sp))
		fmt.Fprintf(b, "  est=%s", card(sp.EstOut))
		if a != nil {
			if n, ok := a.Steps[sp]; ok {
				fmt.Fprintf(b, " actual=%d", n)
			}
			if side := a.Sides[sp]; side != "" {
				fmt.Fprintf(b, "  [%s]", side)
			}
		}
		b.WriteByte('\n')
		for _, pred := range sp.Preds {
			p.renderPred(b, pred, a, indent+"     ")
		}
	}
	if pp.Scoped != nil {
		fmt.Fprintf(b, "%s{ subtree scope\n", indent)
		p.renderPath(b, pp.Scoped, a, indent+"  ", numPrefix+"s")
		fmt.Fprintf(b, "%s}\n", indent)
	}
}

func (p *Plan) renderPred(b *strings.Builder, pred *PredPlan, a *Actuals, indent string) {
	fmt.Fprintf(b, "%swhere %s  sel=%.3g cost=%s", indent, exprText(pred.Expr), pred.Sel, card(pred.Cost))
	if pred.Note != "" {
		fmt.Fprintf(b, "  %s", pred.Note)
	}
	if sj := p.semis[pred.Expr]; sj != nil {
		fmt.Fprintf(b, "  semijoin (seed=%s ~%s rows, set ~%s)", sj.Seed, card(sj.EstSeed), card(sj.EstSet))
	}
	if pred.Vacuous != "" {
		fmt.Fprintf(b, "  vacuous: %s", pred.Vacuous)
	}
	if a != nil {
		renderRuns(b, pred.Expr, a)
	}
	b.WriteByte('\n')
	for _, sub := range pred.Paths {
		p.renderPath(b, sub, a, indent+"  ", "p")
	}
}

// renderRuns prints how each filter in the predicate's boolean structure
// ran, in visit order.
func renderRuns(b *strings.Builder, x lpath.Expr, a *Actuals) {
	if r := a.Filters[x]; r != nil {
		fmt.Fprintf(b, "  [%s frontier=%d", r.Path, r.Frontier)
		if r.Path != "scope" {
			fmt.Fprintf(b, " seeds=%d", r.Seeds)
		}
		if r.Set > 0 {
			fmt.Fprintf(b, " set=%d", r.Set)
		}
		b.WriteByte(']')
	}
	switch e := x.(type) {
	case *lpath.AndExpr:
		renderRuns(b, e.L, a)
		renderRuns(b, e.R, a)
	case *lpath.OrExpr:
		renderRuns(b, e.L, a)
		renderRuns(b, e.R, a)
	case *lpath.NotExpr:
		renderRuns(b, e.X, a)
	}
}

func accessText(sp *StepPlan) string {
	s := sp.Access.String()
	if sp.Access == AccessValueIndex {
		s = fmt.Sprintf("value-index %s=%s ~%d postings", sp.Attr, sp.Value, sp.Postings)
	}
	return s
}

func stepText(s *lpath.Step) string {
	p := &lpath.Path{Steps: []lpath.Step{{
		Axis: s.Axis, Test: s.Test, LeftAlign: s.LeftAlign, RightAlign: s.RightAlign,
	}}}
	return p.String()
}

func exprText(x lpath.Expr) string {
	p := &lpath.Path{Steps: []lpath.Step{{Axis: lpath.AxisSelf, Test: "_", Preds: []lpath.Expr{x}}}}
	s := p.String()
	// Strip the ". _" scaffold, keeping the bracketed predicate.
	if i := strings.IndexByte(s, '['); i >= 0 {
		return s[i:]
	}
	return s
}

// card prints a cardinality estimate compactly: integers below 1e6, then
// scientific notation.
func card(v float64) string {
	if v < 0 {
		v = 0
	}
	if v < 10 {
		return fmt.Sprintf("%.3g", v)
	}
	if v < 1e6 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2e", v)
}
