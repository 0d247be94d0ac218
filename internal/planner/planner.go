package planner

import (
	"math"
	"sort"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
)

// Planner builds cost-based plans from the store's own catalog: its name
// dictionary, value postings and statistics block (relstore/stats.go). A
// Planner is immutable and safe for concurrent use; the tid windows of a
// parallel evaluation all execute its one plan.
type Planner struct {
	s       *relstore.Store
	st      *relstore.StatsParts
	noValue bool

	trees      float64
	elements   float64 // element rows
	totalSpan  float64 // summed root spans
	avgSpanAll float64 // mean element span across all names
}

// Option configures a Planner.
type Option func(*Planner)

// WithoutValueIndex makes the planner never choose the value-index access
// path or value-seeded semijoins; it mirrors the engine option of the same
// name so ablation runs plan what they execute.
func WithoutValueIndex() Option {
	return func(pl *Planner) { pl.noValue = true }
}

// New creates a planner over the store.
func New(s *relstore.Store, opts ...Option) *Planner {
	pl := &Planner{s: s, st: &s.Parts().Stats}
	for _, o := range opts {
		o(pl)
	}
	pl.trees = float64(s.TreeCount())
	pl.elements = float64(s.ElementCount())
	pl.totalSpan = float64(pl.st.TotalSpan)
	var acc float64
	starts := s.Parts().NameStarts
	for id, span := range pl.st.NameSpan { // dictionary order; attribute names add 0
		acc += float64(starts[id+1]-starts[id]) * span
	}
	if pl.elements > 0 {
		pl.avgSpanAll = acc / pl.elements
	}
	if pl.avgSpanAll < 1 {
		pl.avgSpanAll = 1
	}
	return pl
}

// ectx is the planner's model of a step's input context: the name the
// context rows are known to carry ("" or "_" = unknown), their expected
// subtree span, and whether the context is the virtual super-root.
type ectx struct {
	test string
	span float64
	root bool
}

// Plan builds the plan for a compiled query. It never fails: steps it cannot
// improve (positional predicates, attribute axes) keep the engine's default
// strategy and are annotated as such.
func (pl *Planner) Plan(p *lpath.Path) *Plan {
	plan := &Plan{
		steps: make(map[*lpath.Step]*StepPlan),
		semis: make(map[lpath.Expr]*Semijoin),
	}
	plan.Root = pl.planPath(p, ectx{root: true, span: pl.treeSpan()}, 1, plan)
	plan.EstMatches = plan.Root.EstOut
	if plan.Empty = pl.proveEmpty(p, plan); plan.Empty != "" {
		plan.EstMatches = 0
	}
	for _, sp := range plan.steps {
		for _, ppd := range sp.Preds {
			if ppd.Vacuous == "" {
				sp.Exec = append(sp.Exec, ppd.Expr)
			}
		}
	}
	return plan
}

func (pl *Planner) treeSpan() float64 {
	if pl.trees > 0 && pl.totalSpan >= pl.trees {
		return pl.totalSpan / pl.trees
	}
	return 1
}

// --- statistics lookups ---------------------------------------------------

func isWild(test string) bool { return test == "_" || test == "" }

// nameCount is the element cardinality of a node test.
func (pl *Planner) nameCount(test string) float64 {
	if isWild(test) {
		return pl.elements
	}
	return float64(pl.s.NameCount(test))
}

// postings is the exact {value, tid, id} posting-list size of a value.
func (pl *Planner) postings(v string) int { return len(pl.s.ByValue(v)) }

// share is the probability that an arbitrary element satisfies the test.
func (pl *Planner) share(test string) float64 {
	if pl.elements == 0 {
		return 0
	}
	return pl.nameCount(test) / pl.elements
}

// density is the expected number of test-satisfying rows per unit of leaf
// span — the quantity that converts a context's span into a descendant-scan
// cardinality, and the statistics-derived value-index crossover bias.
func (pl *Planner) density(test string) float64 {
	if pl.totalSpan <= 0 {
		return 0
	}
	return pl.nameCount(test) / pl.totalSpan
}

// spanOf is the expected subtree span of an element satisfying the test.
func (pl *Planner) spanOf(test string) float64 {
	if !isWild(test) {
		if id, ok := pl.s.NameID(test); ok && pl.st.NameSpan[id] >= 1 {
			return pl.st.NameSpan[id]
		}
		return 1
	}
	return pl.avgSpanAll
}

// fanout is the expected child count of a context element.
func (pl *Planner) fanout(test string) float64 {
	if !isWild(test) {
		if id, ok := pl.s.NameID(test); ok {
			return max(pl.st.NameFanout[id], 1)
		}
	}
	// The average over internal elements: every element but a root is a child.
	if internal := pl.elements - float64(pl.st.Leaves); internal > 0 {
		return max((pl.elements-pl.trees)/internal, 1)
	}
	return 1
}

func (pl *Planner) avgDepth() float64 {
	if d := pl.st.AvgDepth; d >= 1 {
		return d
	}
	return 1
}

// selfProb is the probability that a context row of c satisfies the test.
func (pl *Planner) selfProb(c ectx, test string) float64 {
	if isWild(test) {
		return 1
	}
	if !isWild(c.test) {
		if c.test == test {
			return 1
		}
		return 0
	}
	return pl.share(test)
}

// --- per-step probe model -------------------------------------------------

// probe estimates, for one axis step from a context of shape c, the expected
// candidate rows per context (cands), the expected rows touched to produce
// them (cost), and the access path the engine will use.
func (pl *Planner) probe(c ectx, axis lpath.Axis, test string) (cands, cost float64, acc Access) {
	scanAcc := AccessNameScan
	if isWild(test) {
		scanAcc = AccessDocScan
	}
	if c.root {
		trees := pl.trees
		switch axis {
		case lpath.AxisChild:
			return math.Min(trees, pl.nameCount(test)), math.Max(trees, 1), AccessChildIndex
		case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
			n := pl.nameCount(test)
			return n, math.Max(n, 1), scanAcc
		default:
			// Other axes are empty from the virtual root.
			return 0, 1, scanAcc
		}
	}
	span := math.Max(c.span, 1)
	switch axis {
	case lpath.AxisSelf:
		return pl.selfProb(c, test), 1, AccessSelf

	case lpath.AxisChild:
		f := pl.fanout(c.test)
		return f * pl.share(test), f, AccessChildIndex

	case lpath.AxisParent:
		return pl.share(test), 1, AccessPidChain

	case lpath.AxisAncestor, lpath.AxisAncestorOrSelf:
		d := pl.avgDepth()
		n := d * pl.share(test)
		if axis == lpath.AxisAncestorOrSelf {
			n += pl.selfProb(c, test)
		}
		return n, d, AccessPidChain

	case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		n := pl.density(test) * span
		if axis == lpath.AxisDescendantOrSelf {
			n += pl.selfProb(c, test)
		}
		return n, math.Max(n, 1), scanAcc

	case lpath.AxisFollowing, lpath.AxisPreceding,
		lpath.AxisFollowingOrSelf, lpath.AxisPrecedingOrSelf:
		// On average half the tree's span lies on either side.
		n := pl.density(test) * pl.treeSpan() / 2
		return n, math.Max(n, 1), scanAcc

	case lpath.AxisImmediateFollowing, lpath.AxisImmediatePreceding:
		// left (right) pinned to one boundary value.
		n := pl.density(test)
		return n, n + 1, scanAcc

	case lpath.AxisFollowingSibling, lpath.AxisPrecedingSibling,
		lpath.AxisFollowingSiblingOrSelf, lpath.AxisPrecedingSiblingOrSelf:
		f := pl.fanout("_")
		return f / 2 * pl.share(test), f, AccessChildIndex

	case lpath.AxisImmediateFollowingSibling, lpath.AxisImmediatePrecedingSibling:
		return pl.share(test), pl.fanout("_"), AccessChildIndex
	}
	return 0, 1, scanAcc
}

// --- path and step planning -----------------------------------------------

// planPath plans one relative path and its scoped tail.
func (pl *Planner) planPath(p *lpath.Path, c ectx, nIn float64, plan *Plan) *PathPlan {
	pp := &PathPlan{Path: p}
	cur, est := c, nIn
	for i := range p.Steps {
		step := &p.Steps[i]
		sp := pl.planStep(step, cur, est, plan)
		pp.Steps = append(pp.Steps, sp)
		plan.steps[step] = sp
		pp.cost += est * sp.cost
		est = sp.EstOut
		cur = ectx{test: step.Test, span: pl.spanOf(step.Test)}
	}
	if p.Scoped != nil {
		pp.Scoped = pl.planPath(p.Scoped, cur, est, plan)
		pp.cost += pp.Scoped.cost
		est = pp.Scoped.EstOut
	}
	pp.EstOut = est
	return pp
}

func (pl *Planner) planStep(step *lpath.Step, c ectx, nIn float64, plan *Plan) *StepPlan {
	sp := &StepPlan{Step: step}
	if step.Axis == lpath.AxisAttribute {
		// Invalid in a navigation path; the engine reports the error.
		sp.Access = AccessSelf
		sp.EstCand, sp.EstOut, sp.cost = nIn, nIn, 1
		return sp
	}
	cands, probeCost, acc := pl.probe(c, step.Axis, step.Test)
	sp.Access = acc
	sp.EstCand = nIn * cands
	positional := step.HasPositional()

	// Value-index access: available when a direct @attr=value predicate has
	// a posting list smaller than the step's name range. Bias is the
	// statistics-derived crossover density the engine compares per binding.
	if !pl.noValue && !positional {
		if val, attr, ok := directEq(step); ok {
			postings := float64(pl.postings(val))
			if postings < pl.nameCount(step.Test) {
				sp.Value, sp.Attr, sp.Postings = val, "@"+attr, pl.postings(val)
				sp.Bias = pl.density(step.Test)
				switch {
				case c.root:
					sp.Access = AccessValueIndex
				case step.Axis == lpath.AxisDescendant || step.Axis == lpath.AxisDescendantOrSelf:
					if postings < sp.Bias*math.Max(c.span, 1) {
						sp.Access = AccessValueIndex
					}
				}
			}
		}
	}

	// Predicates: estimate each conjunct, then order the commutative ones
	// cheapest-effective-first (rank = cost / (1 - selectivity)).
	pctx := ectx{test: step.Test, span: pl.spanOf(step.Test)}
	sel := 1.0
	for _, pred := range step.Preds {
		ppd := pl.planExpr(pred, pctx, math.Max(sp.EstCand, 1), plan)
		if sp.Access == AccessValueIndex && consumedByValue(pred, sp.Value, sp.Attr) {
			ppd.Cost = 0
			ppd.Note = "satisfied by value probe"
		}
		sp.Preds = append(sp.Preds, ppd)
		sel *= ppd.Sel
	}
	if !positional && len(sp.Preds) > 1 && !predsCanError(step.Preds) {
		sort.SliceStable(sp.Preds, func(i, j int) bool {
			return predRank(sp.Preds[i]) < predRank(sp.Preds[j])
		})
	}

	sp.EstOut = sp.EstCand * sel
	if sp.Access == AccessValueIndex {
		probeCost = math.Max(float64(sp.Postings), 1)
	}
	predCost := 0.0
	pass := 1.0
	for _, ppd := range sp.Preds {
		predCost += pass * ppd.Cost
		pass *= ppd.Sel
	}
	sp.cost = probeCost + cands*predCost
	return sp
}

// BitmapStep reports whether a step has the shape a bitmap kernel supports
// (internal/engine/bitmap.go); which side runs it is the engine's run-time
// choice. A subtree-scope entry (entry set) takes a downward axis, whose
// scopes lie on the candidate's parent chain. Any other step, unscoped or
// over a scoped frontier, takes every axis whose Table 2 conjunction one
// posting walk can test against a summary of the frontier: /, =>, ==>, <==,
// //, -->, <--, -> and <-, and the or-self forms. Neither takes positional
// predicates: the kernels emit bindings in posting order, not per-context
// document order.
func BitmapStep(step *lpath.Step, entry bool) bool {
	if step.HasPositional() {
		return false
	}
	switch step.Axis {
	case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		return true
	case lpath.AxisImmediateFollowingSibling, lpath.AxisFollowingSibling, lpath.AxisPrecedingSibling,
		lpath.AxisFollowing, lpath.AxisFollowingOrSelf,
		lpath.AxisPreceding, lpath.AxisPrecedingOrSelf,
		lpath.AxisImmediateFollowing, lpath.AxisImmediatePreceding:
		return !entry
	}
	return false
}

// predRank orders predicates for execution: pay little, filter much. The
// 1-sel denominator sends near-certain predicates to the back regardless of
// cost, since they rarely shrink the pipeline.
func predRank(p *PredPlan) float64 {
	return p.Cost / math.Max(1-p.Sel, 1e-6)
}

// directEq finds the first direct @attr=value equality among the step's
// predicates with a posting list usable as an access path — the same
// first-match rule the engine's valueDriver applies, so plan and execution
// agree on which predicate drives.
func directEq(step *lpath.Step) (value, attr string, ok bool) {
	for _, pred := range step.Preds {
		cmp, isCmp := pred.(*lpath.CmpExpr)
		if !isCmp || !isDirectEq(cmp) {
			continue
		}
		return cmp.Value, cmp.Path.Steps[0].Test, true
	}
	return "", "", false
}

// isDirectEq mirrors the engine's test for a value-index-drivable predicate:
// an equality on an attribute of the context node itself.
func isDirectEq(c *lpath.CmpExpr) bool {
	if c.Op != "=" || c.Path.Scoped != nil || len(c.Path.Steps) != 1 {
		return false
	}
	return c.Path.Steps[0].Axis == lpath.AxisAttribute
}

// consumedByValue reports whether the predicate is the direct equality the
// value probe already enforced.
func consumedByValue(pred lpath.Expr, value, attrName string) bool {
	cmp, ok := pred.(*lpath.CmpExpr)
	return ok && isDirectEq(cmp) && cmp.Value == value && "@"+cmp.Path.Steps[0].Test == attrName
}
