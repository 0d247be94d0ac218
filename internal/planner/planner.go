package planner

import (
	"math"
	"sort"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
)

// Planner builds cost-based plans from a statistics snapshot. A Planner is
// immutable and safe for concurrent use; the tid windows of a parallel
// evaluation all execute its one plan.
type Planner struct {
	st       *relstore.Statistics
	noValue  bool
	noTwig   bool
	noBitmap bool

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

// WithoutTwig makes the planner never mark holistic twig runs, so every step
// keeps its per-step probe/merge strategy; it mirrors the engine option of
// the same name so the twig-off engine plans exactly what it executes.
func WithoutTwig() Option {
	return func(pl *Planner) { pl.noTwig = true }
}

// WithoutBitmap makes the planner never mark bitmap scope entries, so scoped
// tails keep their per-step probe/merge/twig strategies; it mirrors the
// engine option of the same name so the bitmap-off engine plans exactly what
// it executes.
func WithoutBitmap() Option {
	return func(pl *Planner) { pl.noBitmap = true }
}

// New creates a planner over the snapshot (nil is treated as an empty
// corpus).
func New(st *relstore.Statistics, opts ...Option) *Planner {
	if st == nil {
		st = &relstore.Statistics{}
	}
	pl := &Planner{st: st}
	for _, o := range opts {
		o(pl)
	}
	pl.elements = float64(st.Elements)
	pl.totalSpan = float64(st.TotalSpan)
	var acc float64
	for _, ns := range st.Names {
		acc += float64(ns.Count) * ns.Span
	}
	if st.Elements > 0 {
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
		Text:      p.String(),
		Threshold: pl.st.NodesPerSpan(),
		steps:     make(map[*lpath.Step]*StepPlan),
		semis:     make(map[lpath.Expr]*Semijoin),
	}
	plan.Root = pl.planPath(p, ectx{root: true, span: pl.treeSpan()}, 1, plan, "", true)
	if !pl.noTwig {
		pl.markTwigRuns(plan.Root, true, false)
	}
	if !pl.noBitmap {
		pl.markBitmapSteps(plan.Root)
	}
	plan.EstMatches = plan.Root.EstOut
	return plan
}

func (pl *Planner) treeSpan() float64 {
	if s := pl.st.AvgTreeSpan(); s >= 1 {
		return s
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
	return float64(pl.st.NameCount(test))
}

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
		if ns, ok := pl.st.Names[test]; ok && ns.Span >= 1 {
			return ns.Span
		}
		return 1
	}
	return pl.avgSpanAll
}

// fanout is the expected child count of a context element.
func (pl *Planner) fanout(test string) float64 {
	if !isWild(test) {
		if ns, ok := pl.st.Names[test]; ok {
			if ns.Fanout < 1 {
				return 1
			}
			return ns.Fanout
		}
	}
	if f := pl.st.AvgFanout(); f >= 1 {
		return f
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
		trees := float64(pl.st.Trees)
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

// planPath plans one relative path. When keyed is set (the main path chain:
// the root path and its nested subtree scopes), prefix is the canonical
// structural key of everything evaluated before the path, and every step is
// stamped with its cumulative key — equal keys across queries denote equal
// planner inputs from the virtual root, hence equal frontiers a batch can
// share. Predicate paths plan unkeyed: their frontiers depend on the outer
// candidate, and their cross-query sharing runs through Semijoin.Key.
func (pl *Planner) planPath(p *lpath.Path, c ectx, nIn float64, plan *Plan, prefix string, keyed bool) *PathPlan {
	pp := &PathPlan{Path: p}
	cur, est := c, nIn
	acc := prefix
	for i := range p.Steps {
		step := &p.Steps[i]
		sp := pl.planStep(step, cur, est, plan)
		if keyed {
			acc += stepCanon(step)
			sp.Key = acc
		}
		pp.Steps = append(pp.Steps, sp)
		plan.steps[step] = sp
		pp.cost += est * sp.cost
		est = sp.EstOut
		cur = ectx{test: step.Test, span: pl.spanOf(step.Test)}
	}
	if keyed {
		pp.Key = acc
	}
	if p.Scoped != nil {
		pp.Scoped = pl.planPath(p.Scoped, cur, est, plan, acc+"{", keyed)
		pl.markBitmapEntry(pp.Scoped, cur, est)
		pp.cost += pp.Scoped.cost
		est = pp.Scoped.EstOut
	}
	pp.EstOut = est
	return pp
}

func (pl *Planner) planStep(step *lpath.Step, c ectx, nIn float64, plan *Plan) *StepPlan {
	sp := &StepPlan{Step: step, EstIn: nIn}
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
			postings := float64(pl.st.PostingCount(val))
			if postings < pl.nameCount(step.Test) {
				sp.Value, sp.Attr, sp.Postings = val, "@"+attr, pl.st.PostingCount(val)
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

	// Execution strategy: for the mergeable axes, compare the modeled cost
	// of per-binding probes — a binary search into the posting plus the scan
	// per context — against one set-at-a-time sweep: sorting the frontier,
	// then advancing a single posting cursor with galloping, which bounds the
	// sweep by min(posting touches, probe touches). The merge executor
	// requires the candidate set to be a pure function of (context, scope),
	// so positional predicates and edge alignment keep the probe, as does the
	// virtual root (its probe is already a single range handover) and the
	// value index (a different access path altogether).
	if MergeableAxis(step.Axis) && !positional && !step.LeftAlign && !step.RightAlign &&
		!c.root && sp.Access != AccessValueIndex {
		f := math.Max(nIn, 1)
		posting := math.Max(pl.nameCount(step.Test), 1)
		lgP := math.Log2(math.Max(posting, 2))
		lgF := math.Log2(f + 2)
		// Sorting the frontier touches rows sequentially; a probe's binary
		// search chases cold cache lines. Weight sort comparisons at a
		// quarter of a probe touch.
		sortCost := 0.25 * f * lgF
		var probeTotal, mergeTotal float64
		if step.Axis == lpath.AxisChild {
			// Child probes hit the {tid,pid} hash index (no log); the merge
			// variant walks the whole posting list and binary-searches the
			// frontier, so it only pays off for very dense frontiers.
			probeTotal = f * probeCost
			mergeTotal = sortCost + posting*lgF
		} else {
			// Per-binding overhead (buffer handling, probe setup) rides on
			// every probe; galloping bounds the sweep by whichever is
			// smaller, the posting walk or the per-context searches.
			const probeOverhead = 4
			probeTotal = f * (lgP + probeOverhead + probeCost)
			mergeTotal = sortCost + math.Min(posting, f*lgP) + f + probeCost
		}
		if mergeTotal < probeTotal {
			sp.Strategy = StrategyMerge
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
		ordered := make([]*PredPlan, len(sp.Preds))
		copy(ordered, sp.Preds)
		sort.SliceStable(ordered, func(i, j int) bool {
			return predRank(ordered[i]) < predRank(ordered[j])
		})
		for i := range ordered {
			if ordered[i] != sp.Preds[i] {
				sp.Reordered = true
			}
		}
		sp.Preds = ordered
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

// MergeableAxis reports whether the axis has a set-at-a-time merge
// implementation in the engine (internal/engine/merge.go): the axes whose
// candidate ranges are sargable over one sorted posting ordering. Sibling
// axes probe per-parent child lists and the vertical reverse axes walk the
// pid chain, so they stay per-binding.
func MergeableAxis(axis lpath.Axis) bool {
	switch axis {
	case lpath.AxisChild,
		lpath.AxisDescendant, lpath.AxisDescendantOrSelf,
		lpath.AxisFollowing, lpath.AxisFollowingOrSelf,
		lpath.AxisPreceding, lpath.AxisPrecedingOrSelf,
		lpath.AxisImmediateFollowing, lpath.AxisImmediatePreceding:
		return true
	}
	return false
}

// TwigableAxis reports whether the axis can participate in a holistic twig
// run (internal/engine/twig.go): the forward axes whose supporting context
// row always arrives no later than the supported row in one document-order
// (tid, left, depth) sweep, so support can be decided at arrival time from a
// per-step stack, adjacency stack, or running minimum. The reverse axes would
// need supporters from the future and the sibling axes a per-parent map, so
// they stay with probe/merge — and => with the bitmap step kernel, which
// finds a candidate's one possible context directly.
func TwigableAxis(axis lpath.Axis) bool {
	switch axis {
	case lpath.AxisChild,
		lpath.AxisDescendant, lpath.AxisDescendantOrSelf,
		lpath.AxisFollowing, lpath.AxisFollowingOrSelf,
		lpath.AxisImmediateFollowing:
		return true
	}
	return false
}

// TwigPushablePred reports whether the predicate can be pushed into the twig
// sweep as a constant-time per-arrival filter: a comparison on an attribute
// of the candidate node itself.
func TwigPushablePred(x lpath.Expr) bool {
	cmp, ok := x.(*lpath.CmpExpr)
	if !ok || (cmp.Op != "=" && cmp.Op != "!=") {
		return false
	}
	return cmp.Path.Scoped == nil && len(cmp.Path.Steps) == 1 &&
		cmp.Path.Steps[0].Axis == lpath.AxisAttribute
}

// TwigableStep reports whether a step can be a member of a holistic twig
// run. Positional predicates need the materialized per-context candidate
// list, and relative-path predicates need per-binding evaluation, so both
// exclude the step. Edge alignment compares against the enclosing scope,
// which is only constant across the sweep inside a subtree scope.
func TwigableStep(step *lpath.Step, inScope bool) bool {
	if !TwigableAxis(step.Axis) || step.HasPositional() {
		return false
	}
	if (step.LeftAlign || step.RightAlign) && !inScope {
		return false
	}
	for _, p := range step.Preds {
		if !TwigPushablePred(p) {
			return false
		}
	}
	return true
}

// BitmapStep reports whether a step has the shape a bitmap kernel supports
// (internal/engine/bitmap.go). A subtree-scope entry (entry set) takes a
// downward axis, whose scopes lie on the candidate's parent chain; a
// main-path step takes / or =>, whose one possible context is the
// candidate's parent or its immediately preceding sibling. Neither takes
// positional predicates: the kernels emit bindings in posting order, not
// per-context document order.
func BitmapStep(step *lpath.Step, entry bool) bool {
	if step.HasPositional() {
		return false
	}
	switch step.Axis {
	case lpath.AxisChild:
		return true
	case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		return entry
	case lpath.AxisImmediateFollowingSibling:
		return !entry
	}
	return false
}

// bitmapTouchCost weights one bitmap scope-entry touch — a posting row's
// parent-column load plus a bitset membership test — against one modeled
// probe row touch. Two sequential array loads against a hash probe or a
// binary search, so well under 1.
const bitmapTouchCost = 0.3

// markBitmapEntry decides whether the first step of a subtree-scoped tail
// runs as a bitmap scope entry: instead of expanding every scope into a
// binding, deduplicating, and probing the step per scope, the engine sets
// the scope rows in a dense bitset and walks the step's posting list once,
// resolving scope membership through the parent-pointer column. The modeled
// crossover compares per-scope probing (plus the frontier expansion and
// dedup the scoped branch pays) against one posting sweep whose per-row cost
// is the parent chain walked — length 1 for the child axis, a short prefix
// for edge-aligned descendants (alignment breaks the climb at the first
// non-aligned ancestor), half the average depth otherwise.
func (pl *Planner) markBitmapEntry(scoped *PathPlan, c ectx, scopes float64) {
	if pl.noBitmap || len(scoped.Steps) == 0 {
		return
	}
	sp := scoped.Steps[0]
	if sp.Access == AccessValueIndex || !BitmapStep(sp.Step, true) {
		return
	}
	_, probeCost, _ := pl.probe(c, sp.Step.Axis, sp.Step.Test)
	f := math.Max(scopes, 1)
	posting := math.Max(pl.nameCount(sp.Step.Test), 1)
	// Per-scope probing pays the access path plus per-binding overhead
	// (buffer handling, hash or search setup) for every scope, and the
	// scoped branch additionally materializes and deduplicates the scope
	// frontier.
	const probeOverhead = 4
	stepwise := f*(probeCost+probeOverhead) + 2*f
	climb := 1.0
	if sp.Step.Axis != lpath.AxisChild {
		if sp.Step.LeftAlign || sp.Step.RightAlign {
			climb = 2
		} else {
			climb = math.Max(pl.avgDepth()/2, 1)
		}
	}
	bitmap := 0.2*f + bitmapTouchCost*posting*climb
	if bitmap < stepwise {
		sp.Strategy = StrategyBitmap
	}
}

// markTwigRuns is a post-pass over the main path chain (the root path and
// its nested subtree scopes — not predicate paths, which evaluate per
// binding): it finds maximal runs of twig-able steps and, where the modeled
// holistic sweep beats the chosen per-step strategies, marks every member
// StrategyTwig and stamps the run length on the head step. An unscoped run
// whose steps after the head are all / is left to markBitmapSteps: twig
// keeps only the mixed runs, those with a //, -> or --> join.
func (pl *Planner) markTwigRuns(pp *PathPlan, root, inScope bool) {
	steps := pp.Steps
	for i := 0; i < len(steps); {
		if !pl.twigEligible(steps[i], root && i == 0, inScope) {
			i++
			continue
		}
		j := i + 1
		mixed := inScope || pl.noBitmap
		for j < len(steps) && pl.twigEligible(steps[j], false, inScope) {
			mixed = mixed || steps[j].Step.Axis != lpath.AxisChild
			j++
		}
		if j-i >= 2 && mixed && pl.twigWins(steps[i:j], root && i == 0) {
			for _, sp := range steps[i:j] {
				sp.Strategy = StrategyTwig
			}
			steps[i].TwigRun = j - i
		}
		i = j
	}
	if pp.Scoped != nil {
		pl.markTwigRuns(pp.Scoped, false, true)
	}
}

// markBitmapSteps marks the root path's / and => steps exec=bitmap, except
// the first (its context is the virtual root, whose probe is already a
// range handover) and the members of twig runs. The engine then picks, per
// frontier and on actual sizes, between the bitmap step kernel — one walk of
// the step's posting against the frontier's row set — and per-binding
// probes. Subtree-scoped steps are not marked: the kernel resolves one
// context per candidate, not one per (context, scope) pair.
func (pl *Planner) markBitmapSteps(pp *PathPlan) {
	for i := 1; i < len(pp.Steps); i++ {
		sp := pp.Steps[i]
		if sp.Strategy != StrategyTwig && sp.Access != AccessValueIndex && BitmapStep(sp.Step, false) {
			sp.Strategy = StrategyBitmap
		}
	}
}

// twigEligible is TwigableStep plus the planner-side exclusions: the value
// index is a different access path, and a run headed at the virtual root can
// only open with an axis the super-root supports.
func (pl *Planner) twigEligible(sp *StepPlan, fromRoot, inScope bool) bool {
	if sp.Access == AccessValueIndex || sp.Strategy == StrategyBitmap {
		return false
	}
	if !TwigableStep(sp.Step, inScope) {
		return false
	}
	if fromRoot {
		switch sp.Step.Axis {
		case lpath.AxisChild, lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		default:
			return false
		}
	}
	return true
}

// twigTouchCost weights one twig-sweep posting touch (an arrival: a cursor
// advance, a stack/heap maintenance step and a support test) against one
// modeled probe row touch. Sequential columnar reads against pointer-chasing
// probes, so well under 1.
const twigTouchCost = 0.5

// twigWins compares the modeled cost of evaluating the run holistically —
// sort the input frontier once, then stream every step's posting window
// through constant-time per-arrival work — against the per-step strategies,
// which also pay to materialize and deduplicate every intermediate frontier.
func (pl *Planner) twigWins(run []*StepPlan, fromRoot bool) bool {
	stepwise := 0.0
	for _, sp := range run {
		stepwise += math.Max(sp.EstIn, 1) * sp.cost
	}
	for _, sp := range run[:len(run)-1] {
		stepwise += 2 * sp.EstOut
	}
	f := math.Max(run[0].EstIn, 1)
	twig := 0.25 * f * math.Log2(f+2)
	for _, sp := range run {
		p := math.Max(pl.nameCount(sp.Step.Test), 1)
		touch := p
		if !fromRoot {
			// A bounded frontier opens per-scope posting windows: pay the
			// seeks plus the expected candidates instead of the whole list.
			touch = math.Min(p, f*math.Log2(p+2)+sp.EstCand)
		}
		twig += twigTouchCost * touch
	}
	return twig < stepwise
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
