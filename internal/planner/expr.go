package planner

import (
	"math"

	"lpath/internal/lpath"
)

// Predicate planning: estimate each conjunct's selectivity and per-candidate
// cost, and — for existential path filters — register the set strategy, a
// semijoin (materialize the filter's satisfier set once from its selective
// end, then test candidates by membership), with the cost inputs the engine
// weighs against forward evaluation per frontier at run time.

// selFloor keeps selectivities strictly positive so downstream estimates
// stay ordered instead of collapsing to zero.
const selFloor = 1e-4

func clampSel(s float64) float64 {
	if s < selFloor {
		return selFloor
	}
	if s > 1 {
		return 1
	}
	return s
}

// planExpr estimates one predicate expression evaluated against nCtx
// candidate rows of shape c.
func (pl *Planner) planExpr(x lpath.Expr, c ectx, nCtx float64, plan *Plan) *PredPlan {
	pp := &PredPlan{Expr: x}
	switch e := x.(type) {
	case *lpath.AndExpr:
		l := pl.planExpr(e.L, c, nCtx, plan)
		r := pl.planExpr(e.R, c, nCtx*l.Sel, plan)
		pp.Sel = clampSel(l.Sel * r.Sel)
		pp.Cost = l.Cost + l.Sel*r.Cost
		pp.Paths = append(append(pp.Paths, l.Paths...), r.Paths...)

	case *lpath.OrExpr:
		l := pl.planExpr(e.L, c, nCtx, plan)
		r := pl.planExpr(e.R, c, nCtx*(1-l.Sel), plan)
		pp.Sel = clampSel(1 - (1-l.Sel)*(1-r.Sel))
		pp.Cost = l.Cost + (1-l.Sel)*r.Cost
		pp.Paths = append(append(pp.Paths, l.Paths...), r.Paths...)

	case *lpath.NotExpr:
		inner := pl.planExpr(e.X, c, nCtx, plan)
		pp.Sel = clampSel(1 - inner.Sel)
		pp.Cost = inner.Cost
		pp.Paths = inner.Paths

	case *lpath.PositionExpr, *lpath.LastExpr:
		pp.Sel, pp.Cost = 0.5, 0

	case *lpath.CountExpr:
		hp := pl.planPath(e.Path, c, 1, plan)
		pp.Sel = 0.5
		pp.Cost = hp.cost
		pp.Paths = []*PathPlan{hp}

	case *lpath.StrFnExpr:
		head, _, err := lpath.SplitAttr(e.Path)
		if err != nil || head == nil {
			pp.Sel, pp.Cost = 0.1, 1
			break
		}
		hp := pl.planPath(head, c, 1, plan)
		pp.Sel = clampSel(math.Min(1, hp.EstOut) * 0.1)
		pp.Cost = hp.cost + 1
		pp.Paths = []*PathPlan{hp}

	case *lpath.PathExpr:
		return pl.planExistential(x, e.Path, "", "", c, nCtx, plan)

	case *lpath.CmpExpr:
		return pl.planExistential(x, e.Path, e.Op, e.Value, c, nCtx, plan)

	default:
		pp.Sel, pp.Cost = 0.5, 1
	}
	return pp
}

// attrShare is the probability that an element carries the attribute.
func (pl *Planner) attrShare(attr string) float64 {
	if pl.elements == 0 {
		return 0
	}
	return math.Min(1, float64(pl.st.AttrNames["@"+attr])/pl.elements)
}

// planExistential estimates an existence filter [path] or comparison
// [path op 'value'] and registers a semijoin when the reverse strategy is
// modeled cheaper.
func (pl *Planner) planExistential(x lpath.Expr, path *lpath.Path, op, value string, c ectx, nCtx float64, plan *Plan) *PredPlan {
	pp := &PredPlan{Expr: x}
	head, attr, err := lpath.SplitAttr(path)
	if err != nil {
		// Unreachable after Validate; keep neutral estimates.
		pp.Sel, pp.Cost = 0.5, 1
		return pp
	}
	if head == nil {
		// Attribute of the context node itself: one index lookup.
		pp.Cost = 1
		switch op {
		case "=":
			pp.Sel = clampSel(math.Min(pl.attrShare(attr),
				float64(pl.st.PostingCount(value))/math.Max(pl.nameCount(c.test), 1)))
			pp.Note = "attr probe"
		case "!=":
			pp.Sel = clampSel(pl.attrShare(attr) * 0.9)
		default:
			pp.Sel = clampSel(pl.attrShare(attr))
		}
		return pp
	}

	if tail := ScopeOnlyTail(x); tail != nil {
		return pl.planScopeOnly(pp, head, tail, c, nCtx, plan)
	}
	hp := pl.planPath(head, c, 1, plan)
	pp.Paths = []*PathPlan{hp}
	m := hp.EstOut
	lastTest := lastStepTest(head)
	switch {
	case attr == "":
		pp.Sel = clampSel(math.Min(1, m))
	case op == "=":
		pv := float64(pl.st.PostingCount(value)) / math.Max(pl.nameCount(lastTest), 1)
		pp.Sel = clampSel(m * math.Min(pv, 1))
	case op == "!=":
		pp.Sel = clampSel(m * pl.attrShare(attr) * 0.9)
	default:
		pp.Sel = clampSel(m * pl.attrShare(attr))
	}
	pp.Cost = hp.cost + 1

	if sj := pl.planSemijoin(x, head, hp, attr, op, value, pp.Cost); sj != nil {
		sj.ID = len(plan.semis)
		plan.semis[x] = sj
		// The engine answers the frontier whichever way is cheaper on its
		// actual sizes; order predicates by the cheaper estimate.
		n := math.Max(nCtx, 1)
		pp.Cost = math.Min(sj.forwardCost(n), sj.setCost(n, sj.seedScan)) / n
	}
	return pp
}

// ScopeOnlyTail returns the tail of a scope-only filter [{tail}] that the
// engine answers for a whole frontier at once — the tail run once from every
// candidate as its own scope — or nil when the filter has another shape: an
// attribute comparison, steps before the scope, a nested scope inside the
// tail, or a predicate that could raise a runtime error (running the tail
// for the whole frontier must not change whether one surfaces).
func ScopeOnlyTail(x lpath.Expr) *lpath.Path {
	pe, ok := x.(*lpath.PathExpr)
	if !ok || len(pe.Path.Steps) != 0 || pe.Path.Scoped == nil {
		return nil
	}
	tail := pe.Path.Scoped
	if tail.Scoped != nil || len(tail.Steps) == 0 || pathPredsCanError(tail) || pathHasAttrStep(tail) {
		return nil
	}
	return tail
}

// planScopeOnly plans a scope-only filter's tail as the engine runs it: once
// for the whole frontier of nCtx candidates, like a main-path scoped tail, so
// the scope entry is chosen for that frontier.
func (pl *Planner) planScopeOnly(pp *PredPlan, head, tail *lpath.Path, c ectx, nCtx float64, plan *Plan) *PredPlan {
	n := math.Max(nCtx, 1)
	hp := pl.planPath(head, c, n, plan)
	pp.Paths = []*PathPlan{hp}
	pp.Sel = clampSel(math.Min(1, hp.EstOut/n))
	pp.Cost = hp.cost/n + 1
	pp.Note = "scope filter"
	return pp
}

// nestedEvalCost is the fixed cost, in modeled row touches, of one nested
// path evaluation: the frontier buffers, plan lookups and step dispatch a
// forward filter pays for every candidate before its probe touches a row.
const nestedEvalCost = 8

// forwardCost models answering n candidates forward: per candidate, one
// binary search into the filter's first posting plus the fixed cost of a
// nested evaluation and the path's modeled row touches.
func (sj *Semijoin) forwardCost(n float64) float64 {
	return n * (sj.probe + math.Log2(sj.posting+2) + nestedEvalCost)
}

// setCost models answering n candidates from a satisfier set seeded from
// seeds rows: the seed scan, the per-level climbs (the planned climb cost
// scaled to the seed count), and one membership test per candidate.
func (sj *Semijoin) setCost(n, seeds float64) float64 {
	return seeds*(1+sj.climbPerSeed) + n
}

// SetWins is the engine's run-time choice for a frontier of n candidates,
// fwd of them (n included) answered forward so far in this evaluation, when
// the seed range holds seeds rows: materialize the satisfier set once its
// cost no longer exceeds the forward work it replaces. Counting earlier
// frontiers makes a filter probed from many small frontiers — a nested path,
// a per-binding probe — switch to its set once the forward work adds up.
func (sj *Semijoin) SetWins(fwd, n, seeds int) bool {
	return sj.setCost(float64(n), float64(seeds)) <= sj.forwardCost(float64(fwd))
}

// planSemijoin models the set strategy for the filter and returns it when it
// is sound: reversible axes, no alignment, no positional or error-capable
// predicates, no subtree scope inside the filter. Whether the set or the
// forward evaluation runs is decided per frontier by the engine (SetWins).
func (pl *Planner) planSemijoin(x lpath.Expr, head *lpath.Path, hp *PathPlan, attr, op, value string, fwdCost float64) *Semijoin {
	if !reversible(head) {
		return nil
	}
	steps := head.Steps
	k := len(steps)
	last := &steps[k-1]

	sj := &Semijoin{Expr: x, Head: head, Attr: attr, Op: op, Value: value,
		probe: fwdCost, posting: pl.nameCount(steps[0].Test)}
	var seedCost float64
	switch {
	case op == "=" && attr != "" && !pl.noValue:
		sj.Seed = SeedValue
		sj.SeedValue, sj.SeedAttr = value, "@"+attr
		sj.EstSeed = float64(pl.st.PostingCount(value))
		seedCost = math.Max(sj.EstSeed, 1)
		sj.EstSeed *= predSel(hp.Steps[k-1])
	default:
		if v, a, ok := directEq(last); ok && !pl.noValue &&
			float64(pl.st.PostingCount(v)) < pl.nameCount(last.Test) {
			sj.Seed = SeedValue
			sj.SeedValue, sj.SeedAttr = v, "@"+a
			sj.EstSeed = float64(pl.st.PostingCount(v))
			seedCost = math.Max(sj.EstSeed, 1)
			// The posting list already enforces the driving equality; only
			// the remaining predicates thin the seed further.
			sj.EstSeed *= predSelExcluding(hp.Steps[k-1], v, "@"+a)
		} else {
			sj.Seed = SeedName
			sj.EstSeed = pl.nameCount(last.Test)
			seedCost = math.Max(sj.EstSeed, 1)
			sj.EstSeed *= predSel(hp.Steps[k-1])
		}
		if attr != "" {
			sj.EstSeed *= pl.attrShare(attr)
		}
	}

	// The seed step's predicates, less the equality a posting-list seed
	// already enforces.
	for _, pred := range last.Preds {
		if sj.Seed == SeedValue && consumedByValue(pred, sj.SeedValue, sj.SeedAttr) {
			continue
		}
		sj.SeedPreds = append(sj.SeedPreds, pred)
	}

	// Walk the inverse axes from the seed level back to the head of the
	// filter path, capping each level at its name cardinality.
	r := sj.EstSeed
	climb := 0.0
	for i := k - 1; i >= 1; i-- {
		inv, _ := lpath.InverseAxis(steps[i].Axis)
		cctx := ectx{test: steps[i].Test, span: pl.spanOf(steps[i].Test)}
		cands, cost, _ := pl.probe(cctx, inv, steps[i-1].Test)
		climb += r * cost
		r = math.Min(pl.nameCount(steps[i-1].Test), r*cands) * predSel(hp.Steps[i-1])
	}
	inv0, _ := lpath.InverseAxis(steps[0].Axis)
	cands, cost, _ := pl.probe(ectx{test: steps[0].Test, span: pl.spanOf(steps[0].Test)}, inv0, "_")
	climb += r * cost
	sj.EstSet = math.Min(pl.elements, r*cands)
	sj.seedScan = seedCost
	sj.climbPerSeed = climb / seedCost
	return sj
}

// lastStepTest is the node test of the path's final location step (its
// innermost scoped tail), or "_" when the path navigates by scope alone.
func lastStepTest(p *lpath.Path) string {
	test := "_"
	for q := p; q != nil; q = q.Scoped {
		if n := len(q.Steps); n > 0 {
			test = q.Steps[n-1].Test
		}
	}
	return test
}

// predSel is the combined selectivity of a planned step's predicates.
func predSel(sp *StepPlan) float64 {
	s := 1.0
	for _, p := range sp.Preds {
		s *= p.Sel
	}
	return s
}

// predSelExcluding is predSel with the consumed @attr=value equality left
// out (its selectivity is already paid by the posting-list seed).
func predSelExcluding(sp *StepPlan, value, attrName string) float64 {
	s := 1.0
	for _, p := range sp.Preds {
		if consumedByValue(p.Expr, value, attrName) {
			continue
		}
		s *= p.Sel
	}
	return s
}

// reversible reports whether the filter path can be evaluated backwards with
// identical semantics: every axis invertible, no attribute axis mid-path, no
// edge alignment (it binds to the outer context), no positional predicates
// (their counting context is forward-only), no subtree scope, and no
// predicate that could raise a runtime error (reversal changes which rows a
// predicate is evaluated on, and must not change whether an error surfaces).
func reversible(head *lpath.Path) bool {
	if head == nil || head.Scoped != nil || len(head.Steps) == 0 {
		return false
	}
	for i := range head.Steps {
		s := &head.Steps[i]
		if s.Axis == lpath.AxisAttribute || s.LeftAlign || s.RightAlign || s.HasPositional() {
			return false
		}
		if _, ok := lpath.InverseAxis(s.Axis); !ok {
			return false
		}
		if predsCanError(s.Preds) {
			return false
		}
	}
	return true
}

// --- runtime-error analysis -----------------------------------------------

// Validate rejects almost every malformed query before evaluation, but
// count()'s path is validated as a predicate path and may legally contain an
// attribute step that the join pipeline then rejects at runtime — and only
// if evaluation actually reaches it. Reordering predicates or reversing a
// filter changes which rows (and hence whether) such a predicate runs, so
// any predicate that could error pins the written order.

func predsCanError(preds []lpath.Expr) bool {
	for _, p := range preds {
		if exprCanError(p) {
			return true
		}
	}
	return false
}

func exprCanError(x lpath.Expr) bool {
	switch e := x.(type) {
	case *lpath.AndExpr:
		return exprCanError(e.L) || exprCanError(e.R)
	case *lpath.OrExpr:
		return exprCanError(e.L) || exprCanError(e.R)
	case *lpath.NotExpr:
		return exprCanError(e.X)
	case *lpath.PathExpr:
		return pathPredsCanError(e.Path)
	case *lpath.CmpExpr:
		return pathPredsCanError(e.Path)
	case *lpath.StrFnExpr:
		return pathPredsCanError(e.Path)
	case *lpath.CountExpr:
		return pathHasAttrStep(e.Path) || pathPredsCanError(e.Path)
	}
	return false
}

func pathHasAttrStep(p *lpath.Path) bool {
	for q := p; q != nil; q = q.Scoped {
		for i := range q.Steps {
			if q.Steps[i].Axis == lpath.AxisAttribute {
				return true
			}
		}
	}
	return false
}

func pathPredsCanError(p *lpath.Path) bool {
	for q := p; q != nil; q = q.Scoped {
		for i := range q.Steps {
			if predsCanError(q.Steps[i].Preds) {
				return true
			}
		}
	}
	return false
}
