package engine

import (
	"slices"

	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// Set-at-a-time filters (docs/EXECUTION.md, "Bitmap filter kernels"). An
// existential filter the planner registered a Semijoin on can be answered two
// ways: forward, evaluating the filter path from every candidate, or through
// its satisfier set — the rows from which the path has a match, materialized
// once per evaluation window by seeding from the path's final step (a value
// posting list or one clustered name range) and walking the inverse axes
// back to its head. filterPred makes the choice per frontier from the actual
// frontier and seed sizes (planner.Semijoin.SetWins). Soundness rests on the
// Table 2 label predicates being symmetric under lpath.InverseAxis, and on
// the planner's reversibility gate (no alignment, no positional or
// error-capable predicates, no subtree scope, no attribute axes mid-path),
// which guarantees the reverse walk visits exactly the rows a forward
// evaluation could have reached. Sets exist for unscoped candidates only: a
// filter evaluated inside a subtree scope sees only that scope's rows.

// filterState is one set-capable filter's state within an evaluation window.
type filterState struct {
	set   *spanSet // the satisfier set, once materialized
	fwd   int      // candidates answered forward so far
	seeds int      // seed rows in the window plus one; 0 until counted
}

// filter returns the state of the semijoin's filter, growing the table to
// the plan's numbering on first use. The pointer is valid until the next
// call: materializing one filter's set may grow the table for another.
func (c *evalCtx) filter(sj *planner.Semijoin) *filterState {
	if n := sj.ID + 1; n > len(c.filters) {
		c.filters = slices.Grow(c.filters, n-len(c.filters))[:n]
	}
	return &c.filters[sj.ID]
}

// setFor returns the filter's satisfier set when one is materialized.
func (c *evalCtx) setFor(x lpath.Expr) *spanSet {
	sj := c.semijoin(x)
	if sj == nil || sj.ID >= len(c.filters) {
		return nil
	}
	return c.filters[sj.ID].set
}

// chooseSets walks the predicate's boolean structure and decides, for every
// set-capable leaf, whether its satisfier set answers the frontier of n
// candidates, materializing the set when it does.
func (e *Engine) chooseSets(x lpath.Expr, n int, ctx *evalCtx) error {
	switch t := x.(type) {
	case *lpath.AndExpr:
		if err := e.chooseSets(t.L, n, ctx); err != nil {
			return err
		}
		return e.chooseSets(t.R, n, ctx)
	case *lpath.OrExpr:
		if err := e.chooseSets(t.L, n, ctx); err != nil {
			return err
		}
		return e.chooseSets(t.R, n, ctx)
	case *lpath.NotExpr:
		return e.chooseSets(t.X, n, ctx)
	case *lpath.PathExpr, *lpath.CmpExpr:
		if sj := ctx.semijoin(x); sj != nil {
			return e.choose(sj, n, ctx)
		}
	}
	return nil
}

// choose makes one filter's forward/set decision for a frontier of n
// candidates; WithFilterPath(true) forces the set for differential coverage.
func (e *Engine) choose(sj *planner.Semijoin, n int, ctx *evalCtx) error {
	st := ctx.filter(sj)
	run := ctx.filterRun(sj.Expr)
	if run != nil {
		run.Frontier += n
	}
	if st.set != nil {
		return nil
	}
	if st.seeds == 0 {
		st.seeds = e.seedCount(sj, ctx) + 1
	}
	st.fwd += n
	if run != nil {
		run.Seeds = st.seeds - 1
	}
	if e.filters != filterSet && !sj.SetWins(st.fwd, n, st.seeds-1) {
		if run != nil {
			run.Path = "forward"
		}
		return nil
	}
	set, err := e.buildSatisfiers(sj, ctx)
	if err != nil {
		return err
	}
	ctx.filter(sj).set = set
	if run != nil {
		if run.Path == "forward" {
			run.Path = "forward+set"
		} else {
			run.Path = "set"
		}
		buf := set.bits.AppendRange(ctx.ar.getInts(), set.lo, set.hi)
		run.Set = len(buf)
		ctx.ar.putInts(buf)
	}
	return nil
}

// seedCount is the number of rows the filter's set would be seeded from in
// the window: the posting-list length for a value seed, else the final
// step's name range narrowed to the window.
func (e *Engine) seedCount(sj *planner.Semijoin, ctx *evalCtx) int {
	if sj.Seed == planner.SeedValue {
		return len(e.s.ByValue(sj.SeedValue))
	}
	return len(e.stepPosting(&sj.Head.Steps[len(sj.Head.Steps)-1], ctx))
}

// buildSatisfiers computes the rows from which the filter path has at least
// one match. Each level's rows are filtered by that step's predicates through
// filterPred, so a nested filter makes its own forward/set choice for the
// whole level at once.
func (e *Engine) buildSatisfiers(sj *planner.Semijoin, ctx *evalCtx) (*spanSet, error) {
	steps := sj.Head.Steps
	cur, err := e.semiSeeds(sj, ctx)
	if err != nil {
		return nil, err
	}
	// Climb: level i-1 holds the rows matching step i-1 (test, predicates)
	// from which some level-i row is reachable along step i's axis —
	// equivalently, rows reachable from a level-i row along the inverse.
	seen := ctx.ar.getSet()
	defer ctx.ar.putSet(seen)
	for i := len(steps) - 1; i >= 1 && len(cur) > 0; i-- {
		inv, _ := lpath.InverseAxis(steps[i].Axis)
		prev := &steps[i-1]
		synth := lpath.Step{Axis: inv, Test: prev.Test}
		nlo, nhi, _ := e.s.NameRange(prev.Test)
		next := ctx.ar.getInts()
		for _, ri := range cur {
			if ctx.interrupted() {
				ctx.ar.putInts(cur)
				ctx.ar.putInts(next)
				return nil, ctx.cerr
			}
			cands, borrowed := e.axisCandidates(&synth, nlo, nhi, bind{row: ri, scope: noRow}, ctx)
			for _, ci := range cands {
				if p := e.s.Pos(ci); !seen.has(p) {
					seen.add(p)
					next = append(next, ci)
				}
			}
			if !borrowed {
				ctx.ar.putInts(cands)
			}
		}
		seen.clear()
		ctx.ar.putInts(cur)
		if cur, err = e.filterAll(prev.Preds, noRow, next, ctx); err != nil {
			return nil, err
		}
	}

	// Final hop: any row that reaches a head-level row along the first
	// step's axis satisfies the filter. The candidate's own test, scope and
	// predicates are the outer step's business, so the inverse hop is
	// unconstrained (wildcard).
	out := ctx.ar.getSet()
	inv0, _ := lpath.InverseAxis(steps[0].Axis)
	parents := e.s.ParentRows()
	switch inv0 {
	case lpath.AxisParent:
		for _, ri := range cur {
			if p := parents[ri]; p != relstore.NoParent {
				out.add(e.s.Pos(p))
			}
		}
	case lpath.AxisAncestor, lpath.AxisAncestorOrSelf:
		// Every row in out has all its ancestors in out too, so a climb
		// stops at the first row already there.
		for _, ri := range cur {
			x := ri
			if inv0 == lpath.AxisAncestor {
				x = parents[ri]
			}
			for ; x != relstore.NoParent; x = parents[x] {
				p := e.s.Pos(x)
				if out.has(p) {
					break
				}
				out.add(p)
			}
		}
	default:
		synth := lpath.Step{Axis: inv0, Test: "_"}
		for _, ri := range cur {
			cands, borrowed := e.axisCandidates(&synth, 0, 0, bind{row: ri, scope: noRow}, ctx)
			for _, ci := range cands {
				out.add(e.s.Pos(ci))
			}
			if !borrowed {
				ctx.ar.putInts(cands)
			}
		}
	}
	ctx.ar.putInts(cur)
	return out, nil
}

// semiSeeds materializes the filter path's final-step matches in the window:
// rows satisfying its node test, its predicates and the filter's trailing
// attribute condition. The result is arena-owned.
func (e *Engine) semiSeeds(sj *planner.Semijoin, ctx *evalCtx) ([]int32, error) {
	last := &sj.Head.Steps[len(sj.Head.Steps)-1]
	out := ctx.ar.getInts()
	var rows []int32
	if sj.Seed == planner.SeedValue {
		// The posting list already enforces one @attr=value equality, which
		// SeedPreds leaves out, as a value-driven step's Exec does. The
		// attribute test below then filters out in place.
		lo, hi := ctx.window()
		out = e.valueRows(out, sj.SeedValue, sj.SeedAttr[1:], last, lo, hi)
		rows = out
	} else {
		rows = e.stepPosting(last, ctx)
	}
	kept := out[:0]
	for _, ci := range rows {
		if e.semiAttrOK(sj, ci) {
			kept = append(kept, ci)
		}
	}
	return e.filterAll(sj.SeedPreds, noRow, kept, ctx)
}

// mergeable reports whether a filter is one // (or descendant-or-self) step
// seeded from its name range with nothing else to test, which mergeFilter
// answers.
func mergeable(sj *planner.Semijoin) bool {
	if sj == nil || sj.Seed != planner.SeedName || sj.Attr != "" || len(sj.SeedPreds) > 0 || len(sj.Head.Steps) != 1 {
		return false
	}
	axis := sj.Head.Steps[0].Axis
	return axis == lpath.AxisDescendant || axis == lpath.AxisDescendantOrSelf
}

// mergeFilter answers the mergeable filter [//B] — [not(//B)] when neg —
// for a frontier in (tid, left) order by one merge against B's windowed
// posting, which is (tid, left)-ordered too: no satisfier set, no positions.
// Rows starting inside a's span after a.left are its proper descendants, and
// the others starting there are its ancestors, itself or its descendants
// (unary chains): a has a B below it iff the first B at or after
// (a.tid, a.left), one sharing that B's left edge or the first starting
// later is one. ok is false, and cands untouched, when the frontier is out
// of order.
func (e *Engine) mergeFilter(sj *planner.Semijoin, neg bool, cands []int32, ctx *evalCtx) (out []int32, ok bool, err error) {
	cols := e.s.Cols()
	tids, lefts, rights, depths := cols.TID, cols.Left, cols.Right, cols.Depth
	for i := 1; i < len(cands); i++ {
		if a, b := cands[i-1], cands[i]; tids[b] < tids[a] || tids[b] == tids[a] && lefts[b] < lefts[a] {
			return nil, false, nil
		}
	}
	posting := e.stepPosting(&sj.Head.Steps[0], ctx)
	if run := ctx.filterRun(sj.Expr); run != nil {
		run.Path, run.Frontier, run.Seeds = "merge", run.Frontier+len(cands), len(posting)
	}
	self := int32(0) // the depth a descendant must exceed a's by
	if sj.Head.Steps[0].Axis == lpath.AxisDescendantOrSelf {
		self = -1
	}
	out, at := cands[:0], 0
	for _, a := range cands {
		if ctx.interrupted() {
			return out, true, ctx.cerr
		}
		ta, la, ra := tids[a], lefts[a], rights[a]
		if at < len(posting) && (tids[posting[at]] < ta || tids[posting[at]] == ta && lefts[posting[at]] < la) {
			at = e.seekSpan(posting, at, ta, la)
		}
		hit := false
		for k := at; k < len(posting); k++ {
			b := posting[k]
			if tids[b] != ta || lefts[b] >= ra {
				break
			}
			if hit = rights[b] <= ra && depths[b]-depths[a] > self; hit || lefts[b] > lefts[posting[at]] {
				break
			}
		}
		if hit != neg {
			out = append(out, a)
		}
	}
	return out, true, nil
}

// filterAll runs a candidate list through a predicate pipeline under one
// scope (noRow: unscoped). It owns cands: on error the buffer goes back to
// the arena.
func (e *Engine) filterAll(preds []lpath.Expr, scope int32, cands []int32, ctx *evalCtx) ([]int32, error) {
	for _, pred := range preds {
		out, err := e.filterPred(pred, scope, true, cands, ctx)
		if err != nil {
			ctx.ar.putInts(cands)
			return nil, err
		}
		cands = out
	}
	return cands, nil
}

// semiAttrOK applies the filter's trailing attribute condition to a row.
func (e *Engine) semiAttrOK(sj *planner.Semijoin, ri int32) bool {
	if sj.Attr == "" {
		return true
	}
	v, ok := e.s.AttrValue(ri, sj.Attr)
	if !ok {
		return false
	}
	switch sj.Op {
	case "=":
		return v == sj.Value
	case "!=":
		return v != sj.Value
	}
	return true
}

// filterScopeOnly answers the scope-only filter [{tail}] — [not({tail})]
// when neg — for a whole frontier at once: the tail runs once through the
// main-path scoped pipeline from every candidate as its own scope (its
// entry by the side rule), and a candidate satisfies the filter
// exactly when it is the scope of some result binding. The tail holds no
// nested scope (planner.ScopeOnlyTail), so every result's scope is the
// candidate it started from.
func (e *Engine) filterScopeOnly(x lpath.Expr, tail *lpath.Path, neg bool, cands []int32, ctx *evalCtx) ([]int32, error) {
	if run := ctx.filterRun(x); run != nil {
		run.Path = "scope"
		run.Frontier += len(cands)
	}
	front := ctx.ar.getBinds()
	for _, c := range cands {
		front = append(front, bind{row: c, scope: noRow})
	}
	res, err := e.evalScoped(tail, front, ctx)
	ctx.ar.putBinds(front)
	if err != nil {
		return nil, err
	}
	hit := ctx.ar.getSet()
	for _, b := range res {
		hit.add(e.s.Pos(b.scope))
	}
	ctx.ar.putBinds(res)
	out := cands[:0]
	for _, c := range cands {
		if hit.has(e.s.Pos(c)) != neg {
			out = append(out, c)
		}
	}
	ctx.ar.putSet(hit)
	return out, nil
}
