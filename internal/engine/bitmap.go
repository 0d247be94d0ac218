package engine

import (
	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// Bitmap execution: the scope-entry kernel (docs/EXECUTION.md, "Bitmap
// filter kernels"). It replaces the scoped branch's per-scope expansion: the
// scope frontier becomes one dense set of rows, the entry step's
// clustered posting range is walked once, and scope membership resolves
// through the store's parent-pointer column — one array load and a bit test
// for the child axis, a parent-chain climb for descendants, cut short by edge
// alignment (rights never decrease and lefts never grow while climbing, so a
// climb past the first non-aligned ancestor cannot realign). It emits exactly
// the (row, scope) pairs the scoped expansion would after its dedup. The
// set-at-a-time filters that share its sets live in semijoin.go.

// useBitmapEntry decides whether a subtree-scoped tail enters through the
// bitmap kernel. Under bitmapAuto the plan's cost-marked entry decides —
// except when a forced merge or twig mode is measuring a specific executor
// the kernel would shadow. bitmapAlways forces every shape-eligible entry.
func (e *Engine) useBitmapEntry(tail *lpath.Path, cur []bind, ctx *evalCtx) bool {
	if e.bitmap == bitmapOff || len(tail.Steps) == 0 {
		return false
	}
	step := &tail.Steps[0]
	if !planner.BitmapEntryStep(step) {
		return false
	}
	if e.bitmap == bitmapAlways {
		return true
	}
	if e.exec == execAlways || e.twig == twigAlways {
		return false
	}
	// A one-scope frontier would walk the whole posting list for one
	// subtree: a scope-only filter evaluated forward opens its scope one
	// candidate at a time, whatever the planner estimated for the frontier.
	if len(cur) == 1 && cur[0].row != noRow {
		return false
	}
	sp := ctx.stepPlan(step)
	return sp != nil && sp.Strategy == planner.StrategyBitmap
}

// evalBitmapScoped evaluates a subtree-scoped tail whose first step runs as
// a bitmap scope entry, then re-enters the regular pipeline for the
// remaining steps. cur is read-only here; the caller releases it.
func (e *Engine) evalBitmapScoped(tail *lpath.Path, cur []bind, ctx *evalCtx) ([]bind, error) {
	entry, err := e.bitmapEntry(&tail.Steps[0], cur, ctx)
	if err != nil {
		return nil, err
	}
	if len(entry) == 0 {
		ctx.ar.putBinds(entry)
		return nil, nil
	}
	return e.evalSteps(tail, 1, entry, true, ctx)
}

// bitmapEntry evaluates a scoped tail's first step set-at-a-time. It emits
// every (candidate, scope) pair the scoped probe expansion would — in
// posting order rather than per-scope order, which no downstream consumer
// observes (final results sort, counts are multiset sizes, and each pair is
// emitted exactly once, matching the probe path's cross-binding dedup).
func (e *Engine) bitmapEntry(step *lpath.Step, cur []bind, ctx *evalCtx) ([]bind, error) {
	sp := ctx.stepPlan(step)
	preds := step.Preds
	if sp != nil && sp.Reordered {
		preds = sp.PredExprs()
	}

	// The scope frontier as a set of rows, tested against the parent column
	// directly; the virtual root stands for every tree root (within the
	// streaming tid window, when one is active). The scope rows themselves
	// came from a windowed pipeline, so no further clamp is needed. A
	// frontier of one name is one clustered row range per window, so
	// clearing the set costs that range.
	scopes := ctx.ar.getSet()
	for _, b := range cur {
		if b.row == noRow {
			for _, ri := range e.narrowToWindow(e.s.Roots(), ctx) {
				scopes.add(ri)
			}
			continue
		}
		scopes.add(b.row)
	}

	// The step's candidates: one clustered posting range (wildcards use the
	// document-order element index), narrowed to the window. Borrowed from
	// the store — never mutated.
	var cands []int32
	if step.Wildcard() {
		cands = e.narrowToWindow(e.s.ElementsByLeft(), ctx)
	} else if lo, hi, ok := e.s.NameRange(step.Test); ok {
		cands = e.narrowToWindow(e.s.RowSeq()[lo:hi], ctx)
	}

	parents := e.s.ParentRows()
	cols := e.s.Cols()
	lefts, rights := cols.Left, cols.Right
	out := ctx.ar.getBinds()
	fail := func(err error) ([]bind, error) {
		ctx.ar.putSet(scopes)
		ctx.ar.putBinds(out)
		return nil, err
	}
	for _, x := range cands {
		if ctx.interrupted() {
			return fail(ctx.cerr)
		}
		if step.Axis == lpath.AxisChild {
			p := parents[x]
			if p == relstore.NoParent || !scopes.has(p) {
				continue
			}
			if step.LeftAlign && lefts[x] != lefts[p] {
				continue
			}
			if step.RightAlign && rights[x] != rights[p] {
				continue
			}
			ok, err := e.bitmapPredsHold(preds, bind{row: x, scope: p}, ctx)
			if err != nil {
				return fail(err)
			}
			if ok {
				out = append(out, bind{row: x, scope: p})
			}
			continue
		}
		// Descendant axes: every scope containing x lies on x's parent chain.
		// descendant-or-self additionally admits x as its own scope (trivially
		// aligned).
		if step.Axis == lpath.AxisDescendantOrSelf && scopes.has(x) {
			ok, err := e.bitmapPredsHold(preds, bind{row: x, scope: x}, ctx)
			if err != nil {
				return fail(err)
			}
			if ok {
				out = append(out, bind{row: x, scope: x})
			}
		}
		for p := parents[x]; p != relstore.NoParent; p = parents[p] {
			if step.LeftAlign && lefts[p] != lefts[x] {
				break
			}
			if step.RightAlign && rights[p] != rights[x] {
				break
			}
			if !scopes.has(p) {
				continue
			}
			ok, err := e.bitmapPredsHold(preds, bind{row: x, scope: p}, ctx)
			if err != nil {
				return fail(err)
			}
			if ok {
				out = append(out, bind{row: x, scope: p})
			}
		}
	}
	ctx.ar.putSet(scopes)
	ctx.countStep(sp, len(out))
	return out, nil
}

// bitmapPredsHold runs the entry step's predicate pipeline on one emitted
// binding. BitmapEntryStep excluded positional predicates, so the (1, 1)
// positional context is inert.
func (e *Engine) bitmapPredsHold(preds []lpath.Expr, b bind, ctx *evalCtx) (bool, error) {
	for _, pred := range preds {
		ok, err := e.evalExpr(pred, b, 1, 1, ctx)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}
