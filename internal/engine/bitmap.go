package engine

import (
	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// Bitmap execution: the step kernels (docs/EXECUTION.md, "Bitmap filter
// kernels"). They replace per-binding probing with one pass over the step's
// clustered posting range against a dense set of frontier rows, resolving
// each candidate's context through the store's parent-pointer column. A
// subtree-scope entry emits exactly the (row, scope) pairs the scoped
// expansion would after its dedup: one array load and a bit test for the
// child axis, a parent-chain climb for descendants, cut short by edge
// alignment (rights never decrease and lefts never grow while climbing, so a
// climb past the first non-aligned ancestor cannot realign). A main-path /
// or => step emits the rows per-binding probes would: a candidate has one
// possible context, its parent or its immediately preceding sibling. The
// set-at-a-time filters that share the sets live in semijoin.go.

// useBitmapEntry decides whether a subtree-scoped tail enters through the
// bitmap kernel. Under bitmapAuto the plan's cost-marked entry decides —
// except when a forced merge or twig mode is measuring a specific executor
// the kernel would shadow. bitmapAlways forces every shape-eligible entry.
func (e *Engine) useBitmapEntry(tail *lpath.Path, cur []bind, ctx *evalCtx) bool {
	if e.bitmap == bitmapOff || len(tail.Steps) == 0 {
		return false
	}
	step := &tail.Steps[0]
	if !planner.BitmapStep(step, true) {
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
	cands := e.stepPosting(step, ctx)
	parents := e.s.ParentRows()
	cols := e.s.Cols()
	lefts, rights := cols.Left, cols.Right
	out := ctx.ar.getBinds()
	// emit appends (x, scope) when the step's predicates hold on it; it runs
	// only while err is nil. BitmapStep excluded positional predicates, so
	// the (1, 1) positional context is inert.
	var err error
	emit := func(x, scope int32) {
		b := bind{row: x, scope: scope}
		for _, pred := range preds {
			if ok, perr := e.evalExpr(pred, b, 1, 1, ctx); !ok || perr != nil {
				err = perr
				return
			}
		}
		out = append(out, b)
	}
	if step.Axis == lpath.AxisChild {
		// A child's one possible scope is its parent, which the shared walk
		// has already found in the set and aligned against.
		var rows []int32
		rows, err = e.stepJoin(step, cands, scopes, ctx.ar.getInts(), ctx)
		for i := 0; err == nil && i < len(rows); i++ {
			emit(rows[i], parents[rows[i]])
		}
		ctx.ar.putInts(rows)
	} else {
		// Descendant axes: every scope containing x lies on x's parent
		// chain. descendant-or-self additionally admits x as its own scope
		// (trivially aligned).
		for i := 0; err == nil && i < len(cands); i++ {
			x := cands[i]
			if ctx.interrupted() {
				err = ctx.cerr
				break
			}
			if step.Axis == lpath.AxisDescendantOrSelf && scopes.has(x) {
				emit(x, x)
			}
			for p := parents[x]; err == nil && p != relstore.NoParent; p = parents[p] {
				if step.LeftAlign && lefts[p] != lefts[x] || step.RightAlign && rights[p] != rights[x] {
					break
				}
				if scopes.has(p) {
					emit(x, p)
				}
			}
		}
	}
	ctx.ar.putSet(scopes)
	if err != nil {
		ctx.ar.putBinds(out)
		return nil, err
	}
	ctx.countStep(sp, len(out))
	return out, nil
}

// stepPosting returns the step's candidates for a kernel walk: one clustered
// posting range (the document-order element index for a wildcard), narrowed
// to the streaming window. Borrowed from the store — never mutated.
func (e *Engine) stepPosting(step *lpath.Step, ctx *evalCtx) []int32 {
	if step.Wildcard() {
		return e.narrowToWindow(e.s.ElementsByLeft(), ctx)
	}
	if lo, hi, ok := e.s.NameRange(step.Test); ok {
		return e.narrowToWindow(e.s.RowSeq()[lo:hi], ctx)
	}
	return nil
}

// stepJoin is the posting walk both kernels share: it appends to dst every
// candidate whose one possible context is in set — its parent for the child
// axis, its immediately preceding sibling for => — and is edge-aligned with
// that context, the node ^ and $ refer to for a scope entry and an unscoped
// step alike. Siblings are consecutive children (every leaf spans one
// position), so the preceding sibling is the previous entry of the parent's
// child list, found by binary search on id. On cancellation dst is returned
// with the context error; the caller releases it either way.
func (e *Engine) stepJoin(step *lpath.Step, cands []int32, set *spanSet, dst []int32, ctx *evalCtx) ([]int32, error) {
	parents := e.s.ParentRows()
	cols := e.s.Cols()
	tids, lefts, rights, ids, pids := cols.TID, cols.Left, cols.Right, cols.ID, cols.PID
	sibling := step.Axis == lpath.AxisImmediateFollowingSibling
	for _, x := range cands {
		if ctx.interrupted() {
			return dst, ctx.cerr
		}
		c := parents[x]
		if c == relstore.NoParent {
			continue
		}
		if sibling {
			if ids[x] == pids[x]+1 {
				continue // a first child: preorder numbers it right after its parent
			}
			sibs := e.s.Children(tids[x], pids[x])
			lo, hi, id := 0, len(sibs), ids[x]
			for lo < hi {
				if m := int(uint(lo+hi) >> 1); ids[sibs[m]] < id {
					lo = m + 1
				} else {
					hi = m
				}
			}
			if lo == 0 {
				continue
			}
			c = sibs[lo-1]
		}
		if !set.has(c) || step.LeftAlign && lefts[x] != lefts[c] || step.RightAlign && rights[x] != rights[c] {
			continue
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// Kernel crossovers: the posting rows one frontier binding is worth. A
// per-binding probe pays a child-list lookup, a candidate buffer and a
// cross-binding dedup insert, ≈ 80–100 ns; the kernel pays a sequential
// parent load and a bit test per posting row for / (≈ 6 ns), plus a
// sibling-list search for => (≈ 18 ns), measured on the scale-1.0 WSJ
// corpus (Q18, //NP=>NP; 2-vCPU VM).
const (
	childKernelRows   = 16
	siblingKernelRows = 4
)

// bitmapStep decides whether a main-path step runs through the bitmap step
// kernel, and returns the windowed posting the kernel walks. The kernel
// needs an unscoped frontier of real rows. Under bitmapAuto the step must be
// marked exec=bitmap and the frontier hold more than one binding, and the
// actual sizes decide — the frontier's length against the windowed
// posting's — unless a forced merge or twig mode is measuring the executor
// the kernel would shadow. bitmapAlways takes every eligible step.
func (e *Engine) bitmapStep(step *lpath.Step, sp *planner.StepPlan, binds []bind, ctx *evalCtx) ([]int32, bool) {
	if e.bitmap == bitmapOff || len(binds) == 0 || binds[0].row == noRow || binds[0].scope != noRow {
		return nil, false
	}
	if e.bitmap == bitmapAuto && (sp == nil || sp.Strategy != planner.StrategyBitmap ||
		e.exec == execAlways || e.twig == twigAlways) {
		return nil, false
	}
	if !planner.BitmapStep(step, false) {
		return nil, false
	}
	if e.bitmap == bitmapAlways {
		return e.stepPosting(step, ctx), true
	}
	rows := childKernelRows
	if step.Axis == lpath.AxisImmediateFollowingSibling {
		rows = siblingKernelRows
	}
	if len(binds) > 1 {
		if cands := e.stepPosting(step, ctx); len(cands) <= rows*len(binds) {
			ctx.stepSide(sp, "kernel")
			return cands, true
		}
	}
	ctx.stepSide(sp, "probe")
	return nil, false
}

// evalBitmapStep runs a main-path / or => step through the kernel: the
// frontier's rows become a set, the windowed posting is walked once, and the
// surviving rows pass the step's predicates through filterPred for the whole
// step at once — so a filter on the step makes its own forward/set choice on
// the kernel's output. Each candidate has one context, so the output needs
// no dedup.
func (e *Engine) evalBitmapStep(step *lpath.Step, sp *planner.StepPlan, preds []lpath.Expr, binds []bind, cands []int32, ctx *evalCtx) ([]bind, error) {
	set := ctx.ar.getSet()
	for _, b := range binds {
		set.add(b.row)
	}
	rows, err := e.stepJoin(step, cands, set, ctx.ar.getInts(), ctx)
	ctx.ar.putSet(set)
	if err != nil {
		ctx.ar.putInts(rows)
		return nil, err
	}
	if rows, err = e.filterAll(preds, rows, ctx); err != nil {
		return nil, err
	}
	out := ctx.ar.getBinds()
	for _, x := range rows {
		out = append(out, bind{row: x, scope: noRow})
	}
	ctx.ar.putInts(rows)
	ctx.countStep(sp, len(out))
	return out, nil
}
