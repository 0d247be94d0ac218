package engine

import (
	"slices"
	"sort"

	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// Bitmap execution: the step kernels (docs/EXECUTION.md, "Posting walk per
// axis"). They replace per-binding probing with one pass over the step's
// clustered posting range against a small summary of the frontier. A
// subtree-scope entry emits exactly the (row, scope) pairs the scoped
// expansion would after its dedup: one array load and a bit test for the
// child axis, a parent-chain climb for descendants, cut short by edge
// alignment (rights never decrease and lefts never grow while climbing, so a
// climb past the first non-aligned ancestor cannot realign). A later step
// emits the rows per-binding probes would, testing each posting row against
// the Table 2 conjunction its axis reduces to (axisJoin), once per scope on
// a scoped frontier. The set-at-a-time filters live in semijoin.go.

// The side rule. Every kernel-capable step — a scope's entry, an unscoped
// step, a step over a scoped frontier — runs through the kernel or as
// per-binding probes by one rule on the sizes at hand: the gate
// (kernelGate), then the size test (kernelFits). The plan says what a step
// is; only this rule says how it runs.

// kernelGate is the side rule's gate for a kernel-capable step over a
// frontier of n bindings. bitmapAlways passes every step and bitmapOff none.
// Otherwise the probes keep a step without a plan (a WithoutPlanner engine
// shares no side choice with the planned path), one the value index can
// drive (StepPlan.Value: a posting list shorter than the step's name range)
// and one over a lone binding (one walk of the whole posting for one
// context). Only the last is a run-time outcome, so only it is recorded for
// EXPLAIN.
func (e *Engine) kernelGate(sp *planner.StepPlan, n int, ctx *evalCtx) bool {
	switch {
	case e.bitmap != bitmapAuto:
		return e.bitmap == bitmapAlways
	case sp == nil || sp.Value != "":
		return false
	case n <= 1:
		ctx.stepSide(sp, "probe")
		return false
	}
	return true
}

// kernelFits is the side rule's size test: the kernel walks a posting of
// the given length for n frontier bindings when each binding is worth at
// most kernelRows of its rows. bitmapAlways fits every posting.
func (e *Engine) kernelFits(axis lpath.Axis, posting, n int) bool {
	return e.bitmap == bitmapAlways || posting <= kernelRows(axis)*n
}

// useBitmapEntry decides whether a subtree-scoped tail enters through the
// bitmap kernel: the side rule over the scope frontier, whose virtual root
// stands for every tree root of the window, against the entry step's
// windowed posting. A declined entry expands its scopes and meets the rule
// again as a step over a scoped frontier.
func (e *Engine) useBitmapEntry(tail *lpath.Path, cur []bind, ctx *evalCtx) bool {
	if len(tail.Steps) == 0 || !planner.BitmapStep(&tail.Steps[0], true) {
		return false
	}
	step := &tail.Steps[0]
	sp := ctx.stepPlan(step)
	n := len(cur)
	if n == 1 && cur[0].row == noRow {
		n = len(e.narrowToWindow(e.s.Roots(), ctx))
	}
	if !e.kernelGate(sp, n, ctx) || !e.kernelFits(step.Axis, len(e.stepPosting(step, ctx)), n) {
		return false
	}
	ctx.stepSide(sp, "kernel")
	return true
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

// stepJoin is the posting walk the entry kernel and the / and => steps
// share: it appends to dst every candidate whose one possible context is in
// set — its parent for the child axis, its immediately preceding sibling
// for => — and is edge-aligned with that context, the node ^ and $ refer to for a scope entry and an unscoped
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
// per-binding probe pays a candidate lookup (a child-list read, or a binary
// search of the posting), a candidate buffer and a cross-binding dedup
// insert per result, ≈ 80–150 ns; the kernel pays a few sequential column
// loads and a bit test per posting row (≈ 6 ns), plus a sibling-list search
// for => (≈ 18 ns), measured on the scale-1.0 WSJ corpus (Q18, //NP=>NP; a
// 2-vCPU VM). The other axes' 24 was the best of 8, 24 and 64 on the //, ->
// and --> texts of serve_distinct at scale 1.0.
func kernelRows(axis lpath.Axis) int {
	switch axis {
	case lpath.AxisChild:
		return 16
	case lpath.AxisImmediateFollowingSibling:
		return 4
	}
	return 24
}

// bitmapStep decides, by the side rule, whether a step over an unscoped
// frontier of real rows runs through the kernel, and returns the framed
// posting the kernel walks.
func (e *Engine) bitmapStep(step *lpath.Step, sp *planner.StepPlan, binds []bind, ctx *evalCtx) ([]int32, bool) {
	if len(binds) == 0 || binds[0].row == noRow || binds[0].scope != noRow || !planner.BitmapStep(step, false) || !e.kernelGate(sp, len(binds), ctx) {
		return nil, false
	}
	if cands := e.framePosting(step, binds, ctx); e.kernelFits(step.Axis, len(cands), len(binds)) {
		ctx.stepSide(sp, "kernel")
		return cands, true
	}
	ctx.stepSide(sp, "probe")
	return nil, false
}

// framePosting is the step's windowed posting narrowed to the trees the
// unscoped frontier touches: axes never cross trees.
func (e *Engine) framePosting(step *lpath.Step, binds []bind, ctx *evalCtx) []int32 {
	tids := e.s.Cols().TID
	lo, hi := maxInt32, int32(-1)
	for _, b := range binds {
		lo, hi = min(lo, tids[b.row]), max(hi, tids[b.row])
	}
	return e.narrowToTIDs(e.stepPosting(step, ctx), lo, hi+1)
}

// evalBitmapStep runs a step through the kernel for bindings that share one
// scope (noRow: unscoped): cands is walked once against their summary
// (axisJoin), and the kept rows pass the step's predicates through
// filterPred at once, so a filter makes its own forward/set choice. Inside
// a scope ^ and $ name the scope (alignRef): the walk runs unaligned, and a
// kept row must lie inside (label.InScope) and be aligned with the scope.
// A posting row comes out at most once: the (x, scope) pairs need no dedup.
func (e *Engine) evalBitmapStep(step *lpath.Step, sp *planner.StepPlan, preds []lpath.Expr, scope int32, binds []bind, cands []int32, out []bind, ctx *evalCtx) ([]bind, error) {
	n0 := len(out)
	walk := *step
	if scope != noRow {
		walk.LeftAlign, walk.RightAlign = false, false
	}
	rows, err := e.axisJoin(&walk, binds, cands, ctx.ar.getInts(), ctx)
	if err != nil {
		ctx.ar.putInts(rows)
		return nil, err
	}
	if c := e.s.Cols(); scope != noRow {
		sl, sr, sd := c.Left[scope], c.Right[scope], c.Depth[scope]
		rows = slices.DeleteFunc(rows, func(x int32) bool {
			return c.Right[x] > sr || c.Depth[x] < sd || step.LeftAlign && c.Left[x] != sl || step.RightAlign && c.Right[x] != sr
		})
	}
	if rows, err = e.filterAll(preds, scope, rows, ctx); err != nil {
		return nil, err
	}
	for _, x := range rows {
		out = append(out, bind{row: x, scope: scope})
	}
	ctx.ar.putInts(rows)
	ctx.countStep(sp, len(out)-n0)
	return out, nil
}

// scopedKernel reports whether a step over a scoped (c, s) frontier passes
// the side rule's gate; evalScopedStep then applies the size test per scope.
func (e *Engine) scopedKernel(step *lpath.Step, sp *planner.StepPlan, binds []bind, ctx *evalCtx) bool {
	return len(binds) > 0 && binds[0].scope != noRow && planner.BitmapStep(step, false) && e.kernelGate(sp, len(binds), ctx)
}

// evalScopedStep runs a step over a scoped frontier one scope at a time, in
// document order. A scope's share of the posting — the rows starting inside
// it — is walked (evalBitmapStep) when it passes the size test against the
// scope's bindings; the other scopes' bindings are probed together
// afterwards.
func (e *Engine) evalScopedStep(step *lpath.Step, sp *planner.StepPlan, preds []lpath.Expr, binds []bind, ctx *evalCtx) ([]bind, error) {
	grouped, ends := e.groupByScope(binds, ctx)
	posting := e.stepPosting(step, ctx)
	c := e.s.Cols()
	out, probe := ctx.ar.getBinds(), ctx.ar.getBinds()
	var err error
	start, at := int32(0), 0
	for _, end := range ends {
		group, s := grouped[start:end], grouped[start].scope
		start = end
		// s's share of the posting, the rows starting inside it, counted
		// until it fails the size test.
		at = e.seekSpan(posting, at, c.TID[s], c.Left[s])
		n := at
		for n < len(posting) && e.kernelFits(step.Axis, n-at, len(group)) && c.TID[posting[n]] == c.TID[s] && c.Left[posting[n]] < c.Right[s] {
			n++
		}
		if !e.kernelFits(step.Axis, n-at, len(group)) {
			probe = append(probe, group...)
			continue
		}
		ctx.stepSide(sp, "kernel")
		if out, err = e.evalBitmapStep(step, sp, preds, s, group, posting[at:n], out, ctx); err != nil {
			break
		}
	}
	if err == nil && len(probe) > 0 {
		ctx.stepSide(sp, "probe")
		out, err = e.evalStepProbe(step, sp, preds, false, probe, out, ctx)
	}
	ctx.ar.putBinds(probe)
	ctx.ar.putBinds(grouped)
	ctx.ar.putInts(ends)
	return out, err
}

// groupByScope returns the frontier with each scope's bindings contiguous,
// scopes in document order, and each scope's end offset, both arena-owned:
// a counting sort on each scope's rank among the distinct scopes, which the
// arena's reach array holds meanwhile (reset to 0, absent in every epoch).
func (e *Engine) groupByScope(binds []bind, ctx *evalCtx) (grouped []bind, ends []int32) {
	set := ctx.ar.getSet()
	for _, b := range binds {
		set.add(e.s.Pos(b.scope))
	}
	scopes := set.bits.AppendRange(ctx.ar.getInts(), set.lo, set.hi)
	ctx.ar.putSet(set)
	rank, _ := ctx.ar.getReach(e.s.ElementCount())
	ends = ctx.ar.getInts()
	for i, p := range scopes {
		rank[p], ends = uint32(i), append(ends, 0)
	}
	for _, b := range binds {
		ends[rank[e.s.Pos(b.scope)]]++
	}
	sum := int32(0) // each run's start, which the scatter advances to its end
	for i, n := range ends {
		ends[i], sum = sum, sum+n
	}
	grouped = slices.Grow(ctx.ar.getBinds(), len(binds))[:len(binds)]
	for _, b := range binds {
		g := rank[e.s.Pos(b.scope)]
		grouped[ends[g]], ends[g] = b, ends[g]+1
	}
	for _, p := range scopes {
		rank[p] = 0
	}
	ctx.ar.putInts(scopes)
	return grouped, ends
}

// seekSpan returns the first k ≥ from of the (tid, left)-ordered idx whose
// row does not start before edge left of tree tid, galloping from from:
// scopes come in document order, so a search costs the log of its move.
func (e *Engine) seekSpan(idx []int32, from int, tid, left int32) int {
	tids, lefts := e.s.Cols().TID, e.s.Cols().Left
	before := func(k int) bool { return tids[idx[k]] < tid || tids[idx[k]] == tid && lefts[idx[k]] < left }
	step := 1
	for ; from+step <= len(idx) && before(from+step-1); step *= 2 {
		from += step
	}
	return from + sort.Search(min(step-1, len(idx)-from), func(k int) bool { return !before(from + k) })
}

// axisJoin appends to dst, in posting order, every candidate the axis
// relates to some row of the frontier, whose scopes it ignores. Each axis is
// the Table 2 conjunction tested against one summary of the frontier:
//
//	/, =>        the one possible context is in the frontier's row set (stepJoin)
//	//           x.right ≤ the greatest frontier right covering x.left (descendantJoin)
//	-->, <--     x.left ≥ the tree's least frontier right; x.right ≤ its greatest left
//	->, <-       x.left (x.right) is one of the tree's frontier right (left) edges
//	or-self      x itself is in the frontier
//
// Edge alignment compares against the context itself. A horizontal axis
// cannot relate two aligned rows, so an aligned horizontal step keeps only
// the or-self rows; an aligned // climbs the candidate's aligned ancestors
// instead (climbJoin). cands must lie in the frontier's trees (framePosting,
// or one scope's share). On cancellation dst is returned with the context
// error; the caller releases it either way.
func (e *Engine) axisJoin(step *lpath.Step, binds []bind, cands, dst []int32, ctx *evalCtx) ([]int32, error) {
	cols := e.s.Cols()
	tids, lefts, rights, ids := cols.TID, cols.Left, cols.Right, cols.ID
	aligned := step.LeftAlign || step.RightAlign
	// set holds frontier rows, or the tree edges of -> and <-.
	set := ctx.ar.getSet()
	defer ctx.ar.putSet(set)
	switch step.Axis {
	case lpath.AxisChild, lpath.AxisImmediateFollowingSibling:
		fillRows(set, binds)
		return e.stepJoin(step, cands, set, dst, ctx)

	case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		// The leaf summary writes frontier spans, a climb walks a parent
		// chain per posting row. Climb when the posting is the smaller
		// side, or when alignment cuts every climb short.
		if !aligned && len(cands) >= len(binds) {
			if out, ok, err := e.descendantJoin(step, binds, cands, set, dst, ctx); ok {
				return out, err
			}
		}
		fillRows(set, binds)
		return e.climbJoin(step, cands, set, dst, ctx)
	case lpath.AxisImmediateFollowing, lpath.AxisImmediatePreceding:
		if aligned {
			return dst, nil
		}
		// Over a tree's L leaves edges run 1..L+1, and edge 1 is no node's
		// right: edges 2..L+1 map to the tree's first L positions (a tree
		// has at least as many elements as leaves), rootPos + edge − 2.
		// ctxEdge is the edge a context offers, candEdge the one a candidate
		// must meet it with.
		ctxEdge, candEdge := rights, lefts
		if step.Axis == lpath.AxisImmediatePreceding {
			ctxEdge, candEdge = lefts, rights
		}
		for _, b := range binds {
			if c := b.row; ctxEdge[c] > 1 {
				set.add(e.s.Pos(c) - ids[c] + ctxEdge[c] - 1)
			}
		}
		for _, x := range cands {
			if ctx.interrupted() {
				return dst, ctx.cerr
			}
			if edge := candEdge[x]; edge > 1 && set.has(e.s.Pos(x)-ids[x]+edge-1) {
				dst = append(dst, x)
			}
		}
		return dst, nil
	}

	// Following and preceding, with or without self: one extreme edge per
	// tree, in an array indexed by tid − lo.
	following := step.Axis == lpath.AxisFollowing || step.Axis == lpath.AxisFollowingOrSelf
	orSelf := step.Axis == lpath.AxisFollowingOrSelf || step.Axis == lpath.AxisPrecedingOrSelf
	lo, hi := maxInt32, int32(-1)
	for _, b := range binds {
		if orSelf {
			set.add(b.row)
		}
		lo, hi = min(lo, tids[b.row]), max(hi, tids[b.row])
	}
	ext := ctx.ar.getInts()
	if !aligned {
		fill := int32(-1) // greatest left: no right edge is ≤ -1
		if following {
			fill = maxInt32 // least right: no left edge is ≥ maxInt32
		}
		for range hi - lo + 1 {
			ext = append(ext, fill)
		}
		for _, b := range binds {
			t := tids[b.row] - lo
			if following {
				ext[t] = min(ext[t], rights[b.row])
			} else {
				ext[t] = max(ext[t], lefts[b.row])
			}
		}
	}
	for _, x := range cands {
		if ctx.interrupted() {
			ctx.ar.putInts(ext)
			return dst, ctx.cerr
		}
		hit := orSelf && set.has(x)
		if t := tids[x] - lo; !hit && !aligned {
			if following {
				hit = lefts[x] >= ext[t]
			} else {
				hit = rights[x] <= ext[t]
			}
		}
		if hit {
			dst = append(dst, x)
		}
	}
	ctx.ar.putInts(ext)
	return dst, nil
}

// fillRows adds the frontier's rows to set.
func fillRows(set *spanSet, binds []bind) {
	for _, b := range binds {
		set.add(b.row)
	}
}

// climbJoin appends to dst the candidates with an edge-aligned ancestor (or,
// for descendant-or-self, the candidate itself) in the frontier's row set:
// the contexts lie on the candidate's parent chain, and alignment cuts the
// climb short.
func (e *Engine) climbJoin(step *lpath.Step, cands []int32, set *spanSet, dst []int32, ctx *evalCtx) ([]int32, error) {
	cols := e.s.Cols()
	lefts, rights := cols.Left, cols.Right
	parents := e.s.ParentRows()
	orSelf := step.Axis == lpath.AxisDescendantOrSelf
	for _, x := range cands {
		if ctx.interrupted() {
			return dst, ctx.cerr
		}
		hit := orSelf && set.has(x)
		for p := parents[x]; !hit && p != relstore.NoParent; p = parents[p] {
			if step.LeftAlign && lefts[p] != lefts[x] || step.RightAlign && rights[p] != rights[x] {
				break
			}
			hit = set.has(p)
		}
		if hit {
			dst = append(dst, x)
		}
	}
	return dst, nil
}

// descendantJoin appends to dst the candidates strictly inside a frontier
// row's span (or, for descendant-or-self, in the frontier's row set). The
// summary is reach[l], per leaf l: the greatest right edge of a frontier row
// covering l, written leaf by leaf over each row's span — a row whose first
// leaf already reaches its right edge lies inside a written span and writes
// nothing. Spans are laminar, so x lies strictly inside a frontier span iff
// reach[x.left] > x.right or reach[x.left−1] ≥ x.right. The remaining case,
// a frontier row with exactly x's span, is a unary chain: x descends from it
// iff it is on x's parent chain before the span changes. Leaves are indexed
// like positions (a tree has at least as many elements as leaves), and the
// arena's epoch stamp retires the previous walk's entries, so nothing is
// cleared. ok is false, and nothing is appended, when a right edge is too
// wide for the stamp.
func (e *Engine) descendantJoin(step *lpath.Step, binds []bind, cands []int32, set *spanSet, dst []int32, ctx *evalCtx) (out []int32, ok bool, err error) {
	cols := e.s.Cols()
	lefts, rights, ids := cols.Left, cols.Right, cols.ID
	parents := e.s.ParentRows()
	reach, epoch := ctx.ar.getReach(e.s.ElementCount())
	at := func(k int32) int32 {
		if v := reach[k]; v>>reachBits == epoch {
			return int32(v & reachMask)
		}
		return 0
	}
	for _, b := range binds {
		if ctx.interrupted() {
			return dst, true, ctx.cerr
		}
		c := b.row
		l, r := lefts[c], rights[c]
		if r > reachMask {
			return dst, false, nil
		}
		k := e.s.Pos(c) - ids[c] + l
		if at(k) >= r {
			continue
		}
		stamp := epoch<<reachBits | uint32(r)
		for i := k; i < k+r-l; i++ {
			if at(i) < r {
				reach[i] = stamp
			}
		}
	}
	orSelf := step.Axis == lpath.AxisDescendantOrSelf
	filled := orSelf // the row set is filled when first needed
	if orSelf {
		fillRows(set, binds)
	}
	for _, x := range cands {
		if ctx.interrupted() {
			return dst, true, ctx.cerr
		}
		l, r := lefts[x], rights[x]
		hit := orSelf && set.has(x)
		if k := e.s.Pos(x) - ids[x] + l; !hit && at(k) >= r {
			hit = at(k) > r || l > 1 && at(k-1) >= r
			if !hit && !filled {
				fillRows(set, binds)
				filled = true
			}
			for c := parents[x]; !hit && c != relstore.NoParent && lefts[c] == l && rights[c] == r; c = parents[c] {
				hit = set.has(c)
			}
		}
		if hit {
			dst = append(dst, x)
		}
	}
	return dst, true, nil
}
