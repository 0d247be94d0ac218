package engine

import (
	"sort"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
)

// This file implements the index probes: for each axis, how candidate rows
// are retrieved from the clustered relation using sargable ranges, per the
// Table 2 label comparisons.
//
// The store keeps no order by right: preceding is the converse of following,
// so <- and <-- read the left order and the child lists as the forward axes do.
//
// The probes are columnar and allocation-free: comparisons read the store's
// parallel label arrays (relstore.Cols) instead of materializing Row values,
// and every result list is either borrowed straight from a store index
// (returned with borrowed=true, never to be mutated) or appended into a
// buffer drawn from the evaluation's arena (see arena.go). Because the
// relation is clustered by name, the node test is a row-index range check —
// ri ∈ [nlo, nhi) — not a string comparison.

// axisCandidates returns the rows reachable from the binding's context along
// the step's axis in the name range [nlo, nhi), which the caller looks up
// once per step (Store.NameRange; unused for a wildcard). Scope, alignment
// and predicates are applied later. borrowed=true means the slice aliases a
// store index: the caller must not mutate it and must not release it.
func (e *Engine) axisCandidates(step *lpath.Step, nlo, nhi int32, b bind, ctx *evalCtx) (cands []int32, borrowed bool) {
	if b.row == noRow {
		return e.virtualRootCandidates(step, ctx)
	}
	wild := step.Wildcard()
	if !wild && nlo == nhi {
		return nil, false
	}
	cols := e.s.Cols()
	row := b.row
	ctxTID, ctxLeft, ctxRight := cols.TID[row], cols.Left[row], cols.Right[row]
	ctxDepth, ctxID, ctxPID := cols.Depth[row], cols.ID[row], cols.PID[row]
	// Subtree scoping is a sargable conjunct (Section 2.2.2): clamp the
	// horizontal range probes to the scope's span instead of filtering
	// afterwards.
	clampL, clampR := int32(0), maxInt32
	if b.scope != noRow {
		clampL, clampR = cols.Left[b.scope], cols.Right[b.scope]
	}
	maxLeft := clampR - 1 // a scoped node's left is at most scope.right-1
	switch step.Axis {
	case lpath.AxisSelf:
		if wild || (row >= nlo && row < nhi) {
			return append(ctx.ar.getInts(), row), false
		}
		return nil, false

	case lpath.AxisChild:
		kids := e.s.Children(ctxTID, ctxID)
		if wild {
			return kids, true
		}
		out := ctx.ar.getInts()
		for _, si := range kids {
			if si >= nlo && si < nhi {
				out = append(out, si)
			}
		}
		return out, false

	case lpath.AxisParent:
		if ctxPID == 0 {
			return nil, false
		}
		pi, ok := e.s.ElementByID(ctxTID, ctxPID)
		if !ok || !(wild || (pi >= nlo && pi < nhi)) {
			return nil, false
		}
		return append(ctx.ar.getInts(), pi), false

	case lpath.AxisAncestor, lpath.AxisAncestorOrSelf:
		// Walk the pid chain; depth is bounded by the tree height.
		out := ctx.ar.getInts()
		cur := row
		if step.Axis == lpath.AxisAncestor {
			if ctxPID == 0 {
				return out, false
			}
			next, ok := e.s.ElementByID(ctxTID, ctxPID)
			if !ok {
				return out, false
			}
			cur = next
		}
		for {
			if wild || (cur >= nlo && cur < nhi) {
				out = append(out, cur)
			}
			pid := cols.PID[cur]
			if pid == 0 {
				break
			}
			next, ok := e.s.ElementByID(ctxTID, pid)
			if !ok {
				break
			}
			cur = next
		}
		return out, false

	case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		// left ∈ [c.left, c.right) over the (tid, left)-ordered scan,
		// filtered by right ≤ c.right and the depth comparison.
		minDepth := ctxDepth + 1
		if step.Axis == lpath.AxisDescendantOrSelf {
			minDepth = ctxDepth
		}
		return e.scanLeftRange(wild, nlo, nhi, ctxTID, ctxLeft, ctxRight-1, ctxRight, minDepth, ctx.ar.getInts()), false

	case lpath.AxisImmediateFollowing:
		// left = c.right.
		return e.scanLeftRange(wild, nlo, nhi, ctxTID, ctxRight, minInt32Of(ctxRight, maxLeft), maxInt32, 0, ctx.ar.getInts()), false

	case lpath.AxisFollowing:
		// left ≥ c.right (clamped to the scope's span).
		return e.scanLeftRange(wild, nlo, nhi, ctxTID, ctxRight, maxLeft, maxInt32, 0, ctx.ar.getInts()), false

	case lpath.AxisFollowingOrSelf:
		out := e.scanLeftRange(wild, nlo, nhi, ctxTID, ctxRight, maxLeft, maxInt32, 0, ctx.ar.getInts())
		if wild || (row >= nlo && row < nhi) {
			// Self precedes every following node in document order; insert
			// it in front so the step's output stays (tid, left)-sorted.
			out = append(out, 0)
			copy(out[1:], out)
			out[0] = row
		}
		return out, false

	case lpath.AxisImmediatePreceding:
		// right = c.left.
		return e.immediatePreceding(row, wild, nlo, nhi, ctx.ar.getInts()), false

	case lpath.AxisPreceding, lpath.AxisPrecedingOrSelf:
		// right ≤ c.left. In preorder everything before c in its tree is an
		// ancestor of c or precedes it, and an ancestor ends after c.left: a
		// wildcard keeps the rows of that prefix with right ≤ c.left, from
		// the scope's own position when scoped. A name scans its rows that
		// start in [scope.left, c.left) and end by c.left.
		out := ctx.ar.getInts()
		if wild {
			pos := e.s.Pos(row)
			from := pos - ctxID + 1
			if b.scope != noRow {
				from = e.s.Pos(b.scope)
			}
			for _, ri := range e.s.ElementsByLeft()[from:pos] {
				if cols.Right[ri] <= ctxLeft {
					out = append(out, ri)
				}
			}
		} else {
			out = e.scanLeftRange(false, nlo, nhi, ctxTID, clampL, ctxLeft-1, ctxLeft, 0, out)
		}
		if step.Axis == lpath.AxisPrecedingOrSelf && (wild || (row >= nlo && row < nhi)) {
			out = append(out, row) // self follows every preceding node
		}
		return out, false

	case lpath.AxisFollowingSibling, lpath.AxisImmediateFollowingSibling, lpath.AxisFollowingSiblingOrSelf,
		lpath.AxisPrecedingSibling, lpath.AxisImmediatePrecedingSibling, lpath.AxisPrecedingSiblingOrSelf:
		return e.siblingCandidates(step.Axis, row, ctxTID, ctxPID, ctxLeft, ctxRight, wild, nlo, nhi, ctx), false
	}
	return nil, false
}

const maxInt32 = int32(1<<31 - 1)

func minInt32Of(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

// virtualRootCandidates handles the first step of a query, whose context is
// the virtual super-root above every tree root. The descendant probes hand
// back store indexes zero-copy: the wildcard case is the document-order
// index, and a named range is the matching slice of the identity row
// sequence — the clustered layout makes "all rows named X" a contiguous
// interval, so nothing is materialized. Every list is tid-ascending, so a
// streaming tid window narrows it to a subslice by binary search — the entry
// point that makes a windowed evaluation's cost proportional to its window.
func (e *Engine) virtualRootCandidates(step *lpath.Step, ctx *evalCtx) ([]int32, bool) {
	switch step.Axis {
	case lpath.AxisChild:
		roots := e.narrowToWindow(e.s.Roots(), ctx)
		if step.Wildcard() {
			return roots, true
		}
		nlo, nhi, ok := e.s.NameRange(step.Test)
		if !ok {
			return nil, false
		}
		out := ctx.ar.getInts()
		for _, ri := range roots {
			if ri >= nlo && ri < nhi {
				out = append(out, ri)
			}
		}
		return out, false
	case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		if step.Wildcard() {
			return e.narrowToWindow(e.s.ElementsByLeft(), ctx), true
		}
		nlo, nhi, ok := e.s.NameRange(step.Test)
		if !ok {
			return nil, false
		}
		return e.narrowToWindow(e.s.RowSeq()[nlo:nhi], ctx), true
	default:
		return nil, false
	}
}

// scanLeftRange appends to dst the rows of the clustered name range
// [rlo, rhi) whose left ∈ [lo, hi] within tid, additionally filtered by
// right ≤ maxRight and depth ≥ minDepth (pass maxInt32 / 0 to disable). It
// binary-searches the name range (or, for a wildcard, the whole-relation
// document order), so the probe costs O(log n + results).
func (e *Engine) scanLeftRange(wild bool, rlo, rhi, tid, lo, hi, maxRight, minDepth int32, dst []int32) []int32 {
	if hi < lo {
		return dst
	}
	cols := e.s.Cols()
	tids, lefts, rights, depths := cols.TID, cols.Left, cols.Right, cols.Depth
	if wild {
		idxs := e.s.ElementsByLeft()
		start := sort.Search(len(idxs), func(i int) bool {
			ri := idxs[i]
			return tids[ri] > tid || (tids[ri] == tid && lefts[ri] >= lo)
		})
		for i := start; i < len(idxs); i++ {
			ri := idxs[i]
			if tids[ri] != tid || lefts[ri] > hi {
				break
			}
			if rights[ri] <= maxRight && depths[ri] >= minDepth {
				dst = append(dst, ri)
			}
		}
		return dst
	}
	start := sort.Search(int(rhi-rlo), func(i int) bool {
		ri := rlo + int32(i)
		return tids[ri] > tid || (tids[ri] == tid && lefts[ri] >= lo)
	})
	for ri := rlo + int32(start); ri < rhi; ri++ {
		if tids[ri] != tid || lefts[ri] > hi {
			break
		}
		if rights[ri] <= maxRight && depths[ri] >= minDepth {
			dst = append(dst, ri)
		}
	}
	return dst
}

// immediatePreceding appends to dst, top down, the rows whose right is
// row's left. A first child starts where its parent does, so climbing from
// row while it is one reaches the node a that has a preceding sibling (none
// at a root: nothing ends where row starts). That sibling ends where a
// starts, and so does each node of its last-child chain, and nothing else.
func (e *Engine) immediatePreceding(row int32, wild bool, nlo, nhi int32, dst []int32) []int32 {
	parents := e.s.ParentRows()
	x := e.precedingSibling(row)
	for a := row; x == noRow; x = e.precedingSibling(a) {
		if a = parents[a]; a == relstore.NoParent {
			return dst
		}
	}
	cols := e.s.Cols()
	for {
		if wild || (x >= nlo && x < nhi) {
			dst = append(dst, x)
		}
		kids := e.s.Children(cols.TID[x], cols.ID[x])
		if len(kids) == 0 {
			return dst
		}
		x = kids[len(kids)-1]
	}
}

// precedingSibling returns the sibling just before element row x, or noRow
// for a first child (a root is the first child of the virtual root):
// preorder numbers a first child right after its parent. Siblings are
// consecutive children (every leaf spans one position), so the preceding one
// is the previous entry of the parent's child list, found by binary search
// on id.
func (e *Engine) precedingSibling(x int32) int32 {
	cols := e.s.Cols()
	ids, id, pid := cols.ID, cols.ID[x], cols.PID[x]
	if id == pid+1 {
		return noRow
	}
	sibs := e.s.Children(cols.TID[x], pid)
	lo, hi := 0, len(sibs)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); ids[sibs[m]] < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return noRow
	}
	return sibs[lo-1]
}

// siblingCandidates probes the {tid, pid} child list. Siblings' spans are
// disjoint and the list is left-sorted, so both left and right increase
// monotonically along it — the span boundary of each sibling axis is found
// by binary search and only the matching run is visited, instead of scanning
// every sibling and testing the Table 2 relation one by one.
func (e *Engine) siblingCandidates(axis lpath.Axis, row, tid, pid, left, right int32, wild bool, nlo, nhi int32, ctx *evalCtx) []int32 {
	sibs := e.s.Children(tid, pid)
	out := ctx.ar.getInts()
	cols := e.s.Cols()
	lefts, rights := cols.Left, cols.Right
	switch axis {
	case lpath.AxisFollowingSibling, lpath.AxisImmediateFollowingSibling, lpath.AxisFollowingSiblingOrSelf:
		if axis == lpath.AxisFollowingSiblingOrSelf && (wild || (row >= nlo && row < nhi)) {
			out = append(out, row) // self precedes its following siblings
		}
		// First sibling with left ≥ c.right; the run is immediate when it
		// must equal c.right, otherwise the whole tail qualifies.
		start := sort.Search(len(sibs), func(i int) bool { return lefts[sibs[i]] >= right })
		for i := start; i < len(sibs); i++ {
			si := sibs[i]
			if axis == lpath.AxisImmediateFollowingSibling && lefts[si] > right {
				break
			}
			if si == row {
				continue
			}
			if wild || (si >= nlo && si < nhi) {
				out = append(out, si)
			}
		}
	default:
		// Siblings left of the context (left < c.left) all have
		// right ≤ c.left — exactly the preceding-sibling set; the immediate
		// variant narrows to the run with right = c.left.
		end := sort.Search(len(sibs), func(i int) bool { return lefts[sibs[i]] >= left })
		i := 0
		if axis == lpath.AxisImmediatePrecedingSibling {
			i = sort.Search(end, func(i int) bool { return rights[sibs[i]] >= left })
		}
		for ; i < end; i++ {
			si := sibs[i]
			if si == row || rights[si] > left {
				continue
			}
			if wild || (si >= nlo && si < nhi) {
				out = append(out, si)
			}
		}
		if axis == lpath.AxisPrecedingSiblingOrSelf && (wild || (row >= nlo && row < nhi)) {
			out = append(out, row) // self follows its preceding siblings
		}
	}
	return out
}

// --- predicate evaluation ------------------------------------------------

func (e *Engine) evalExpr(x lpath.Expr, b bind, pos, size int, ctx *evalCtx) (bool, error) {
	switch ex := x.(type) {
	case *lpath.AndExpr:
		ok, err := e.evalExpr(ex.L, b, pos, size, ctx)
		if err != nil || !ok {
			return false, err
		}
		return e.evalExpr(ex.R, b, pos, size, ctx)
	case *lpath.OrExpr:
		ok, err := e.evalExpr(ex.L, b, pos, size, ctx)
		if err != nil || ok {
			return ok, err
		}
		return e.evalExpr(ex.R, b, pos, size, ctx)
	case *lpath.NotExpr:
		ok, err := e.evalExpr(ex.X, b, pos, size, ctx)
		return !ok, err
	case *lpath.PathExpr:
		if set := ctx.setFor(x); set != nil && b.scope == noRow && b.row != noRow {
			return set.has(e.s.Pos(b.row)), nil
		}
		return e.evalExistential(ex.Path, b, "", "", ctx)
	case *lpath.CmpExpr:
		if set := ctx.setFor(x); set != nil && b.scope == noRow && b.row != noRow {
			return set.has(e.s.Pos(b.row)), nil
		}
		return e.evalExistential(ex.Path, b, ex.Op, ex.Value, ctx)
	case *lpath.PositionExpr:
		rhs := ex.Value
		if ex.Last {
			rhs = size
		}
		return lpath.CompareInts(pos, ex.Op, rhs), nil
	case *lpath.LastExpr:
		return pos == size, nil
	case *lpath.CountExpr:
		matches, err := e.evalSubPath(ex.Path, b, ctx)
		if err != nil {
			return false, err
		}
		n := len(matches)
		ctx.ar.putBinds(matches)
		return lpath.CompareInts(n, ex.Op, ex.Value), nil
	case *lpath.StrFnExpr:
		return e.evalStrFn(ex, b, ctx)
	}
	return false, nil
}

// evalSubPath evaluates a nested path from one binding; the returned slice is
// arena-owned and must be released by the caller. The one-element start
// frontier comes from the arena too — a stack array would be forced to the
// heap on every call, because evalPath's input may alias buffers that reach
// the arena's free lists.
func (e *Engine) evalSubPath(p *lpath.Path, b bind, ctx *evalCtx) ([]bind, error) {
	start := append(ctx.ar.getBinds(), b)
	out, err := e.evalPath(p, start, ctx)
	ctx.ar.putBinds(start)
	return out, err
}

// evalStrFn evaluates contains/starts-with/ends-with over the attribute
// values reached by the path.
func (e *Engine) evalStrFn(x *lpath.StrFnExpr, b bind, ctx *evalCtx) (bool, error) {
	head, attr, err := lpath.SplitAttr(x.Path)
	if err != nil {
		return false, err
	}
	if attr == "" {
		return false, lpath.ErrCmpNeedsAttr
	}
	if head == nil {
		// Self only: keep the one-element frontier on the stack. It must not
		// share a code path with the arena-owned slice below, or escape
		// analysis would heap-allocate it.
		self := [1]bind{b}
		return e.strFnHit(self[:], x, attr), nil
	}
	elems, err := e.evalSubPath(head, b, ctx)
	if err != nil {
		return false, err
	}
	hit := e.strFnHit(elems, x, attr)
	ctx.ar.putBinds(elems)
	return hit, nil
}

func (e *Engine) strFnHit(elems []bind, x *lpath.StrFnExpr, attr string) bool {
	for _, eb := range elems {
		if eb.row == noRow {
			continue
		}
		if v, ok := e.s.AttrValue(eb.row, attr); ok && lpath.StrFn(x.Fn, v, x.Arg) {
			return true
		}
	}
	return false
}

// evalExistential implements existence predicates and attribute
// comparisons: it evaluates the path from the binding and checks whether any
// reached element (and, for comparisons, its attribute value) satisfies the
// test.
func (e *Engine) evalExistential(p *lpath.Path, b bind, op, value string, ctx *evalCtx) (bool, error) {
	head, attr, err := lpath.SplitAttr(p)
	if err != nil {
		return false, err
	}
	if op != "" && attr == "" {
		return false, lpath.ErrCmpNeedsAttr
	}
	if head == nil {
		self := [1]bind{b}
		return e.existHit(self[:], attr, op, value), nil
	}
	elems, err := e.evalSubPath(head, b, ctx)
	if err != nil {
		return false, err
	}
	hit := e.existHit(elems, attr, op, value)
	ctx.ar.putBinds(elems)
	return hit, nil
}

func (e *Engine) existHit(elems []bind, attr, op, value string) bool {
	if attr == "" {
		return len(elems) > 0
	}
	for _, eb := range elems {
		if eb.row == noRow {
			continue
		}
		v, ok := e.s.AttrValue(eb.row, attr)
		if !ok {
			continue
		}
		switch op {
		case "":
			return true
		case "=":
			if v == value {
				return true
			}
		case "!=":
			if v != value {
				return true
			}
		}
	}
	return false
}
