package engine

import (
	"cmp"
	"slices"
	"sort"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// Set-at-a-time merge execution (docs/EXECUTION.md). Instead of probing the
// store once per context binding, the merge executor joins the whole frontier
// against the step's posting list — the clustered name range (zero-copy via
// the identity row sequence), or the document-order index for wildcards — in
// one forward sweep. The interval labeling is what makes this possible: both
// sides are (tid, left)- or (tid, right)-ordered, every Table 2 axis relation
// is a range condition on those orders, and subtree spans form a laminar
// family, so overlapping context work can be pruned instead of deduplicated
// after the fact.
//
// The sweep advances a single posting cursor with galloping (exponential)
// search, so a step costs O(Σ log gap + results) — bounded by the posting
// list length, however many context bindings fan in. The planner's cost
// model (planner.StepPlan.Strategy) decides per step whether this beats
// per-binding probes; WithMergeAlways forces it for differential testing.

// evalStepMerge evaluates one step set-at-a-time. The frontier is grouped by
// scope (candidate membership is a pure function of (context, scope)); each
// group is merged in one sweep, scope-filtered, and pushed through the
// predicate pipeline. Within a group every result row is emitted exactly
// once — the per-axis merges produce duplicate-free unions by construction —
// so no cross-binding dedup set is needed.
func (e *Engine) evalStepMerge(step *lpath.Step, sp *planner.StepPlan, preds []lpath.Expr, binds []bind, ctx *evalCtx) ([]bind, error) {
	work := append(ctx.ar.getBinds(), binds...)
	slices.SortFunc(work, func(a, b bind) int {
		if c := cmp.Compare(a.scope, b.scope); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	out := ctx.ar.getBinds()
	ctxRows := ctx.ar.getInts()
	cands := ctx.ar.getInts()
	cols := e.s.Cols()
	for gi := 0; gi < len(work); {
		if ctx.interrupted() {
			ctx.ar.putInts(cands)
			ctx.ar.putInts(ctxRows)
			ctx.ar.putBinds(work)
			ctx.ar.putBinds(out)
			return nil, ctx.cerr
		}
		scope := work[gi].scope
		gj := gi
		for gj < len(work) && work[gj].scope == scope {
			gj++
		}
		ctxRows = ctxRows[:0]
		for _, b := range work[gi:gj] {
			ctxRows = append(ctxRows, b.row)
		}
		gi = gj
		cands = e.mergeAxis(step, scope, ctxRows, cands[:0])
		if scope != noRow {
			st, sl, sr, sd := cols.TID[scope], cols.Left[scope], cols.Right[scope], cols.Depth[scope]
			kept := cands[:0]
			for _, ci := range cands {
				if cols.TID[ci] == st && cols.Left[ci] >= sl && cols.Right[ci] <= sr && cols.Depth[ci] >= sd {
					kept = append(kept, ci)
				}
			}
			cands = kept
		}
		for _, pred := range preds {
			var err error
			cands, err = e.filterPred(pred, scope, cands, ctx)
			if err != nil {
				ctx.ar.putInts(cands)
				ctx.ar.putInts(ctxRows)
				ctx.ar.putBinds(work)
				ctx.ar.putBinds(out)
				return nil, err
			}
			if len(cands) == 0 {
				break
			}
		}
		for _, ci := range cands {
			out = append(out, bind{row: ci, scope: scope})
		}
	}
	ctx.ar.putInts(cands)
	ctx.ar.putInts(ctxRows)
	ctx.ar.putBinds(work)
	ctx.countStep(sp, len(out))
	return out, nil
}

// mergeAxis appends the duplicate-free union of the axis sets of all context
// rows (which share one scope) to dst. ctxs may be reordered in place.
func (e *Engine) mergeAxis(step *lpath.Step, scope int32, ctxs, dst []int32) []int32 {
	wild := step.Wildcard()
	var nlo, nhi int32
	byRight := false
	switch step.Axis {
	case lpath.AxisPreceding, lpath.AxisPrecedingOrSelf, lpath.AxisImmediatePreceding:
		byRight = true
	}
	var post []int32
	if wild {
		if byRight {
			post = e.s.ElementsByRight()
		} else {
			post = e.s.ElementsByLeft()
		}
	} else {
		var ok bool
		nlo, nhi, ok = e.s.NameRange(step.Test)
		if !ok {
			return dst
		}
		if byRight {
			post = e.s.NameByRight(step.Test)
		} else {
			post = e.s.RowSeq()[nlo:nhi]
		}
	}
	// The scope's span clamps the horizontal sweeps sargably, mirroring the
	// probe path; the full scope check still runs afterwards.
	clampL, clampR := int32(0), maxInt32
	if scope != noRow {
		cols := e.s.Cols()
		clampL, clampR = cols.Left[scope], cols.Right[scope]
	}
	switch step.Axis {
	case lpath.AxisDescendant, lpath.AxisDescendantOrSelf:
		return e.mergeDescendant(post, ctxs, dst, step.Axis == lpath.AxisDescendantOrSelf)
	case lpath.AxisChild:
		return e.mergeChild(post, ctxs, dst)
	case lpath.AxisFollowing, lpath.AxisFollowingOrSelf:
		return e.mergeFollowing(post, ctxs, dst, step.Axis == lpath.AxisFollowingOrSelf, wild, nlo, nhi, clampR-1)
	case lpath.AxisPreceding, lpath.AxisPrecedingOrSelf:
		return e.mergePreceding(post, ctxs, dst, step.Axis == lpath.AxisPrecedingOrSelf, wild, nlo, nhi, clampL+1)
	case lpath.AxisImmediateFollowing:
		return e.mergeImmFollowing(post, ctxs, dst)
	case lpath.AxisImmediatePreceding:
		return e.mergeImmPreceding(post, ctxs, dst)
	}
	return dst
}

// mergeDescendant is the staircase structural join: contexts sorted by
// (tid, left, depth), contexts whose subtree lies inside the previous kept
// context's subtree pruned (their descendants are a subset — laminarity),
// and the survivors, whose spans are pairwise disjoint, swept against the
// left-ordered posting list with one monotone cursor.
func (e *Engine) mergeDescendant(post, ctxs, dst []int32, orSelf bool) []int32 {
	cols := e.s.Cols()
	tids, lefts, rights, depths := cols.TID, cols.Left, cols.Right, cols.Depth
	slices.SortFunc(ctxs, func(a, b int32) int {
		if c := cmp.Compare(tids[a], tids[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(lefts[a], lefts[b]); c != 0 {
			return c
		}
		return cmp.Compare(depths[a], depths[b])
	})
	kept := ctxs[:0]
	for _, c := range ctxs {
		if n := len(kept); n > 0 {
			top := kept[n-1]
			if tids[top] == tids[c] && rights[c] <= rights[top] {
				continue // c's subtree ⊆ top's: its results are covered
			}
		}
		kept = append(kept, c)
	}
	p, n := 0, len(post)
	for _, c := range kept {
		ct, cl, cr := tids[c], lefts[c], rights[c]
		minDepth := depths[c] + 1
		if orSelf {
			minDepth = depths[c]
		}
		p = gallopPost(post, p, func(ri int32) bool {
			return tids[ri] > ct || (tids[ri] == ct && lefts[ri] >= cl)
		})
		for ; p < n; p++ {
			ri := post[p]
			if tids[ri] != ct || lefts[ri] >= cr {
				break
			}
			// right ≤ c.right excludes left-aligned ancestors; the depth
			// bound excludes the context itself (and, in unary chains, its
			// same-span ancestors).
			if rights[ri] <= cr && depths[ri] >= minDepth {
				dst = append(dst, ri)
			}
		}
	}
	return dst
}

// mergeChild sorts the contexts by (tid, id) and walks the posting list
// once, answering each row's parent with a binary search — the sort-based
// dual of probing every parent's child list.
func (e *Engine) mergeChild(post, ctxs, dst []int32) []int32 {
	cols := e.s.Cols()
	tids, ids, pids := cols.TID, cols.ID, cols.PID
	sortByTID(ctxs, tids, ids)
	for _, ri := range post {
		pid := pids[ri]
		if pid == 0 {
			continue
		}
		t := tids[ri]
		j := sort.Search(len(ctxs), func(k int) bool {
			ck := ctxs[k]
			if tids[ck] != t {
				return tids[ck] > t
			}
			return ids[ck] >= pid
		})
		if j < len(ctxs) && tids[ctxs[j]] == t && ids[ctxs[j]] == pid {
			dst = append(dst, ri)
		}
	}
	return dst
}

// mergeFollowing exploits that the union of the contexts' following sets
// within one tree is a single range: every posting row with
// left ≥ min(context rights). For the or-self variant, a context row is part
// of the union iff it passes the node test; it is already swept up when its
// left reaches the range, so only contexts left of it are added explicitly.
func (e *Engine) mergeFollowing(post, ctxs, dst []int32, orSelf, wild bool, nlo, nhi, maxLeft int32) []int32 {
	cols := e.s.Cols()
	tids, lefts, rights := cols.TID, cols.Left, cols.Right
	sortByTID(ctxs, tids, rights)
	p, n := 0, len(post)
	for i := 0; i < len(ctxs); {
		ct := tids[ctxs[i]]
		minRight := rights[ctxs[i]]
		j := i
		for ; j < len(ctxs) && tids[ctxs[j]] == ct; j++ {
			if orSelf {
				cj := ctxs[j]
				if lefts[cj] < minRight && (wild || (cj >= nlo && cj < nhi)) {
					dst = append(dst, cj)
				}
			}
		}
		i = j
		p = gallopPost(post, p, func(ri int32) bool {
			return tids[ri] > ct || (tids[ri] == ct && lefts[ri] >= minRight)
		})
		for ; p < n; p++ {
			ri := post[p]
			if tids[ri] != ct || lefts[ri] > maxLeft {
				break
			}
			dst = append(dst, ri)
		}
	}
	return dst
}

// mergePreceding mirrors mergeFollowing over the (tid, right)-ordered
// posting list: the union per tree is every row with right ≤ max(context
// lefts), clamped below by the scope's left edge.
func (e *Engine) mergePreceding(post, ctxs, dst []int32, orSelf, wild bool, nlo, nhi, minRight int32) []int32 {
	cols := e.s.Cols()
	tids, lefts, rights := cols.TID, cols.Left, cols.Right
	sortByTID(ctxs, tids, lefts)
	p, n := 0, len(post)
	for i := 0; i < len(ctxs); {
		ct := tids[ctxs[i]]
		j := i
		for ; j < len(ctxs) && tids[ctxs[j]] == ct; j++ {
		}
		maxLeftCtx := lefts[ctxs[j-1]]
		p = gallopPost(post, p, func(ri int32) bool {
			return tids[ri] > ct || (tids[ri] == ct && rights[ri] >= minRight)
		})
		for ; p < n; p++ {
			ri := post[p]
			if tids[ri] != ct || rights[ri] > maxLeftCtx {
				break
			}
			dst = append(dst, ri)
		}
		if orSelf {
			// A context row right of the sweep's upper bound was not swept
			// up; it still precedes-or-selfs itself.
			for k := i; k < j; k++ {
				ck := ctxs[k]
				if rights[ck] > maxLeftCtx && (wild || (ck >= nlo && ck < nhi)) {
					dst = append(dst, ck)
				}
			}
		}
		i = j
	}
	return dst
}

// mergeImmFollowing sweeps contexts ordered by (tid, right) against the
// left-ordered posting list: each distinct context right edge selects the
// run of rows starting exactly there. Distinct edges select disjoint runs,
// so the union is duplicate-free without a set.
func (e *Engine) mergeImmFollowing(post, ctxs, dst []int32) []int32 {
	cols := e.s.Cols()
	tids, lefts, rights := cols.TID, cols.Left, cols.Right
	sortByTID(ctxs, tids, rights)
	p, n := 0, len(post)
	for i, c := range ctxs {
		ct, rt := tids[c], rights[c]
		if i > 0 && tids[ctxs[i-1]] == ct && rights[ctxs[i-1]] == rt {
			continue // same edge: same run, already emitted
		}
		p = gallopPost(post, p, func(ri int32) bool {
			return tids[ri] > ct || (tids[ri] == ct && lefts[ri] >= rt)
		})
		for ; p < n; p++ {
			ri := post[p]
			if tids[ri] != ct || lefts[ri] != rt {
				break
			}
			dst = append(dst, ri)
		}
	}
	return dst
}

// mergeImmPreceding is the mirror: contexts ordered by (tid, left) against
// the (tid, right)-ordered posting list, emitting the run whose right edge
// meets each distinct context left edge.
func (e *Engine) mergeImmPreceding(post, ctxs, dst []int32) []int32 {
	cols := e.s.Cols()
	tids, lefts, rights := cols.TID, cols.Left, cols.Right
	sortByTID(ctxs, tids, lefts)
	p, n := 0, len(post)
	for i, c := range ctxs {
		ct, lf := tids[c], lefts[c]
		if i > 0 && tids[ctxs[i-1]] == ct && lefts[ctxs[i-1]] == lf {
			continue
		}
		p = gallopPost(post, p, func(ri int32) bool {
			return tids[ri] > ct || (tids[ri] == ct && rights[ri] >= lf)
		})
		for ; p < n; p++ {
			ri := post[p]
			if tids[ri] != ct || rights[ri] != lf {
				break
			}
			dst = append(dst, ri)
		}
	}
	return dst
}

// sortByTID sorts rows by (tid, key).
func sortByTID(rows, tids, key []int32) {
	slices.SortFunc(rows, func(a, b int32) int {
		if c := cmp.Compare(tids[a], tids[b]); c != 0 {
			return c
		}
		return cmp.Compare(key[a], key[b])
	})
}

// gallopPost advances the posting cursor to the first index whose row
// satisfies pred, which must be monotone along the list: exponential probing
// followed by binary search, so a whole sweep costs O(Σ log gap) — never
// more than the list length, and far less when the frontier is sparse.
func gallopPost(post []int32, i int, pred func(int32) bool) int {
	n := len(post)
	if i >= n || pred(post[i]) {
		return i
	}
	step := 1
	for i+step < n && !pred(post[i+step]) {
		i += step
		step <<= 1
	}
	hi := i + step
	if hi > n {
		hi = n
	}
	return i + 1 + sort.Search(hi-i-1, func(k int) bool { return pred(post[i+1+k]) })
}
