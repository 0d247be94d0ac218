package engine

import (
	"lpath/internal/label"
	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// Semijoin execution: the reverse strategy for an existential filter chosen
// by the planner. Instead of evaluating the filter path forward from every
// candidate, the engine materializes the set of rows that satisfy the filter
// once per (filter, scope) — seeding from the path's final step (a value
// posting list or one clustered name range) and walking the inverse axes
// back to the path's head — and then answers each candidate with a set
// lookup. Soundness rests on the Table 2 label predicates being symmetric
// under lpath.InverseAxis, and on the planner's reversibility gate (no
// alignment, no positional predicates, no subtree scope, no attribute axes
// mid-path), which guarantees the reverse walk visits exactly the rows a
// forward evaluation could have reached.

// semiHolds answers one candidate's filter membership, building and
// memoizing the satisfier set on first use. Unscoped filters materialize as
// dense bitsets (bitmap.go) unless the bitmap kernels are disabled; scoped
// satisfier sets are small and numerous (one per scope), so they stay maps —
// a bitset's whole-store clear per scope would swamp the lookup win.
func (e *Engine) semiHolds(sj *planner.Semijoin, x lpath.Expr, b bind, ctx *evalCtx) (bool, error) {
	if b.scope == noRow && e.bitmap != bitmapOff {
		set, err := e.satisfierBits(sj, x, b.scope, ctx)
		if err != nil {
			return false, err
		}
		return set.Has(b.row), nil
	}
	key := satKey{expr: x, scope: b.scope}
	set, ok := ctx.sat[key]
	if !ok {
		if ctx.sat == nil {
			ctx.sat = make(map[satKey]map[int32]bool)
		}
		var err error
		set, err = e.satisfiers(sj, x, b.scope, ctx)
		if err != nil {
			return false, err
		}
		ctx.sat[key] = set
	}
	return set[b.row], nil
}

// satisfiers computes the rows from which the filter path has at least one
// match under the given scope.
func (e *Engine) satisfiers(sj *planner.Semijoin, x lpath.Expr, scope int32, ctx *evalCtx) (map[int32]bool, error) {
	steps := sj.Head.Steps
	cur, err := e.semiSeeds(sj, scope, ctx)
	if err != nil {
		return nil, err
	}
	nSeeds := len(cur)

	// Climb: level i-1 holds the rows matching step i-1 (test, predicates,
	// scope) from which some level-i row is reachable along step i's axis —
	// equivalently, rows reachable from a level-i row along the inverse.
	for i := len(steps) - 1; i >= 1 && len(cur) > 0; i-- {
		inv, _ := lpath.InverseAxis(steps[i].Axis)
		prev := &steps[i-1]
		synth := lpath.Step{Axis: inv, Test: prev.Test}
		next := cur[:0:0]
		seen := make(map[int32]bool)
		for _, ri := range cur {
			cands, borrowed := e.axisCandidates(&synth, bind{row: ri, scope: scope}, ctx)
			for _, ci := range cands {
				if seen[ci] {
					continue
				}
				seen[ci] = true
				if !e.inScopeRow(scope, ci) {
					continue
				}
				ok, err := e.semiPredsHold(prev.Preds, ci, scope, "", "", ctx)
				if err != nil {
					if !borrowed {
						ctx.ar.putInts(cands)
					}
					return nil, err
				}
				if ok {
					next = append(next, ci)
				}
			}
			if !borrowed {
				ctx.ar.putInts(cands)
			}
		}
		cur = next
	}

	// Final hop: any row that reaches a head-level row along the first
	// step's axis satisfies the filter. The candidate's own test, scope and
	// predicates are the outer step's business, so the inverse probe is
	// unconstrained (wildcard).
	out := make(map[int32]bool, len(cur))
	inv0, _ := lpath.InverseAxis(steps[0].Axis)
	synth := lpath.Step{Axis: inv0, Test: "_"}
	for _, ri := range cur {
		cands, borrowed := e.axisCandidates(&synth, bind{row: ri, scope: scope}, ctx)
		for _, ci := range cands {
			out[ci] = true
		}
		if !borrowed {
			ctx.ar.putInts(cands)
		}
	}
	ctx.countSemi(x, nSeeds, len(out))
	return out, nil
}

// semiSeeds materializes the filter path's final-step matches: rows
// satisfying its node test, its predicates, the scope, and the filter's
// trailing attribute condition.
func (e *Engine) semiSeeds(sj *planner.Semijoin, scope int32, ctx *evalCtx) ([]int32, error) {
	steps := sj.Head.Steps
	last := &steps[len(steps)-1]
	var cands []int32
	skipValue, skipAttr := "", ""
	if sj.Seed == planner.SeedValue {
		// The posting list already enforces one @attr=value equality; skip
		// re-checking that predicate, like the forward value driver does.
		skipValue, skipAttr = sj.SeedValue, sj.SeedAttr
		for _, pi := range e.s.ByValue(sj.SeedValue) {
			ar := e.s.Row(pi)
			if ar.Name != sj.SeedAttr {
				continue
			}
			// Posting lists are grouped by attribute name, not tid-sorted, so
			// the streaming tid window filters linearly. The windowed set is
			// memoized per batch only; evalCtx.clearSat drops it between
			// batches.
			if !ctx.inWindow(ar.TID) {
				continue
			}
			ei, ok := e.s.ElementByID(ar.TID, ar.ID)
			if !ok {
				continue
			}
			if !last.Wildcard() && e.s.Row(ei).Name != last.Test {
				continue
			}
			cands = append(cands, ei)
		}
	} else if last.Wildcard() {
		cands = e.narrowToWindow(e.s.ElementsByLeft(), ctx)
	} else if lo, hi, ok := e.s.NameRange(last.Test); ok {
		// The clustered name range, zero-copy via the identity row sequence,
		// narrowed to the streaming tid window when one is active.
		cands = e.narrowToWindow(e.s.RowSeq()[lo:hi], ctx)
	}

	out := cands[:0:0]
	for _, ci := range cands {
		if !e.inScopeRow(scope, ci) || !e.semiAttrOK(sj, ci) {
			continue
		}
		ok, err := e.semiPredsHold(last.Preds, ci, scope, skipValue, skipAttr, ctx)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ci)
		}
	}
	return out, nil
}

// semiPredsHold checks a step's predicates on one row. The reversibility
// gate excludes positional predicates, so the positional context is inert;
// nested paths evaluate forward exactly as they would in the forward
// strategy (and may use their own semijoins via ctx).
func (e *Engine) semiPredsHold(preds []lpath.Expr, ri, scope int32, skipValue, skipAttr string, ctx *evalCtx) (bool, error) {
	for _, pred := range preds {
		if skipValue != "" {
			if cmp, ok := pred.(*lpath.CmpExpr); ok && isDirectEq(cmp) &&
				cmp.Value == skipValue && len(skipAttr) > 1 && cmp.Path.Steps[0].Test == skipAttr[1:] {
				continue
			}
		}
		ok, err := e.evalExpr(pred, bind{row: ri, scope: scope}, 1, 1, ctx)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// semiAttrOK applies the filter's trailing attribute condition to a row.
func (e *Engine) semiAttrOK(sj *planner.Semijoin, ri int32) bool {
	if sj.Attr == "" {
		return true
	}
	r := e.s.Row(ri)
	v, ok := e.s.AttrValueBare(r.TID, r.ID, sj.Attr)
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

// inScopeRow reports whether the row lies inside the subtree scope (noRow =
// unscoped).
func (e *Engine) inScopeRow(scope, ri int32) bool {
	if scope == noRow {
		return true
	}
	sc, r := e.s.Row(scope), e.s.Row(ri)
	return r.TID == sc.TID && label.InScope(rowLabel(r), rowLabel(sc))
}
