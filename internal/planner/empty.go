package planner

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
)

// Empty answers (docs/PLANNER.md): the set of names a step can match
// propagates along the query through the store's tag-pair summary and the
// node tests, and a set that becomes empty proves the query has no answer,
// or a predicate not(p) vacuous: true on every row of the step. Every rule
// over-approximates: scopes and alignment only narrow, and an axis the
// summary does not hold carries every name.

// nameSet is a bitset over the store's name ids (relstore.Store.NameID);
// nil is every name.
type nameSet []uint64

func (s nameSet) has(id int) bool { return s[id>>6]&(1<<(id&63)) != 0 }

// pairAxes maps an axis to the summary relation it reads (-1: none),
// transposed for a converse axis, and whether it keeps the context's own
// names (or-self).
var pairAxes = map[lpath.Axis]struct {
	rel        relstore.Pair
	conv, self bool
}{
	lpath.AxisSelf:                      {-1, false, true},
	lpath.AxisChild:                     {relstore.PairChild, false, false},
	lpath.AxisParent:                    {relstore.PairChild, true, false},
	lpath.AxisDescendant:                {relstore.PairDescendant, false, false},
	lpath.AxisDescendantOrSelf:          {relstore.PairDescendant, false, true},
	lpath.AxisAncestor:                  {relstore.PairDescendant, true, false},
	lpath.AxisAncestorOrSelf:            {relstore.PairDescendant, true, true},
	lpath.AxisImmediateFollowingSibling: {relstore.PairNextSibling, false, false},
	lpath.AxisImmediatePrecedingSibling: {relstore.PairNextSibling, true, false},
	lpath.AxisFollowingSibling:          {relstore.PairFollowingSibling, false, false},
	lpath.AxisFollowingSiblingOrSelf:    {relstore.PairFollowingSibling, false, true},
	lpath.AxisPrecedingSibling:          {relstore.PairFollowingSibling, true, false},
	lpath.AxisPrecedingSiblingOrSelf:    {relstore.PairFollowingSibling, true, true},
}

// proveEmpty returns why the query has no answer on the corpus, or "", and
// marks the plan's vacuous predicates. A query whose predicates may raise a
// runtime error gets no proof: evaluating it could surface the error first.
func (pl *Planner) proveEmpty(p *lpath.Path, plan *Plan) string {
	if pl.s.Pairs() == nil || pathPredsCanError(p) {
		return ""
	}
	return pl.emptyPath(p, nil, "", true, plan)
}

// emptyPath propagates the context's names s (ctx its node test) through the
// path, a scoped tail continuing from its head, marks the vacuous predicates
// on the way and returns why the path ends on no name, or "".
func (pl *Planner) emptyPath(p *lpath.Path, s nameSet, ctx string, root bool, plan *Plan) string {
	tp, n := pl.s.Pairs(), len(pl.s.Parts().Names)
	for q := p; q != nil; q = q.Scoped {
		for i := range q.Steps {
			step := &q.Steps[i]
			id, ok := pl.s.NameID(step.Test)
			switch {
			case step.Axis == lpath.AxisAttribute:
				continue // an attribute exists only where its element does
			case isWild(step.Test):
				id = -1
			case !ok:
				return fmt.Sprintf("no %s element", step.Test)
			}
			ax, known := pairAxes[step.Axis]
			out := nameSet(nil) // from the virtual root or every name, as from an unknown axis
			if known && !root && s != nil {
				out = image(tp, n, ax.rel, ax.conv, s, id)
				if ax.self {
					for w := range out {
						out[w] |= s[w]
					}
				}
			}
			if id >= 0 && (out == nil || out.has(id)) {
				out = make(nameSet, tp.Words)
				out[id>>6] |= 1 << (id & 63)
			} else if id >= 0 || (out != nil && !slices.ContainsFunc(out, func(w uint64) bool { return w != 0 })) {
				axis := cmp.Or(step.Axis.Abbrev(), step.Axis.String())
				return fmt.Sprintf("no %s %s %s pair", ctx, axis, step.Test)
			}
			for _, pred := range step.Preds {
				if why := pl.refutes(pred, out, step.Test, plan); why != "" {
					return why
				}
				if why := pl.vacuous(pred, out, step.Test, plan); why != "" {
					for _, ppd := range plan.steps[step].Preds {
						if ppd.Expr == pred {
							ppd.Vacuous = why
						}
					}
				}
			}
			s, ctx, root = out, step.Test, false
		}
	}
	return ""
}

// refutes returns why the predicate holds on none of the names s, or "": a
// path predicate fails when its path is empty from all of s, and and/or
// combine their sides; not, count, position and comparisons prove nothing.
func (pl *Planner) refutes(x lpath.Expr, s nameSet, ctx string, plan *Plan) string {
	switch e := x.(type) {
	case *lpath.PathExpr:
		return pl.emptyPath(e.Path, s, ctx, false, plan)
	case *lpath.AndExpr:
		return cmp.Or(pl.refutes(e.L, s, ctx, plan), pl.refutes(e.R, s, ctx, plan))
	case *lpath.OrExpr:
		if l, r := pl.refutes(e.L, s, ctx, plan), pl.refutes(e.R, s, ctx, plan); l != "" && r != "" {
			return l + "; " + r
		}
	}
	return ""
}

// vacuous returns why the predicate holds on every one of the names s, or
// "": not(p) when p is refuted, p or q when either side is vacuous, p and q
// when both are.
func (pl *Planner) vacuous(x lpath.Expr, s nameSet, ctx string, plan *Plan) string {
	switch e := x.(type) {
	case *lpath.NotExpr:
		return pl.refutes(e.X, s, ctx, plan)
	case *lpath.OrExpr:
		return cmp.Or(pl.vacuous(e.L, s, ctx, plan), pl.vacuous(e.R, s, ctx, plan))
	case *lpath.AndExpr:
		if l, r := pl.vacuous(e.L, s, ctx, plan), pl.vacuous(e.R, s, ctx, plan); l != "" && r != "" {
			return l + "; " + r
		}
	}
	return ""
}

// image returns the names some name of s stands in relation rel to or, for
// a converse axis (conv), the names that stand in rel to some name of s: all
// n of them, or only id when it is not -1. rel -1 (self) relates nothing.
func image(tp *relstore.TagPairs, n int, rel relstore.Pair, conv bool, s nameSet, id int) nameSet {
	out := make(nameSet, tp.Words)
	meets := func(b int) bool {
		for w, r := range tp.Row(rel, b) {
			if r&s[w] != 0 {
				return true
			}
		}
		return false
	}
	switch {
	case rel < 0:
	case conv && id >= 0:
		if meets(id) {
			out[id>>6] |= 1 << (id & 63)
		}
	case conv:
		for b := range n {
			if meets(b) {
				out[b>>6] |= 1 << (b & 63)
			}
		}
	default:
		for w, word := range s {
			for ; word != 0; word &= word - 1 {
				for i, r := range tp.Row(rel, w<<6+bits.TrailingZeros64(word)) {
					out[i] |= r
				}
			}
		}
	}
	return out
}
