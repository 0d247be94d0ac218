package engine

import (
	"context"
	"slices"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// TestSpanSetClearTouchesOnlyItsSpan pins the reset contract of the engine's
// dense sets: clearing costs the span of indexes added since the last clear —
// a stream window's positions, not the store — and leaves every word outside
// that span untouched.
func TestSpanSetClearTouchesOnlyItsSpan(t *testing.T) {
	a := &arena{setLen: 64 * 8}
	s := a.getSet()
	// Sentinels planted behind the set's back, in words the span never
	// reaches: a clear that swept the whole set would wipe them.
	s.bits.Set(3)
	s.bits.Set(64*7 + 9)
	for _, p := range []int32{64*2 + 1, 64*3 + 40, 64*5 + 2} {
		s.add(p)
	}
	if s.lo != 64*2+1 || s.hi != 64*5+3 {
		t.Fatalf("span [%d, %d), want [%d, %d)", s.lo, s.hi, 64*2+1, 64*5+3)
	}
	a.putSet(s)
	for _, p := range []int32{64*2 + 1, 64*3 + 40, 64*5 + 2} {
		if s.has(p) {
			t.Errorf("position %d survived the clear", p)
		}
	}
	if !s.has(3) || !s.has(64*7+9) {
		t.Error("clear wrote outside the set's span")
	}
	if s.lo <= s.hi {
		t.Errorf("cleared set keeps span [%d, %d)", s.lo, s.hi)
	}
}

// TestMergeFilterOutOfOrder pins the merge's fallback: a whole frontier out
// of (tid, left) order — the unary chains' NP rows, reversed — is answered
// by the satisfier set, in frontier order, as forward evaluation answers it.
func TestMergeFilterOutOfOrder(t *testing.T) {
	s := relstore.Build(unaryCorpus(), relstore.SchemeInterval)
	lo, hi, _ := s.NameRange("NP")
	var cands []int32
	for ri := hi - 1; ri >= lo; ri-- {
		cands = append(cands, ri)
	}
	p := lpath.MustParse(`//NP[not(//NP)]`)
	pred := p.Steps[0].Preds[0]
	filter := func(opts ...Option) ([]int32, *planner.Actuals) {
		e, err := New(s, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := e.acquire(context.Background(), e.Plan(p))
		defer e.releaseCtx(ctx)
		ctx.act = &planner.Actuals{Sides: map[*planner.StepPlan]string{}}
		out, err := e.filterPred(pred, noRow, true, slices.Clone(cands), ctx)
		if err != nil {
			t.Fatal(err)
		}
		return out, ctx.act
	}
	got, act := filter()
	want, _ := filter(WithFilterPath(false))
	if !slices.Equal(got, want) || len(want) == 0 || len(want) == len(cands) {
		t.Errorf("filtered %v, forward %v", got, want)
	}
	if run := act.Filters[pred.(*lpath.NotExpr).X]; run == nil || run.Path != "set" {
		t.Errorf("filter ran %+v, want the set path", run)
	}
}
