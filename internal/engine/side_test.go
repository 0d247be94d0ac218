package engine

import (
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// TestKernelSideRule pins the engine's one side rule for kernel-capable
// steps: the gate (kernelGate) and the size test (kernelFits), which the
// scope entry, the unscoped step and the scoped step all consult.
func TestKernelSideRule(t *testing.T) {
	auto, _ := figureEngine(t)
	off, _ := figureEngine(t, WithoutBitmap())
	always, _ := figureEngine(t, WithBitmapAlways())
	planned, valued := &planner.StepPlan{}, &planner.StepPlan{Value: "saw"}

	gates := []struct {
		name   string
		e      *Engine
		sp     *planner.StepPlan
		n      int
		kernel bool
		side   string // what EXPLAIN records for the step
	}{
		{"off", off, planned, 8, false, ""},
		{"always, no plan, lone", always, nil, 1, true, ""},
		{"always, value-drivable", always, valued, 8, true, ""},
		{"no plan", auto, nil, 8, false, ""},
		{"lone binding", auto, planned, 1, false, "probe"},
		{"value-drivable", auto, valued, 8, false, ""},
		{"planned frontier", auto, planned, 8, true, ""},
	}
	for _, g := range gates {
		ctx := &evalCtx{act: &planner.Actuals{Sides: map[*planner.StepPlan]string{}}}
		if got := g.e.kernelGate(g.sp, g.n, ctx); got != g.kernel {
			t.Errorf("%s: gate = %v, want %v", g.name, got, g.kernel)
		}
		if got := ctx.act.Sides[g.sp]; got != g.side {
			t.Errorf("%s: recorded side %q, want %q", g.name, got, g.side)
		}
	}

	// The size test: posting ≤ kernelRows(axis) × frontier.
	const n = 3
	for _, c := range []struct {
		axis lpath.Axis
		rows int
	}{
		{lpath.AxisChild, 16},
		{lpath.AxisImmediateFollowingSibling, 4},
		{lpath.AxisDescendant, 24},
	} {
		if !auto.kernelFits(c.axis, c.rows*n, n) {
			t.Errorf("%v: a posting of %d rows for %d bindings should take the kernel", c.axis, c.rows*n, n)
		}
		if auto.kernelFits(c.axis, c.rows*n+1, n) {
			t.Errorf("%v: a posting of %d rows for %d bindings should probe", c.axis, c.rows*n+1, n)
		}
		if !always.kernelFits(c.axis, c.rows*n+1, n) {
			t.Errorf("%v: bitmapAlways should fit every posting", c.axis)
		}
	}

	// Without a plan a scoped frontier probes: the unplanned engine shares
	// no side choice with the planned one. The same frontier with a plan
	// passes the gate, so the plan is what decides.
	root := auto.s.Roots()[0]
	scoped := []bind{{row: root, scope: root}, {row: root, scope: root}}
	step := &lpath.MustParse(`//S/VP`).Steps[1]
	if auto.scopedKernel(step, nil, scoped, &evalCtx{}) {
		t.Error("an unplanned scoped frontier took the kernel")
	}
	if !auto.scopedKernel(step, planned, scoped, &evalCtx{}) {
		t.Error("a planned scoped frontier of two bindings failed the gate")
	}
}
