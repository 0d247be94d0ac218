package engine

import (
	"context"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// Plan-directed execution state. An evalCtx travels through one evaluation
// (one Eval/Count/Explain call): it carries the cost-based plan the steps
// consult, the per-filter state (satisfier sets), and — for EXPLAIN — the
// actual-cardinality counters. A nil plan (or a nil field lookup) means the
// engine's default strategy, which is exactly the pre-planner behavior; the
// differential tests and fuzzers hold the two result-identical.

type evalCtx struct {
	plan *planner.Plan
	// filters holds each set-capable filter's state for the evaluation (or
	// the current tid window), indexed by planner.Semijoin.ID: within
	// one window the same unscoped filter always has the same satisfiers,
	// however many frontiers probe it.
	filters []filterState
	// act collects actual cardinalities when EXPLAIN runs the query.
	act *planner.Actuals
	// ar is the evaluation's scratch arena (see arena.go); it survives
	// across evaluations via the Engine's evalCtx pool.
	ar *arena

	// Cooperative cancellation. cctx is the evaluation's context — nil when
	// the caller's context can never be cancelled, so uncancellable
	// evaluations pay nothing. The executors' hot loops call interrupted(),
	// which polls cctx.Err() once every cancelStride calls and latches the
	// result in cerr.
	cctx context.Context
	tick int
	cerr error

	// The tid window (window.go). When windowed is set, every
	// virtual-root entry point — the probe's first-step candidate lists, the
	// kernels' postings, the scoped-roots expansion, semijoin seeds and the
	// value-driver postings — restricts itself to trees with
	// tid ∈ [winLo, winHi). Axes never cross trees, so a windowed evaluation
	// is exactly the full evaluation restricted to that tree range, which is
	// what lets Run evaluate windows of trees apart and stop early.
	winLo, winHi int32
	windowed     bool
}

// inWindow reports whether a tree falls inside the streaming tid window
// (always true for unwindowed evaluations).
func (c *evalCtx) inWindow(tid int32) bool {
	return !c.windowed || (tid >= c.winLo && tid < c.winHi)
}

// cancelStride bounds how many interrupted() calls pass between two
// ctx.Err() polls. Each call between polls is a counter increment, so the
// hot loops stay cheap while a cancelled evaluation is still abandoned
// within a few thousand loop iterations — microseconds of work.
const cancelStride = 4096

// interrupted reports whether the evaluation's context is done. The result
// is sticky: once the context reports an error the evaluation stays
// interrupted, whatever loop asks next.
func (c *evalCtx) interrupted() bool {
	if c.cctx == nil {
		return false
	}
	if c.cerr != nil {
		return true
	}
	c.tick++
	if c.tick < cancelStride {
		return false
	}
	c.tick = 0
	if err := c.cctx.Err(); err != nil {
		c.cerr = err
		return true
	}
	return false
}

// acquire takes a pooled evaluation context bound to the plan; the caller
// hands it back with releaseCtx. The arena's buffers are retained across
// evaluations — that retention is what makes steady-state execution of a
// compiled plan allocation-free. cctx is recorded for cooperative
// cancellation only when it can actually be cancelled (Done() != nil);
// context.Background() and friends cost nothing.
func (e *Engine) acquire(cctx context.Context, plan *planner.Plan) *evalCtx {
	ctx := e.ctxPool.Get().(*evalCtx)
	ctx.plan = plan
	if cctx.Done() != nil {
		ctx.cctx = cctx
	}
	return ctx
}

func (e *Engine) releaseCtx(ctx *evalCtx) {
	ctx.plan = nil
	ctx.act = nil
	ctx.cctx = nil
	ctx.tick = 0
	ctx.cerr = nil
	ctx.winLo, ctx.winHi = 0, 0
	ctx.windowed = false
	// Satisfier sets are valid only for the evaluation's plan: they go back
	// to the arena.
	ctx.clearSat()
	e.ctxPool.Put(ctx)
}

// clearSat drops the per-filter state: satisfier sets go back to the arena
// and the forward counters restart. Run also calls it between the tid
// windows one evaluation context evaluates: a satisfier set built under one
// window is seeded from that window's trees only and must not answer probes
// from the next.
func (c *evalCtx) clearSat() {
	for i := range c.filters {
		if s := c.filters[i].set; s != nil {
			c.ar.putSet(s)
		}
	}
	clear(c.filters)
	c.filters = c.filters[:0]
}

func (c *evalCtx) stepPlan(s *lpath.Step) *planner.StepPlan {
	if c == nil || c.plan == nil {
		return nil
	}
	return c.plan.Step(s)
}

func (c *evalCtx) semijoin(x lpath.Expr) *planner.Semijoin {
	if c == nil || c.plan == nil {
		return nil
	}
	return c.plan.SemijoinFor(x)
}

func (c *evalCtx) countStep(sp *planner.StepPlan, n int) {
	if c == nil || c.act == nil || sp == nil {
		return
	}
	if c.act.Steps == nil {
		c.act.Steps = make(map[*planner.StepPlan]int)
	}
	c.act.Steps[sp] += n
}

// stepSide records which side of a kernel-capable step's run-time choice
// ran, for EXPLAIN. It allocates nothing: the side rule calls it on every
// step, and Run makes the map up front for ModeExplain.
func (c *evalCtx) stepSide(sp *planner.StepPlan, side string) {
	if c.act == nil || sp == nil {
		return
	}
	if prev := c.act.Sides[sp]; prev != "" && prev != side {
		side = "kernel+probe"
	}
	c.act.Sides[sp] = side
}

// filterRun returns the EXPLAIN record of a filter, nil when the evaluation
// is not instrumented.
func (c *evalCtx) filterRun(x lpath.Expr) *planner.FilterRun {
	if c.act == nil {
		return nil
	}
	if c.act.Filters == nil {
		c.act.Filters = make(map[lpath.Expr]*planner.FilterRun)
	}
	r := c.act.Filters[x]
	if r == nil {
		r = &planner.FilterRun{}
		c.act.Filters[x] = r
	}
	return r
}
