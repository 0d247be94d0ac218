package engine

import (
	"context"

	"lpath/internal/bitset"
	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// Plan-directed execution state. An evalCtx travels through one evaluation
// (one Eval/Count/Explain call): it carries the cost-based plan the steps
// consult, the memoized semijoin satisfier sets, and — for EXPLAIN — the
// actual-cardinality counters. A nil plan (or a nil field lookup) means the
// engine's default strategy, which is exactly the pre-planner behavior; the
// differential tests and fuzzers hold the two result-identical.

type satKey struct {
	expr  lpath.Expr
	scope int32
}

type evalCtx struct {
	plan *planner.Plan
	// sat memoizes semijoin satisfier sets per (filter expression, scope):
	// within one evaluation the same filter under the same scope always has
	// the same satisfiers, however many candidates probe it.
	sat map[satKey]map[int32]bool
	// satBits is the dense counterpart of sat (bitmap.go): arena-owned
	// satisfier bitsets for unscoped filters, including memoized boolean
	// combinations. satNeg marks combination sets stored complemented (the
	// De Morgan rewrites keep the kernels to And/Or/AndNot).
	satBits map[satKey]*bitset.Set
	satNeg  map[satKey]bool
	// act collects actual cardinalities when EXPLAIN runs the query.
	act *planner.Actuals
	// batch is the cross-query memo of the enclosing EvalBatch call, nil
	// outside batched evaluation (batch.go). Unlike sat/satBits it is keyed
	// by canonical structural keys, not AST identity, so it survives across
	// the batch's per-query evaluation contexts.
	batch *batchMemo
	// ar is the evaluation's scratch arena (see arena.go); it survives
	// across evaluations via the Engine's evalCtx pool.
	ar *arena
	// tw is the twig executor's reusable run state (cursors, per-step
	// stacks/heaps, counters); like the arena it survives across
	// evaluations, keeping warm twig runs allocation-free.
	tw twigScratch

	// Cooperative cancellation. cctx is the evaluation's context — nil when
	// the caller's context can never be cancelled, so uncancellable
	// evaluations pay nothing. The executors' hot loops call interrupted(),
	// which polls cctx.Err() once every cancelStride calls and latches the
	// result in cerr; evalPath propagates cerr out of executors (like the
	// twig sweep) whose signatures carry no error.
	cctx context.Context
	tick int
	cerr error

	// Streaming tid window (stream.go). When windowed is set, every
	// virtual-root entry point — the probe's first-step candidate lists, the
	// twig root-mode cursor windows, the scoped-roots expansion, semijoin
	// seeds and the value-driver postings — restricts itself to trees with
	// tid ∈ [winLo, winHi). Axes never cross trees, so a windowed evaluation
	// is exactly the full evaluation restricted to that tree range, which is
	// what lets StreamPlan evaluate batches of trees and stop early.
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

// begin is the preamble every evaluation body shares: validate the AST,
// honor an already-done context, then take a pooled evaluation context bound
// to the plan; the caller hands it back with releaseCtx. The arena's buffers
// are retained across evaluations — that retention is what makes
// steady-state execution of a compiled plan allocation-free. cctx is
// recorded for cooperative cancellation only when it can actually be
// cancelled (Done() != nil); context.Background() and friends cost nothing.
func (e *Engine) begin(cctx context.Context, p *lpath.Path, plan *planner.Plan) (*evalCtx, error) {
	if err := lpath.Validate(p); err != nil {
		return nil, err
	}
	if err := cctx.Err(); err != nil {
		return nil, err
	}
	ctx := e.ctxPool.Get().(*evalCtx)
	ctx.plan = plan
	if cctx.Done() != nil {
		ctx.cctx = cctx
	}
	return ctx, nil
}

func (e *Engine) releaseCtx(ctx *evalCtx) {
	ctx.plan = nil
	ctx.act = nil
	ctx.batch = nil
	ctx.cctx = nil
	ctx.tick = 0
	ctx.cerr = nil
	ctx.winLo, ctx.winHi = 0, 0
	ctx.windowed = false
	// Satisfier sets are valid only for the evaluation's plan identity; the
	// outer map is kept, the per-expression sets are dropped.
	ctx.clearSat()
	e.ctxPool.Put(ctx)
}

// clearSat drops the memoized semijoin satisfier sets. The streaming
// evaluator also calls it between tid-window batches: a satisfier set built
// under one window is seeded from that window's trees only and must not
// answer probes from the next. A map that grew large is released entirely —
// clear() costs O(capacity) and maps never shrink, so retaining it would tax
// every later evaluation.
func (c *evalCtx) clearSat() {
	if len(c.sat) > 64 {
		c.sat = nil
	} else {
		clear(c.sat)
	}
	// Satisfier bitsets recycle through the arena: unlike maps, a bitset's
	// reset cost is proportional to the next evaluation's row count, not to
	// its own peak size, so they always pool.
	for _, s := range c.satBits {
		c.ar.putBitset(s)
	}
	clear(c.satBits)
	clear(c.satNeg)
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

func (c *evalCtx) countSemi(x lpath.Expr, seed, set int) {
	if c == nil || c.act == nil {
		return
	}
	if c.act.SemiSeed == nil {
		c.act.SemiSeed = make(map[lpath.Expr]int)
		c.act.SemiSet = make(map[lpath.Expr]int)
	}
	c.act.SemiSeed[x] = seed
	c.act.SemiSet[x] = set
}
