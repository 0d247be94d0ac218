package engine

import (
	"context"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// Streaming evaluation with early termination (docs/EXECUTION.md). The
// engine's executors produce a tree's matches only after sweeping that
// tree's candidates, so per-match streaming from inside a sweep would either
// break the deterministic (tid, id) output order or force a cross-executor
// reordering buffer. Instead the stream evaluates the pipeline over
// successive disjoint tree-ID windows: axes never cross trees (the same
// per-tree decomposability the sharded parallel path exploits), so the
// concatenation of per-window results in ascending tid order is exactly the
// full evaluation's output — and the evaluation stops cold, mid-corpus, the
// moment the consumer has seen enough.
//
// Windows grow geometrically from streamBatchTrees by streamBatchGrowth: a
// limit-k query over a high-match corpus touches only the first few dozen
// trees, while a selective query degrades gracefully to full evaluation plus
// O(log trees) per-window fixed costs (the windows are disjoint, so no tree
// is ever evaluated twice).
const (
	streamBatchTrees  = 32
	streamBatchGrowth = 4
)

// StreamPlan evaluates the query executing the given plan (nil = the default
// strategy) and calls yield for every match in the exact (tree, document)
// order Eval produces. Evaluation stops — abandoning all remaining trees —
// when yield returns false. The context cancels cooperatively, exactly like
// EvalPlanContext.
func (e *Engine) StreamPlan(cctx context.Context, p *lpath.Path, plan *planner.Plan, yield func(Match) bool) error {
	ctx, err := e.begin(cctx, p, plan)
	if err != nil {
		return err
	}
	defer e.releaseCtx(ctx)
	roots := e.s.Roots()
	tids := e.s.Cols().TID
	ctx.windowed = true
	batch := streamBatchTrees
	for lo := 0; lo < len(roots); lo, batch = lo+batch, batch*streamBatchGrowth {
		hi := lo + batch
		if hi >= len(roots) {
			hi = len(roots)
			ctx.winHi = maxInt32
		} else {
			ctx.winHi = tids[roots[hi]]
		}
		ctx.winLo = tids[roots[lo]]
		rows, err := e.evalRows(p, ctx)
		if err != nil {
			return err
		}
		stop := false
		for _, ri := range rows {
			r := e.s.Row(ri)
			if !yield(Match{TreeID: int(r.TID), Node: e.s.NodeFor(r)}) {
				stop = true
				break
			}
		}
		ctx.ar.putInts(rows)
		if stop {
			return nil
		}
		// Semijoin satisfier sets were seeded from this window's trees only;
		// they must not answer the next window's probes.
		ctx.clearSat()
	}
	return nil
}

// EvalPlanLimitContext is EvalPlanContext returning at most limit matches —
// exactly the first limit entries of the full (tree, document)-ordered
// result — while terminating the evaluation early: trees past the one
// holding the limit-th match are never visited. limit <= 0 means no limit.
func (e *Engine) EvalPlanLimitContext(cctx context.Context, p *lpath.Path, plan *planner.Plan, limit int) ([]Match, error) {
	if limit <= 0 {
		return e.EvalPlanContext(cctx, p, plan)
	}
	out := make([]Match, 0, min(limit, 256))
	err := e.StreamPlan(cctx, p, plan, func(m Match) bool {
		out = append(out, m)
		return len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
