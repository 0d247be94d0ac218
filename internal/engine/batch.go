// Batched multi-query evaluation. A batch evaluates N compiled queries
// against one store generation in a single pass, sharing work the canonical
// structural keys of the plan IR prove equal across queries (planner:
// StepPlan.Key, Semijoin.Key): whole-query result rows, main-path step
// frontiers, and unscoped predicate satisfier bitsets. The memo lives for
// one batch only — queries inside a batch run sequentially on one engine, so
// it needs no locking, and every result a later query may reuse is copied to
// the heap before the arena reclaims it.
//
// The contract is the batch identity property, held by the differential
// tests and FuzzEvalOracle: slot i of EvalBatch is element-wise identical to
// evaluating query i alone, errors included.

package engine

import (
	"context"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// BatchStats reports the cross-query sharing a batch achieved: hits and
// misses of the whole-query rows memo, the main-path frontier memo, and the
// satisfier-bitset memo.
type BatchStats struct {
	RowsHits, RowsMisses         int
	FrontierHits, FrontierMisses int
	SatHits, SatMisses           int
}

// Add accumulates another batch's counters into s, for callers aggregating
// sharing across several EvalBatch passes.
func (s *BatchStats) Add(o BatchStats) {
	s.RowsHits += o.RowsHits
	s.RowsMisses += o.RowsMisses
	s.FrontierHits += o.FrontierHits
	s.FrontierMisses += o.FrontierMisses
	s.SatHits += o.SatHits
	s.SatMisses += o.SatMisses
}

// batchMemo is the per-batch shared memo. All values are heap-owned: binds
// and rows are private copies, and the sets are allocated outside the
// arena (the evaluation contexts that populate them return their own sets to
// the arena between queries).
type batchMemo struct {
	// rows caches the final distinct (tid,id)-ordered result rows per
	// canonical query text — the singleflight layer for duplicate queries.
	rows map[string][]int32
	// frontiers caches the binding frontier after the main path's step
	// sequence (before any scoped tail), keyed by the plan's MainKey.
	frontiers map[string][]bind
	// sats caches unscoped satisfier sets by Semijoin.Key.
	sats  map[string]*spanSet
	stats BatchStats
}

func newBatchMemo() *batchMemo {
	return &batchMemo{
		rows:      make(map[string][]int32),
		frontiers: make(map[string][]bind),
		sats:      make(map[string]*spanSet),
	}
}

// frontierKey returns the memo key under which this evalSteps invocation's
// step frontier is shared across the batch, or "" when it is not shareable:
// the call must be the full main path from the virtual root, unwindowed and
// uninstrumented, with a plan that stamped canonical keys.
func (c *evalCtx) frontierKey(p *lpath.Path, start int, binds []bind) string {
	if c.batch == nil || start != 0 || c.windowed || c.act != nil || c.plan == nil {
		return ""
	}
	if len(p.Steps) == 0 || len(binds) != 1 || binds[0].row != noRow {
		return ""
	}
	return c.plan.MainKey(p)
}

// BatchQuery is one slot of a batch: the query's AST, the plan to execute
// (nil = the default strategy; it must have been built for Path), and what
// the slot wants back.
type BatchQuery struct {
	Path *lpath.Path
	Plan *planner.Plan
	// Limit caps Matches when positive; 0 means no cap. A capped slot is the
	// exact prefix of the query's full evaluation — the batch evaluates fully
	// so its memo stays valid for batch mates, then truncates.
	Limit int
	// CountOnly skips match materialization: the slot reports Count only.
	CountOnly bool
}

// BatchResult is one slot's outcome: exactly what evaluating the query
// alone would have produced, error included. Count is the number of distinct
// matches for a CountOnly slot and len(Matches) otherwise.
type BatchResult struct {
	Matches []Match
	Count   int
	Err     error
}

// EvalBatch evaluates the queries in one shared-memo pass and returns one
// result per query, positionally, plus the memo hit rates the batch
// achieved. A failing query does not disturb its batch mates; once the
// context is done, the remaining queries report its error.
func (e *Engine) EvalBatch(cctx context.Context, qs []BatchQuery) ([]BatchResult, BatchStats) {
	memo := newBatchMemo()
	out := make([]BatchResult, len(qs))
	for i, q := range qs {
		out[i] = e.evalBatchOne(cctx, q, memo)
	}
	return out, memo.stats
}

// evalBatchOne evaluates one query of a batch: resolve the distinct result
// rows through the memo, then count them or materialize this slot's own
// (possibly capped) Match slice.
func (e *Engine) evalBatchOne(cctx context.Context, q BatchQuery, memo *batchMemo) BatchResult {
	rows, err := e.batchRows(cctx, q.Path, q.Plan, memo)
	if err != nil {
		return BatchResult{Err: err}
	}
	if q.CountOnly {
		return BatchResult{Count: len(rows)}
	}
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	return BatchResult{Matches: e.matches(rows), Count: len(rows)}
}

// batchRows returns the query's distinct result rows in (tid,id) order,
// served from the batch memo when an identical query already ran. The
// returned slice is memo-owned; callers must not mutate it.
func (e *Engine) batchRows(cctx context.Context, p *lpath.Path, plan *planner.Plan, memo *batchMemo) ([]int32, error) {
	ctx, err := e.begin(cctx, p, plan)
	if err != nil {
		return nil, err
	}
	defer e.releaseCtx(ctx)
	key := p.String()
	if plan != nil {
		key = plan.Text
	}
	if rows, ok := memo.rows[key]; ok {
		memo.stats.RowsHits++
		return rows, nil
	}
	memo.stats.RowsMisses++
	ctx.batch = memo
	arRows, err := e.evalRows(p, ctx)
	if err != nil {
		return nil, err
	}
	rows := append([]int32(nil), arRows...)
	ctx.ar.putInts(arRows)
	memo.rows[key] = rows
	return rows, nil
}
