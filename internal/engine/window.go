// The window scheduler (docs/EXECUTION.md). The interval labels make every
// axis a comparison inside one tree (Table 2), so a run splits into
// evaluations over disjoint tid windows of the one store, whose results
// joined in window order are exactly the global (tid, id) order.

package engine

import (
	"cmp"
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// A limit or stream run's windows grow from streamBatchTrees by
// streamBatchGrowth: a limit-k query touches only the trees it needs.
const (
	streamBatchTrees  = 32
	streamBatchGrowth = 4
)

// Run evaluates the query executing the given plan (nil = the default
// strategy) over windows settled in order on the caller's goroutine. A done
// context interrupts it cooperatively, mid-sweep, and is its error.
func (e *Engine) Run(cctx context.Context, p *lpath.Path, plan *planner.Plan, s Spec) (Result, error) {
	if err := lpath.Validate(p); err != nil {
		return Result{}, err
	}
	if err := cctx.Err(); err != nil {
		return Result{}, err
	}
	if plan != nil && plan.Empty != "" { // proved empty: nothing to evaluate
		if s.Mode == ModeExplain {
			return Result{Explain: plan.Render(&planner.Actuals{})}, nil
		}
		return Result{Matches: []Match{}}, nil
	}
	if n, ok := e.postingCount(p, plan); ok && s.Mode == ModeCount {
		return Result{Count: n}, nil
	}
	workers := max(s.Workers, 1)
	if s.Limit = max(s.Limit, 0); s.Mode != ModeSelect {
		s.Limit, s.Yield = 0, nil
	}
	if s.Mode == ModeExplain {
		workers = 1
		if plan == nil {
			plan = e.pl.Plan(p)
		}
	}
	var res Result
	if s.Mode == ModeSelect && s.Yield == nil {
		res.Matches = make([]Match, 0, min(s.Limit, 256))
	}
	// sink settles a window of n matches, held in rows when the run keeps
	// them, and reports whether the run goes on.
	sink := func(rows []int32, n int) bool {
		if s.Limit > 0 {
			n = min(n, s.Limit-res.Count)
		}
		if res.Count += n; s.Mode != ModeSelect {
			return true
		}
		if s.Yield == nil {
			res.Matches = slices.Grow(res.Matches, n)
		}
		tids := e.s.Cols().TID
		for _, ri := range rows[:n] {
			m := Match{TreeID: int(tids[ri]), Node: e.s.NodeFor(ri)}
			if s.Yield == nil {
				res.Matches = append(res.Matches, m)
			} else if !s.Yield(m) {
				return false
			}
		}
		return s.Limit == 0 || res.Count < s.Limit
	}

	// The window list: a full serial run is one unwindowed window, a full
	// parallel one a position-balanced window per worker, a limit or stream
	// geometric windows capped at a worker's share of the trees. An inline
	// run's list stays on the stack.
	streamed := s.Limit > 0 || s.Yield != nil
	windowed := streamed || workers > 1
	var buf [16]int
	bounds := append(buf[:0], 0)
	switch n := len(e.s.Roots()); {
	case streamed:
		share := (n + workers - 1) / workers
		for lo, size := 0, streamBatchTrees; lo < n; size = min(size*streamBatchGrowth, n) {
			lo = min(lo+size, lo+share, n)
			bounds = append(bounds, lo)
		}
	case windowed:
		bounds = e.windows(workers)
	default:
		bounds = append(bounds, n)
	}
	if workers = min(workers, len(bounds)-1); workers > 1 {
		// A pool: each worker keeps one evaluation context for all its
		// windows and hands the sink a copy of a window's rows — at most
		// Limit, none for a count. The parts copy the bounds, which the
		// workers so never see.
		keep := 0
		if s.Mode == ModeSelect {
			keep = cmp.Or(s.Limit, math.MaxInt)
		}
		type part struct {
			lo, hi, n int
			rows      []int32
		}
		parts, ctxs := make([]part, len(bounds)-1), make([]*evalCtx, workers)
		for i := range parts {
			parts[i].lo, parts[i].hi = bounds[i], bounds[i+1]
		}
		err := schedule(cctx, len(parts), workers, streamed, func(wctx context.Context, w, i int) error {
			if ctxs[w] == nil {
				ctxs[w] = e.acquire(wctx, plan)
			}
			ctx := ctxs[w]
			ctx.clearSat()
			e.setWindow(ctx, parts[i].lo, parts[i].hi)
			rows, err := e.evalRows(p, ctx)
			if err != nil {
				return err
			}
			parts[i].n, parts[i].rows = len(rows), slices.Clone(rows[:min(len(rows), keep)])
			ctx.ar.putInts(rows)
			return nil
		}, func(i int) bool { return sink(parts[i].rows, parts[i].n) })
		for _, ctx := range ctxs {
			if ctx != nil {
				e.releaseCtx(ctx)
			}
		}
		if err != nil {
			return Result{}, err
		}
		return res, nil
	}

	// One worker runs inline, one evaluation context for every window.
	ctx := e.acquire(cctx, plan)
	defer e.releaseCtx(ctx)
	if s.Mode == ModeExplain {
		ctx.act = &planner.Actuals{Sides: make(map[*planner.StepPlan]string)}
	}
	for i, more := 0, true; more && i+1 < len(bounds); i++ {
		ctx.clearSat() // satisfier sets hold one window's trees only
		if windowed {
			e.setWindow(ctx, bounds[i], bounds[i+1])
		}
		rows, err := e.evalRows(p, ctx)
		if err != nil {
			return Result{}, err
		}
		more = sink(rows, len(rows))
		ctx.ar.putInts(rows)
	}
	if s.Mode == ModeExplain {
		ctx.act.Matches = res.Count
		return Result{Explain: plan.Render(ctx.act)}, nil
	}
	return res, nil
}

// postingCount answers a count of one unaligned //A or //_ step from the
// root whose predicates are all vacuous: the length of its name posting, the
// whole store's for a run over every window. ok is false for any other
// query, a value-driven step's included: its Exec is empty too.
func (e *Engine) postingCount(p *lpath.Path, plan *planner.Plan) (n int, ok bool) {
	if plan == nil || p.Scoped != nil || len(p.Steps) != 1 {
		return 0, false
	}
	step := &p.Steps[0]
	if sp := plan.Step(step); sp == nil || sp.Value != "" || len(sp.Exec) > 0 || step.LeftAlign || step.RightAlign ||
		step.Axis != lpath.AxisDescendant && step.Axis != lpath.AxisDescendantOrSelf {
		return 0, false
	}
	if step.Wildcard() {
		return e.s.ElementCount(), true
	}
	return e.s.NameCount(step.Test), true
}

// schedule is the window pool and its settled-prefix rule: workers
// goroutines take windows 0..n-1 in order (run(ctx, w, i) evaluates window i
// on worker w), and the caller's goroutine settles them in order until
// settle(i) returns false, cancelling the windows after. A window failed
// before that point ends the run with the lowest-indexed real error from it
// on, else the caller's context error. A real error cancels a full run at
// once; in a bounded one an earlier window may still stop the run first.
// schedule returns once every worker has exited.
func schedule(ctx context.Context, n, workers int, bounded bool, run func(ctx context.Context, w, i int) error, settle func(i int) bool) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs, finished := make([]error, n), make(chan int, n)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				err := ctx.Err()
				if err == nil {
					err = run(ctx, w, i)
				}
				if errs[i] = err; err != nil && !bounded && !isCancel(err) {
					cancel()
				}
				finished <- i
			}
		}()
	}
	failed, done := -1, make([]bool, n)
	for i := 0; i < n && failed < 0; i++ {
		for !done[i] {
			done[<-finished] = true
		}
		if errs[i] != nil {
			failed = i
		} else if !settle(i) {
			break
		}
	}
	cancel()
	wg.Wait()
	if failed < 0 {
		return nil
	}
	for _, err := range errs[failed:] {
		if err != nil && !isCancel(err) {
			return err
		}
	}
	return cmp.Or(parent.Err(), errs[failed])
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// windows cuts the store's trees into one window of consecutive roots per
// worker (never more windows than trees), balanced by position span: positions
// are dense per tree, so a tree's span is its node count. Window i is the
// trees Roots()[bounds[i]:bounds[i+1]]; an empty store has no window.
func (e *Engine) windows(workers int) []int {
	roots := e.s.Roots()
	n := len(roots)
	k := min(workers, n)
	bounds := make([]int, 1, k+1)
	total := e.s.ElementCount()
	for w := 1; w < k; w++ {
		// The first tree starting at w/k of the positions opens window w,
		// leaving every window at least one tree.
		target := int32(total * w / k)
		i := sort.Search(n, func(i int) bool { return e.s.Pos(roots[i]) >= target })
		bounds = append(bounds, min(max(i, bounds[w-1]+1), n-k+w))
	}
	if n > 0 {
		bounds = append(bounds, n)
	}
	return bounds
}

// setWindow restricts ctx to the trees Roots()[lo:hi].
func (e *Engine) setWindow(ctx *evalCtx, lo, hi int) {
	roots, tids := e.s.Roots(), e.s.Cols().TID
	ctx.windowed = true
	ctx.winLo = tids[roots[lo]]
	if hi >= len(roots) {
		ctx.winHi = maxInt32
	} else {
		ctx.winHi = tids[roots[hi]]
	}
}
