// Parallel evaluation: the interval scheme makes every axis a per-tree label
// comparison (Table 2), so a query over a corpus decomposes into independent
// evaluations over disjoint tid windows of the one store — the same
// per-tree decomposability that makes conjunctive tree queries
// parallelizable, and the one StreamPlan uses to stop early. EvalParallel
// cuts the store's trees into one window per worker, evaluates the windows
// concurrently, and concatenates their results in window order, which is
// exactly global (tid, id) order.

package engine

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"

	"lpath/internal/lpath"
	"lpath/internal/planner"
)

// EvalParallel evaluates the query executing the given plan (nil = the
// default strategy) over tid windows on at most workers goroutines (below 1
// = runtime.GOMAXPROCS(0)), and returns the matches in the identical order
// EvalPlanContext produces. Each window evaluates with its own pooled
// evaluation context over the shared store, so one plan serves every window.
//
// The first window error cancels the remaining work via the context;
// cancelling ctx abandons windows that have not started and interrupts
// in-flight window evaluations cooperatively. The result slice is
// deterministic: it does not depend on the worker count or on scheduling —
// and so is the error: identical failures yield the identical
// (lowest-window) error, whatever order workers ran in.
//
// A positive limit returns only the first limit entries of that result, with
// early termination (evalParallelLimit); limit <= 0 means no limit.
func (e *Engine) EvalParallel(ctx context.Context, p *lpath.Path, plan *planner.Plan, limit, workers int) ([]Match, error) {
	if err := lpath.Validate(p); err != nil {
		return nil, err
	}
	bounds := e.windows(workers)
	if limit > 0 {
		return e.evalParallelLimit(ctx, p, plan, bounds, limit, workers)
	}
	results := make([][]Match, len(bounds)-1)
	err := runWindows(ctx, len(results), workers, func(ctx context.Context, i int) error {
		return e.evalWindow(ctx, p, plan, bounds[i], bounds[i+1], func(rows []int32) {
			results[i] = e.matches(rows)
		})
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	// Non-nil even when nothing matches, like EvalPlanContext.
	out := make([]Match, 0, total)
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}

// CountParallel counts the query's matches over tid windows concurrently and
// returns the global count — identical to len(EvalParallel(...)), but no
// window materializes a match. Windows hold disjoint trees, so the
// per-window distinct counts add exactly.
func (e *Engine) CountParallel(ctx context.Context, p *lpath.Path, plan *planner.Plan, workers int) (int, error) {
	if err := lpath.Validate(p); err != nil {
		return 0, err
	}
	bounds := e.windows(workers)
	counts := make([]int, len(bounds)-1)
	err := runWindows(ctx, len(counts), workers, func(ctx context.Context, i int) error {
		return e.evalWindow(ctx, p, plan, bounds[i], bounds[i+1], func(rows []int32) {
			counts[i] = len(rows)
		})
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// windows cuts the store's trees into one window of consecutive roots per
// worker (never more windows than trees), balanced by position span: positions
// are dense per tree, so a tree's span is its node count. Window i is the
// trees Roots()[bounds[i]:bounds[i+1]]; an empty store has no window.
func (e *Engine) windows(workers int) []int {
	roots := e.s.Roots()
	n := len(roots)
	k := poolSize(workers, n)
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

// evalWindow evaluates the query over the trees Roots()[lo:hi] and hands the
// distinct result rows, in (tid, id) order, to use; the rows go back to the
// arena when use returns.
func (e *Engine) evalWindow(cctx context.Context, p *lpath.Path, plan *planner.Plan, lo, hi int, use func([]int32)) error {
	ctx, err := e.begin(cctx, p, plan)
	if err != nil {
		return err
	}
	defer e.releaseCtx(ctx)
	e.setWindow(ctx, lo, hi)
	rows, err := e.evalRows(p, ctx)
	if err != nil {
		return err
	}
	use(rows)
	ctx.ar.putInts(rows)
	return nil
}

// evalParallelLimit is EvalParallel under a positive limit, with a
// per-window cap of limit matches. Windows hold tid-contiguous, ascending
// tree ranges, so the global prefix is the concatenation of per-window
// prefixes in window order, truncated at limit; every window streams with
// early termination (evalLimit), and the moment a settled prefix of windows
// holds limit matches, all higher windows are cancelled — work past the
// answer is abandoned, not merged and discarded.
//
// The result is deterministic like EvalParallel's, and so is the error: a
// real failure surfaces only when it lies before the point where the settled
// prefix reaches limit — the trees a serial limited evaluation would
// actually have visited — with the lowest-indexed such failure winning.
func (e *Engine) evalParallelLimit(ctx context.Context, p *lpath.Path, plan *planner.Plan, bounds []int, limit, workers int) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(bounds) - 1
	parent := ctx
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	var (
		mu         sync.Mutex
		results    = make([][]Match, n)
		errs       = make([]error, n)
		done       = make([]bool, n)
		cancels    = make([]context.CancelFunc, n)
		settled    int // first window index not yet finished
		prefix     int // matches held by windows [0, settled)
		sufficient bool
	)
	record := func(i int, ms []Match, err error) {
		mu.Lock()
		defer mu.Unlock()
		results[i], errs[i], done[i] = ms, err, true
		if err != nil && !isCancel(err) {
			cancelAll() // real failure: stop all windows, like EvalParallel
			return
		}
		for settled < n && done[settled] {
			prefix += len(results[settled])
			settled++
			if prefix >= limit {
				// The settled prefix already answers the query; everything
				// past it is unreachable output.
				sufficient = true
				for j := settled; j < n; j++ {
					if cancels[j] != nil {
						cancels[j]()
					}
				}
				return
			}
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := poolSize(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				mu.Lock()
				if sufficient || ctx.Err() != nil {
					mu.Unlock()
					continue // drain: this window's output is unreachable
				}
				wctx, cancel := context.WithCancel(ctx)
				cancels[i] = cancel
				mu.Unlock()
				ms, err := e.evalLimit(wctx, p, plan, bounds[i], bounds[i+1], limit)
				cancel()
				record(i, ms, err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Concatenate per-window prefixes in window order up to limit. A missing
	// window (skipped or cancelled) before the limit is reached means the
	// evaluation did not finish cleanly: surface the lowest-indexed real
	// failure, else the caller's cancellation.
	out := make([]Match, 0, min(limit, 256))
	for i := 0; i < n; i++ {
		if done[i] && errs[i] == nil {
			for _, m := range results[i] {
				out = append(out, m)
				if len(out) == limit {
					return out, nil
				}
			}
			continue
		}
		for j := i; j < n; j++ {
			if errs[j] != nil && !isCancel(errs[j]) {
				return nil, errs[j]
			}
		}
		return nil, parent.Err()
	}
	return out, nil
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// poolSize resolves a worker bound for n jobs: values below 1 select
// runtime.GOMAXPROCS(0), and a pool never outnumbers its jobs.
func poolSize(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// runWindows runs fn(ctx, i) for every window index over a bounded worker
// pool. The first error cancels the remaining work (abandoning windows that
// have not started and interrupting in-flight, context-honoring fn calls),
// but error *propagation* is deterministic: per-window errors are collected
// by index, and the lowest-indexed window's non-cancellation error is
// returned — so the parallel entry points report the same error as the
// serial ones for the same failure, independent of worker scheduling.
// Cancellation of the caller's context surfaces as that context's error.
func runWindows(ctx context.Context, n, workers int, fn func(context.Context, int) error) error {
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := poolSize(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue // drain: cancelled work is not evaluated
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil && !isCancel(err) {
			return err
		}
	}
	// No real failure: any recorded context errors came from the caller's
	// context (or from our own cancel chasing a failure that then must have
	// been real — excluded above), so report the caller's state.
	return parent.Err()
}
