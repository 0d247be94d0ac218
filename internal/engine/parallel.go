// Parallel evaluation: the interval scheme makes every axis a per-tree label
// comparison (Table 2), so a query over a corpus decomposes into independent
// evaluations over disjoint tid shards — the same per-tree decomposability
// that makes conjunctive tree queries parallelizable. EvalParallel fans a
// planned query out over per-shard engines with a bounded worker pool and
// merges the per-shard results back into global (tid, id) order.

package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"lpath/internal/lpath"
	"lpath/internal/planner"
	"lpath/internal/relstore"
)

// NewSharded builds one engine per shard store. The shards are typically the
// output of relstore.BuildShards; every engine option applies to every
// shard.
func NewSharded(shards []*relstore.Store, opts ...Option) ([]*Engine, error) {
	out := make([]*Engine, len(shards))
	for i, s := range shards {
		e, err := New(s, opts...)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// EvalParallel evaluates the query over every shard concurrently, executing
// the given plan (nil = the default strategy) on at most workers goroutines
// (below 1 = runtime.GOMAXPROCS(0)), and returns the merged matches in
// global (tree, document) order — the identical order Engine.Eval produces
// on an unsharded store, because shards partition whole trees. Shard engines
// share the corpus-global statistics snapshot (relstore.BuildShards), so one
// plan is every shard's plan and the per-query planning cost does not scale
// with the shard count.
//
// The first shard error cancels the remaining work via the context;
// cancelling ctx abandons shards that have not started and interrupts
// in-flight shard evaluations cooperatively (each shard evaluates with the
// context). The result slice is deterministic: it does not depend on the
// worker count or on scheduling — and so is the error: identical failures
// yield the identical (lowest-shard) error, whatever order workers ran in.
//
// A positive limit returns only the first limit entries of that result, with
// early termination (evalParallelLimit); limit <= 0 means no limit.
func EvalParallel(ctx context.Context, shards []*Engine, p *lpath.Path, plan *planner.Plan, limit, workers int) ([]Match, error) {
	if err := lpath.Validate(p); err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []Match{}, nil
	}
	if limit > 0 {
		return evalParallelLimit(ctx, shards, p, plan, limit, workers)
	}
	results := make([][]Match, len(shards))
	err := runShards(ctx, len(shards), workers, func(ctx context.Context, i int) error {
		ms, err := shards[i].EvalPlanContext(ctx, p, plan)
		if err != nil {
			return err
		}
		results[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mergeByTree(results), nil
}

// evalParallelLimit is EvalParallel under a positive limit, with a per-shard
// cap of limit matches. Shards hold tid-contiguous, ascending tree ranges,
// so the global prefix is the concatenation of per-shard prefixes in shard
// order, truncated at limit; every shard streams with early termination
// (EvalPlanLimitContext), and the moment a settled prefix of shards holds
// limit matches, all higher shards are cancelled — work past the answer is
// abandoned, not merged and discarded.
//
// The result is deterministic like EvalParallel's, and so is the error: a
// real failure surfaces only when it lies before the point where the settled
// prefix reaches limit — the trees a serial limited evaluation would
// actually have visited — with the lowest-indexed such failure winning.
func evalParallelLimit(ctx context.Context, shards []*Engine, p *lpath.Path, plan *planner.Plan, limit, workers int) ([]Match, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(shards)
	parent := ctx
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	var (
		mu         sync.Mutex
		results    = make([][]Match, n)
		errs       = make([]error, n)
		done       = make([]bool, n)
		cancels    = make([]context.CancelFunc, n)
		settled    int // first shard index not yet finished
		prefix     int // matches held by shards [0, settled)
		sufficient bool
	)
	record := func(i int, ms []Match, err error) {
		mu.Lock()
		defer mu.Unlock()
		results[i], errs[i], done[i] = ms, err, true
		if err != nil && !isCancel(err) {
			cancelAll() // real failure: stop all shards, like EvalParallel
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
					continue // drain: this shard's output is unreachable
				}
				sctx, cancel := context.WithCancel(ctx)
				cancels[i] = cancel
				mu.Unlock()
				ms, err := shards[i].EvalPlanLimitContext(sctx, p, plan, limit)
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

	// Concatenate per-shard prefixes in shard order up to limit. A missing
	// shard (skipped or cancelled) before the limit is reached means the
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

// CountParallel counts the query's matches over every shard concurrently and
// returns the global count — identical to len(EvalParallel(...)), but each
// shard uses the count-only pipeline (no sort, no node materialization) and
// only an integer crosses the merge. Shards hold disjoint trees, so the
// per-shard distinct counts add exactly.
func CountParallel(ctx context.Context, shards []*Engine, p *lpath.Path, plan *planner.Plan, workers int) (int, error) {
	if err := lpath.Validate(p); err != nil {
		return 0, err
	}
	if len(shards) == 0 {
		return 0, ctx.Err()
	}
	counts := make([]int, len(shards))
	err := runShards(ctx, len(shards), workers, func(ctx context.Context, i int) error {
		n, err := shards[i].CountPlanContext(ctx, p, plan)
		if err != nil {
			return err
		}
		counts[i] = n
		return nil
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

// poolSize resolves a worker bound for n jobs: values below 1 select
// runtime.GOMAXPROCS(0), and a pool never outnumbers its jobs.
func poolSize(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// runShards runs fn(ctx, i) for every shard index over a bounded worker
// pool. The first error cancels the remaining work (abandoning shards that
// have not started and interrupting in-flight, context-honoring fn calls),
// but error *propagation* is deterministic: per-shard errors are collected
// by index, and the lowest-indexed shard's non-cancellation error is
// returned — so the parallel entry points report the same error as the
// serial ones for the same failure, independent of worker scheduling.
// Cancellation of the caller's context surfaces as that context's error.
func runShards(ctx context.Context, n, workers int, fn func(context.Context, int) error) error {
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

// mergeByTree merges per-shard match lists, each already in (tid, id) order,
// into one global (tid, id)-ordered list. Shards hold disjoint tid sets, so
// comparing head TreeIDs (ties broken by shard index, which cannot occur
// across well-formed shards) yields exactly the unsharded engine's order.
func mergeByTree(results [][]Match) []Match {
	total := 0
	for _, r := range results {
		total += len(r)
	}
	if total == 0 {
		// Eval returns a non-nil empty slice when nothing matches; mirror it
		// so a sharded evaluation stays byte-identical to a serial one,
		// matches or not.
		return []Match{}
	}
	out := make([]Match, 0, total)
	heads := make([]int, len(results))
	for len(out) < total {
		best := -1
		for s, r := range results {
			if heads[s] >= len(r) {
				continue
			}
			if best == -1 || r[heads[s]].TreeID < results[best][heads[best]].TreeID {
				best = s
			}
		}
		// A shard's run of equal-TreeID matches is contiguous; copy the
		// whole tree's matches in one go to keep the merge near O(total).
		r := results[best]
		i := heads[best]
		tid := r[i].TreeID
		j := i
		for j < len(r) && r[j].TreeID == tid {
			j++
		}
		out = append(out, r[i:j]...)
		heads[best] = j
	}
	return out
}
