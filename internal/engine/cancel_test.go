package engine

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"lpath/internal/corpus"
	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// countdownCtx is a context whose Err() flips to context.Canceled after a
// fixed number of polls. It makes the cancellation tests deterministic: the
// entry check and the first strided polls see a live context, and the
// evaluation is guaranteed to be mid-sweep — not merely at the entry check —
// when cancellation lands, with no timing involved.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
	done      chan struct{}
}

func newCountdownCtx() *countdownCtx {
	return &countdownCtx{
		Context: context.Background(),
		done:    make(chan struct{}),
	}
}

func (c *countdownCtx) setPolls(n int64) { c.remaining.Store(n) }

// Done returns a non-nil (never-closed) channel so the engine registers the
// context for cooperative polling.
func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cancelCorpus synthesizes a corpus big enough that every executor makes
// thousands of checkpointed loop iterations for the queries below.
func cancelCorpus(t testing.TB) *tree.Corpus {
	t.Helper()
	return corpus.Generate(corpus.Config{Profile: corpus.WSJ, Scale: 0.02, Seed: 7})
}

func cancelEngine(t testing.TB, tc *tree.Corpus, opts ...Option) *Engine {
	t.Helper()
	e, err := New(relstore.Build(tc, relstore.SchemeInterval), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCancelMidSweepPerStrategy proves that context-honoring evaluation
// returns promptly with context.Canceled from inside each executor's sweep:
// the per-binding probe loop, the merge group sweep with its predicate
// pipeline, the holistic twig arrival loop, and the bitmap kernels' posting
// walks — the scope entry's parent-chain climb and the main-path / and =>
// steps.
func TestCancelMidSweepPerStrategy(t *testing.T) {
	tc := cancelCorpus(t)
	cases := []struct {
		name  string
		opts  []Option
		query string
		// polls the countdown context survives: 1 entry check + the given
		// number of strided in-sweep polls before flipping to Canceled.
		sweepPolls int64
	}{
		{"probe", []Option{WithoutPlanner()}, `//_[//_[//NP]]`, 1},
		{"merge", []Option{WithoutPlanner(), WithMergeAlways()}, `//_[//_[//NP]]`, 1},
		{"twig", []Option{WithoutPlanner(), WithTwigAlways()}, `//_//_//_`, 1},
		{"bitmap-entry", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_{//_}`, 1},
		{"bitmap-child", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_/_/_`, 1},
		{"bitmap-sibling", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_=>_`, 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			e := cancelEngine(t, tc, tt.opts...)
			p := lpath.MustParse(tt.query)

			cctx := newCountdownCtx()
			cctx.setPolls(1 + tt.sweepPolls)
			_, err := e.EvalPlanContext(cctx, p, e.Plan(p))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("EvalPlanContext: got err %v, want context.Canceled", err)
			}

			cctx.setPolls(1 + tt.sweepPolls)
			_, err = e.CountPlanContext(cctx, p, e.Plan(p))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("CountPlanContext: got err %v, want context.Canceled", err)
			}

			// A cancelled evaluation must not poison the engine's pooled
			// state: the same engine answers the same query correctly next.
			want, err := e.Eval(p)
			if err != nil {
				t.Fatalf("post-cancel Eval: %v", err)
			}
			fresh := cancelEngine(t, tc, tt.opts...)
			ref, err := fresh.Eval(p)
			if err != nil {
				t.Fatalf("fresh Eval: %v", err)
			}
			if !reflect.DeepEqual(want, ref) {
				t.Fatalf("post-cancel results differ: %d vs %d matches", len(want), len(ref))
			}
		})
	}
}

// TestCancelParallelMidSweep proves the windowed parallel path is
// interrupted cooperatively too: the deadline reaches each in-flight window
// evaluation (windows evaluate with the derived context), not just the
// not-yet-started ones. The query's full evaluation takes orders of magnitude
// longer than the deadline, so the workers are guaranteed to be mid-sweep
// when it fires.
func TestCancelParallelMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based cancellation test")
	}
	e := cancelEngine(t, cancelCorpus(t), WithoutPlanner())
	p := lpath.MustParse(`//_[//_[//_]]`)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := e.EvalParallel(ctx, p, e.Plan(p), 0, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("EvalParallel: got err %v after %v, want context.DeadlineExceeded", err, time.Since(start))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled parallel evaluation took %v, cancellation is not cooperative", elapsed)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, err := e.CountParallel(ctx2, p, e.Plan(p), 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CountParallel: got err %v, want context.DeadlineExceeded", err)
	}
}

// TestDeadlineExceededMidSweep runs an expensive query under a deadline far
// shorter than its full evaluation time and requires the deadline's error,
// bounding how long the return may take.
func TestDeadlineExceededMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based cancellation test")
	}
	tc := cancelCorpus(t)
	e := cancelEngine(t, tc, WithoutPlanner())
	p := lpath.MustParse(`//_[//_[//_]]`)

	// On a loaded machine the runtime may fire a short timer late enough
	// that a fast evaluation finishes first; halving the deadline until it
	// lands mid-sweep keeps the test independent of machine speed (a
	// sub-microsecond deadline is already expired at the entry check).
	for timeout := 10 * time.Millisecond; ; timeout /= 2 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		start := time.Now()
		_, err := e.EvalPlanContext(ctx, p, e.Plan(p))
		elapsed := time.Since(start)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			// The strided poll abandons work within a few thousand loop
			// iterations; anything near a second means cancellation is not
			// reaching the sweep.
			if elapsed > 5*time.Second {
				t.Fatalf("cancelled evaluation took %v, cancellation is not cooperative", elapsed)
			}
			return
		}
		if err != nil {
			t.Fatalf("got err %v after %v, want context.DeadlineExceeded", err, elapsed)
		}
		if timeout < time.Microsecond {
			t.Fatalf("no DeadlineExceeded even with an expired deadline (last err <nil> after %v)", elapsed)
		}
	}
}

// TestContextPreCancelled pins the entry-check behavior: an already-dead
// context returns its error without touching the store, identically across
// serial, parallel, and count entry points.
func TestContextPreCancelled(t *testing.T) {
	tc := cancelCorpus(t)
	e := cancelEngine(t, tc)
	p := lpath.MustParse(`//NP`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.EvalPlanContext(ctx, p, e.Plan(p)); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalPlanContext: got %v", err)
	}
	if _, err := e.CountPlanContext(ctx, p, e.Plan(p)); !errors.Is(err, context.Canceled) {
		t.Errorf("CountPlanContext: got %v", err)
	}
	if _, err := e.ExplainPlanContext(ctx, p, e.Plan(p)); !errors.Is(err, context.Canceled) {
		t.Errorf("ExplainPlanContext: got %v", err)
	}
	if _, err := e.EvalParallel(ctx, p, nil, 0, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalParallel: got %v", err)
	}
	if _, err := e.CountParallel(ctx, p, nil, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("CountParallel: got %v", err)
	}
}
