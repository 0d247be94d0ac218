package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
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

// goroutineBalance returns a check, to defer, that fails the test unless the
// goroutine count comes back to its value at the call within a second: a
// cancelled or stopped run must leave no worker behind.
func goroutineBalance(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("%d goroutines running after the test, %d before it", runtime.NumGoroutine(), before)
				return
			}
		}
	}
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
// the per-binding probe loop and the bitmap kernels' loops — the scope
// entry's parent-chain climb, and for the unscoped step kernel the / and =>
// walk, the // subtree marking and its posting walk, the aligned // climb,
// the -> and <- edge walks, the --> and <-- extreme-edge walks and the ==>
// and <== per-parent walk — and the merge of a // filter with its posting.
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
		{"bitmap-entry", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_{//_}`, 1},
		{"bitmap-child", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_/_/_`, 1},
		{"bitmap-sibling", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_=>_`, 1},
		{"bitmap-descendant", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_//_//_`, 1},
		{"bitmap-descendant-aligned", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_//^_`, 1},
		{"bitmap-following", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_-->_`, 1},
		{"bitmap-preceding", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_/preceding-or-self::_`, 1},
		{"bitmap-adjacent", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_->_<-_`, 1},
		{"bitmap-siblings", []Option{WithoutPlanner(), WithBitmapAlways()}, `//_==>_<==_`, 1},
		{"merge", nil, `//_[//_]`, 1},
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
// not-yet-started ones. As in TestDeadlineExceededMidSweep, the deadline
// halves until it lands mid-sweep, so an evaluation that finishes before a
// late timer fires does not fail the test.
func TestCancelParallelMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based cancellation test")
	}
	defer goroutineBalance(t)()
	e := cancelEngine(t, cancelCorpus(t), WithoutPlanner())
	p := lpath.MustParse(`//_[//_[//_]]`)
	for _, s := range []Spec{{Workers: 4}, {Mode: ModeCount, Workers: 4}} {
		for timeout := 10 * time.Millisecond; ; timeout /= 2 {
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			start := time.Now()
			_, err := e.Run(ctx, p, e.Plan(p), s)
			elapsed := time.Since(start)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				if elapsed > 5*time.Second {
					t.Fatalf("Run(%+v): cancelled parallel evaluation took %v, cancellation is not cooperative", s, elapsed)
				}
				break
			}
			if err != nil {
				t.Fatalf("Run(%+v): got err %v after %v, want context.DeadlineExceeded", s, err, elapsed)
			}
			if timeout < time.Microsecond {
				t.Fatalf("Run(%+v): no DeadlineExceeded even with an expired deadline (last err <nil> after %v)", s, elapsed)
			}
		}
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
	defer goroutineBalance(t)()
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
	if _, err := e.Run(ctx, p, e.Plan(p), Spec{Mode: ModeExplain}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run(ModeExplain): got %v", err)
	}
	if _, err := e.Run(ctx, p, nil, Spec{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run(Workers 2): got %v", err)
	}
	if _, err := e.Run(ctx, p, nil, Spec{Mode: ModeCount, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run(ModeCount, Workers 2): got %v", err)
	}
}
