package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/tree"
)

// TestWindowsPartitionRoots: the windows of every worker count cover every
// tree exactly once, in order, none empty and never more than the trees.
func TestWindowsPartitionRoots(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 23} {
		e := buildEngine(t, randomCorpus(int64(n)+1, n))
		for _, workers := range []int{1, 2, 3, 7, 64} {
			bounds := e.windows(workers)
			if want := min(workers, n); len(bounds)-1 != want {
				t.Fatalf("n=%d w=%d: %d windows, want %d", n, workers, len(bounds)-1, want)
			}
			if bounds[0] != 0 || (n > 0 && bounds[len(bounds)-1] != n) {
				t.Fatalf("n=%d w=%d: bounds %v do not span the roots", n, workers, bounds)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] <= bounds[i-1] {
					t.Fatalf("n=%d w=%d: empty or reversed window in %v", n, workers, bounds)
				}
			}
		}
	}
}

// TestWindowsBalanceSpan: on a corpus of one huge tree among many small ones,
// the huge tree gets a window of its own instead of an even tree count.
func TestWindowsBalanceSpan(t *testing.T) {
	c := tree.NewCorpus()
	for i := 0; i < 9; i++ {
		c.Add(tree.MustParseTree(`(S (NP a))`))
	}
	big := &tree.Node{Tag: "S"}
	for i := 0; i < 200; i++ {
		big.AddChild(&tree.Node{Tag: "NP", Word: "b"})
	}
	c.AddRoot(big)
	if got := buildEngine(t, c).windows(2); !reflect.DeepEqual(got, []int{0, 9, 10}) {
		t.Errorf("windows(2) = %v, want [0 9 10]", got)
	}
}

// TestEvalParallelMatchesSerial is the core equivalence property: on random
// corpora, for every query in the cross-validation corpus and every worker
// (so window) count, EvalParallel returns exactly Engine.Eval's result —
// same matches, same order.
func TestEvalParallelMatchesSerial(t *testing.T) {
	plans := make([]*lpath.Path, len(queryCorpus))
	for i, q := range queryCorpus {
		plans[i] = lpath.MustParse(q)
	}
	for seed := int64(1); seed <= 4; seed++ {
		e := buildEngine(t, randomCorpus(seed, 7))
		for i, p := range plans {
			want, err := e.Eval(p)
			if err != nil {
				t.Fatalf("seed %d: serial %q: %v", seed, queryCorpus[i], err)
			}
			for _, workers := range []int{1, 3, 7, 64} {
				got, err := e.EvalParallel(context.Background(), p, e.Plan(p), 0, workers)
				if err != nil {
					t.Fatalf("seed %d w=%d: parallel %q: %v", seed, workers, queryCorpus[i], err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d w=%d: %q: parallel %d matches, serial %d",
						seed, workers, queryCorpus[i], len(got), len(want))
				}
			}
		}
	}
}

func TestEvalParallelDefaultWorkers(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	e := buildEngine(t, c)
	// Workers below 1 fall back to GOMAXPROCS; both must succeed.
	for _, w := range []int{-1, 0, 99} {
		ms, err := e.EvalParallel(context.Background(), lpath.MustParse(`//NP`), nil, 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(ms) != 4 {
			t.Errorf("workers=%d: %d matches, want 4", w, len(ms))
		}
	}
}

// TestEvalParallelEmptyShards: an empty store has no window, and the result
// is a non-nil empty slice like Eval's, with or without a limit.
func TestEvalParallelEmptyShards(t *testing.T) {
	e := buildEngine(t, tree.NewCorpus())
	for _, limit := range []int{0, 5} {
		ms, err := e.EvalParallel(context.Background(), lpath.MustParse(`//NP`), nil, limit, 0)
		if err != nil || ms == nil || len(ms) != 0 {
			t.Errorf("empty store, limit %d: %#v, %v", limit, ms, err)
		}
	}
	// Zero matches over several windows is the same non-nil empty slice.
	e = buildEngine(t, randomCorpus(3, 5))
	if ms, err := e.EvalParallel(context.Background(), lpath.MustParse(`//ZZZ`), nil, 0, 3); err != nil || ms == nil || len(ms) != 0 {
		t.Errorf("zero matches: %#v, %v", ms, err)
	}
}

func TestEvalParallelValidationError(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	e := buildEngine(t, c)
	if _, err := e.EvalParallel(context.Background(), lpath.MustParse(`//S@lex`), nil, 0, 2); err == nil {
		t.Error("expected validation error for attribute step in main path")
	}
}

func TestEvalParallelCancelledContext(t *testing.T) {
	e := buildEngine(t, randomCorpus(5, 6))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.EvalParallel(ctx, lpath.MustParse(`//NP`), nil, 0, 6); err == nil {
		t.Error("expected context error after cancellation")
	}
}

// TestRunShardsErrorPropagation pins the worker-pool error contract: a
// window's real error is returned verbatim (and deterministically — the
// lowest recorded window index wins over scheduling), real errors always win
// over cancellation noise from the fail-fast cancel, and a cancelled parent
// context surfaces as the parent's own error.
func TestRunShardsErrorPropagation(t *testing.T) {
	boom := errors.New("window exploded")

	t.Run("single failing shard", func(t *testing.T) {
		for trial := 0; trial < 25; trial++ {
			err := runWindows(context.Background(), 8, 4, func(ctx context.Context, i int) error {
				if i == 5 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("trial %d: got %v, want %v", trial, err, boom)
			}
		}
	})

	t.Run("identical failure on every shard", func(t *testing.T) {
		for trial := 0; trial < 25; trial++ {
			err := runWindows(context.Background(), 8, 4, func(ctx context.Context, i int) error {
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("trial %d: got %v, want %v", trial, err, boom)
			}
		}
	})

	t.Run("real error beats in-flight cancellation", func(t *testing.T) {
		// Windows that observe the fail-fast cancel return ctx.Err(); the one
		// real error must still be the reported one.
		for trial := 0; trial < 25; trial++ {
			err := runWindows(context.Background(), 8, 4, func(ctx context.Context, i int) error {
				if i == 2 {
					return boom
				}
				<-ctx.Done()
				return ctx.Err()
			})
			if !errors.Is(err, boom) {
				t.Fatalf("trial %d: got %v, want %v", trial, err, boom)
			}
		}
	})

	t.Run("parent cancellation surfaces as parent error", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := runWindows(ctx, 8, 4, func(ctx context.Context, i int) error {
			return ctx.Err() // windows that started before the flag observed it
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})

	t.Run("no failure returns nil", func(t *testing.T) {
		if err := runWindows(context.Background(), 8, 4, func(ctx context.Context, i int) error { return nil }); err != nil {
			t.Fatalf("got %v, want nil", err)
		}
	})
}
