package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tree"
)

func shardEngines(t *testing.T, c *tree.Corpus, k int) []*Engine {
	t.Helper()
	shards, err := NewSharded(relstore.BuildShards(c, relstore.SchemeInterval, k))
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestEvalParallelMatchesSerial is the core equivalence property: on random
// corpora, for every query in the cross-validation corpus, every shard
// count and every worker count, EvalParallel returns exactly Engine.Eval's
// result — same matches, same order.
func TestEvalParallelMatchesSerial(t *testing.T) {
	plans := make([]*lpath.Path, len(queryCorpus))
	for i, q := range queryCorpus {
		plans[i] = lpath.MustParse(q)
	}
	for seed := int64(1); seed <= 4; seed++ {
		c := randomCorpus(seed, 7)
		serial := buildEngine(t, c)
		want := make([][]Match, len(plans))
		for i, p := range plans {
			ms, err := serial.Eval(p)
			if err != nil {
				t.Fatalf("seed %d: serial %q: %v", seed, queryCorpus[i], err)
			}
			want[i] = ms
		}
		for _, k := range []int{1, 3, 7} {
			shards := shardEngines(t, c, k)
			for _, workers := range []int{1, 3} {
				for i, p := range plans {
					got, err := EvalParallel(context.Background(), shards, p, shards[0].Plan(p), 0, workers)
					if err != nil {
						t.Fatalf("seed %d k=%d w=%d: parallel %q: %v", seed, k, workers, queryCorpus[i], err)
					}
					if len(got) == 0 && len(want[i]) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("seed %d k=%d w=%d: %q: parallel %d matches, serial %d",
							seed, k, workers, queryCorpus[i], len(got), len(want[i]))
					}
				}
			}
		}
	}
}

func TestEvalParallelDefaultWorkers(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	shards := shardEngines(t, c, 1)
	// Workers below 1 fall back to GOMAXPROCS; both must succeed.
	for _, w := range []int{-1, 0, 99} {
		ms, err := EvalParallel(context.Background(), shards, lpath.MustParse(`//NP`), nil, 0, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(ms) != 4 {
			t.Errorf("workers=%d: %d matches, want 4", w, len(ms))
		}
	}
}

func TestEvalParallelEmptyShards(t *testing.T) {
	ms, err := EvalParallel(context.Background(), nil, lpath.MustParse(`//NP`), nil, 0, 0)
	if err != nil || len(ms) != 0 {
		t.Errorf("empty shard set: %d matches, %v", len(ms), err)
	}
}

func TestEvalParallelValidationError(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	shards := shardEngines(t, c, 2)
	if _, err := EvalParallel(context.Background(), shards, lpath.MustParse(`//S@lex`), nil, 0, 0); err == nil {
		t.Error("expected validation error for attribute step in main path")
	}
}

func TestEvalParallelCancelledContext(t *testing.T) {
	c := randomCorpus(5, 6)
	shards := shardEngines(t, c, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EvalParallel(ctx, shards, lpath.MustParse(`//NP`), nil, 0, 0); err == nil {
		t.Error("expected context error after cancellation")
	}
}

func TestMergeByTree(t *testing.T) {
	n := &tree.Node{Tag: "X"}
	m := func(tid int) Match { return Match{TreeID: tid, Node: n} }
	got := mergeByTree([][]Match{
		{m(1), m(1), m(4)},
		{m(2), m(3), m(3)},
		nil,
		{m(5)},
	})
	want := []int{1, 1, 2, 3, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("merged %d matches, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].TreeID != w {
			t.Errorf("merged[%d].TreeID = %d, want %d", i, got[i].TreeID, w)
		}
	}
	// The empty merge is a non-nil empty slice, mirroring Engine.Eval, so
	// EvalParallel is byte-identical to serial even on zero matches.
	for _, in := range [][][]Match{nil, {nil, nil}} {
		if m := mergeByTree(in); m == nil || len(m) != 0 {
			t.Errorf("empty merge = %#v, want non-nil empty slice", m)
		}
	}
}

// TestRunShardsErrorPropagation pins the worker-pool error contract: a
// shard's real error is returned verbatim (and deterministically — the
// lowest recorded shard index wins over scheduling), real errors always win
// over cancellation noise from the fail-fast cancel, and a cancelled parent
// context surfaces as the parent's own error.
func TestRunShardsErrorPropagation(t *testing.T) {
	boom := errors.New("shard exploded")

	t.Run("single failing shard", func(t *testing.T) {
		for trial := 0; trial < 25; trial++ {
			err := runShards(context.Background(), 8, 4, func(ctx context.Context, i int) error {
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
			err := runShards(context.Background(), 8, 4, func(ctx context.Context, i int) error {
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("trial %d: got %v, want %v", trial, err, boom)
			}
		}
	})

	t.Run("real error beats in-flight cancellation", func(t *testing.T) {
		// Shards that observe the fail-fast cancel return ctx.Err(); the one
		// real error must still be the reported one.
		for trial := 0; trial < 25; trial++ {
			err := runShards(context.Background(), 8, 4, func(ctx context.Context, i int) error {
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
		err := runShards(ctx, 8, 4, func(ctx context.Context, i int) error {
			return ctx.Err() // shards that started before the flag observed it
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})

	t.Run("no failure returns nil", func(t *testing.T) {
		if err := runShards(context.Background(), 8, 4, func(ctx context.Context, i int) error { return nil }); err != nil {
			t.Fatalf("got %v, want nil", err)
		}
	})
}
