package engine

import (
	"context"
	"testing"

	"lpath/internal/lpath"
	"lpath/internal/tree"
)

// TestCountAgreesWithSelect is the count-only pipeline's contract: Count
// skips sorting and node materialization but must report exactly
// len(Eval(...)) for every query, planner on and off.
func TestCountAgreesWithSelect(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := randomCorpus(seed, 7)
		for _, opts := range [][]Option{nil, {WithoutPlanner()}} {
			e := buildEngine(t, c, opts...)
			for _, q := range queryCorpus {
				p := lpath.MustParse(q)
				ms, err := e.Eval(p)
				if err != nil {
					t.Fatalf("seed %d %q eval: %v", seed, q, err)
				}
				n, err := e.Count(p)
				if err != nil {
					t.Fatalf("seed %d %q count: %v", seed, q, err)
				}
				if n != len(ms) {
					t.Errorf("seed %d %q: Count = %d, len(Eval) = %d (opts %d)",
						seed, q, n, len(ms), len(opts))
				}
			}
		}
	}
}

// TestCountParallelAgreesWithSerial checks the windowed count against both
// the serial count and the materializing parallel path, across worker (so
// window) counts.
func TestCountParallelAgreesWithSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		e := buildEngine(t, randomCorpus(seed, 9))
		for _, workers := range []int{1, 3, 4, 9} {
			for _, q := range queryCorpus {
				p := lpath.MustParse(q)
				want, err := e.Count(p)
				if err != nil {
					t.Fatalf("seed %d %q: %v", seed, q, err)
				}
				got, err := e.CountParallel(context.Background(), p, e.Plan(p), workers)
				if err != nil {
					t.Fatalf("seed %d w=%d %q: %v", seed, workers, q, err)
				}
				if got != want {
					t.Errorf("seed %d w=%d %q: CountParallel = %d, serial Count = %d",
						seed, workers, q, got, want)
				}
				ms, err := e.EvalParallel(context.Background(), p, e.Plan(p), 0, workers)
				if err != nil {
					t.Fatalf("seed %d w=%d %q eval: %v", seed, workers, q, err)
				}
				if got != len(ms) {
					t.Errorf("seed %d w=%d %q: CountParallel = %d, len(EvalParallel) = %d",
						seed, workers, q, got, len(ms))
				}
			}
		}
	}
}

func TestCountParallelValidationAndEmpty(t *testing.T) {
	e := buildEngine(t, randomCorpus(1, 4))
	if _, err := e.CountParallel(context.Background(), lpath.MustParse(`@lex`), nil, 0); err == nil {
		t.Error("expected validation error for a bare attribute path")
	}
	n, err := buildEngine(t, tree.NewCorpus()).CountParallel(context.Background(), lpath.MustParse(`//NP`), nil, 0)
	if err != nil || n != 0 {
		t.Errorf("empty store: CountParallel = %d, %v", n, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CountParallel(ctx, lpath.MustParse(`//NP`), nil, 2); err == nil {
		t.Error("expected error from cancelled context")
	}
}
