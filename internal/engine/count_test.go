package engine

import (
	"context"
	"testing"

	"lpath/internal/lpath"
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

// TestCountParallelAgreesWithSerial checks the sharded count against both
// the serial count and the materializing parallel path, across shard and
// worker counts.
func TestCountParallelAgreesWithSerial(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := randomCorpus(seed, 9)
		serial := buildEngine(t, c)
		for _, k := range []int{1, 3, 9} {
			shards := shardEngines(t, c, k)
			for _, workers := range []int{1, 4} {
				for _, q := range queryCorpus {
					p := lpath.MustParse(q)
					want, err := serial.Count(p)
					if err != nil {
						t.Fatalf("seed %d %q: %v", seed, q, err)
					}
					got, err := CountParallel(context.Background(), shards, p, shards[0].Plan(p), workers)
					if err != nil {
						t.Fatalf("seed %d k=%d w=%d %q: %v", seed, k, workers, q, err)
					}
					if got != want {
						t.Errorf("seed %d k=%d w=%d %q: CountParallel = %d, serial Count = %d",
							seed, k, workers, q, got, want)
					}
					ms, err := EvalParallel(context.Background(), shards, p, shards[0].Plan(p), 0, workers)
					if err != nil {
						t.Fatalf("seed %d k=%d w=%d %q eval: %v", seed, k, workers, q, err)
					}
					if got != len(ms) {
						t.Errorf("seed %d k=%d w=%d %q: CountParallel = %d, len(EvalParallel) = %d",
							seed, k, workers, q, got, len(ms))
					}
				}
			}
		}
	}
}

func TestCountParallelValidationAndEmpty(t *testing.T) {
	if _, err := CountParallel(context.Background(), nil, lpath.MustParse(`@lex`), nil, 0); err == nil {
		t.Error("expected validation error for a bare attribute path")
	}
	n, err := CountParallel(context.Background(), nil, lpath.MustParse(`//NP`), nil, 0)
	if err != nil || n != 0 {
		t.Errorf("no shards: CountParallel = %d, %v", n, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shards := shardEngines(t, randomCorpus(1, 4), 2)
	if _, err := CountParallel(ctx, shards, lpath.MustParse(`//NP`), nil, 0); err == nil {
		t.Error("expected error from cancelled context")
	}
}
