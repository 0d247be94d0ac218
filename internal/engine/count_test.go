package engine

import (
	"context"
	"runtime"
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
				res, err := e.Run(context.Background(), p, e.Plan(p), Spec{Mode: ModeCount, Workers: workers})
				got := res.Count
				if err != nil {
					t.Fatalf("seed %d w=%d %q: %v", seed, workers, q, err)
				}
				if got != want {
					t.Errorf("seed %d w=%d %q: parallel count = %d, serial Count = %d",
						seed, workers, q, got, want)
				}
				res, err = e.Run(context.Background(), p, e.Plan(p), Spec{Workers: workers})
				ms := res.Matches
				if err != nil {
					t.Fatalf("seed %d w=%d %q eval: %v", seed, workers, q, err)
				}
				if got != len(ms) {
					t.Errorf("seed %d w=%d %q: parallel count = %d, parallel select = %d matches",
						seed, workers, q, got, len(ms))
				}
			}
		}
	}
}

func TestCountParallelValidationAndEmpty(t *testing.T) {
	e := buildEngine(t, randomCorpus(1, 4))
	all := runtime.GOMAXPROCS(0)
	if _, err := e.Run(context.Background(), lpath.MustParse(`@lex`), nil, Spec{Mode: ModeCount, Workers: all}); err == nil {
		t.Error("expected validation error for a bare attribute path")
	}
	res, err := buildEngine(t, tree.NewCorpus()).Run(context.Background(), lpath.MustParse(`//NP`), nil, Spec{Mode: ModeCount, Workers: all})
	if n := res.Count; err != nil || n != 0 {
		t.Errorf("empty store: CountParallel = %d, %v", n, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, lpath.MustParse(`//NP`), nil, Spec{Mode: ModeCount, Workers: 2}); err == nil {
		t.Error("expected error from cancelled context")
	}
}

// TestOneStepValueCount: a value-driven step's Exec leaves its equality out,
// so a one-step //_[@lex=w] or //NN[@lex=w] looks like a step with nothing
// to test. Its count must still be the value posting's, serial and windowed:
// len(Select) and the unplanned count, never the step's name posting.
func TestOneStepValueCount(t *testing.T) {
	tc := cancelCorpus(t)
	e := cancelEngine(t, tc)
	noplan := cancelEngine(t, tc, WithoutPlanner())
	for _, q := range []string{`//_[@lex=the]`, `//NN[@lex=building]`, `//NN[@lex=the]`, `/_[@lex=the]`} {
		p := lpath.MustParse(q)
		if sp := e.Plan(p).Step(&p.Steps[0]); sp == nil || sp.Value == "" || len(sp.Exec) != 0 {
			t.Fatalf("%s: not value-driven: %+v", q, sp)
		}
		ms, err := e.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := noplan.Count(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != want {
			t.Errorf("%s: len(Select) = %d, unplanned Count = %d", q, len(ms), want)
		}
		for _, workers := range []int{1, 3} {
			res, err := e.Run(context.Background(), p, e.Plan(p), Spec{Mode: ModeCount, Workers: workers})
			if err != nil || res.Count != want {
				t.Errorf("%s workers=%d: Count = %d, %v; want %d", q, workers, res.Count, err, want)
			}
		}
	}
}
