package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lpath/internal/corpus"
	"lpath/internal/lpath"
	"lpath/internal/relstore"
)

func streamCorpus(t testing.TB) *Engine {
	t.Helper()
	tc := corpus.Generate(corpus.Config{Profile: corpus.WSJ, Scale: 0.004, Seed: 9})
	e, err := New(relstore.Build(tc, relstore.SchemeInterval))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// streamQueries exercises every windowed entry point: plain descendants, the
// twig-able runs, positional predicates under the virtual root, value-index
// driving, semijoin-eligible filters, and scoping on the virtual root.
var streamQueries = []string{
	`//NP`,
	`//VB->NP`,
	`//VP//NN`,
	`//_//_//NP`,
	`//S{//NP$}`,
	`//VP{/VB-->NN}`,
	`//NP[not(//JJ) and //NN]`,
	`//_[position()=2]`,
	`//V[@lex=saw]`,
	`//S[//^NP]`,
	`//NN[count(//_)=0]`,
}

// TestEvalLimitParity holds EvalPlanLimitContext(k) ≡ Eval()[:k] at the
// engine level across boundary limits, k = 0 meaning no limit.
func TestEvalLimitParity(t *testing.T) {
	e := streamCorpus(t)
	for _, text := range streamQueries {
		p := lpath.MustParse(text)
		full, err := e.Eval(p)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for _, k := range []int{0, 1, 3, len(full), len(full) + 1} {
			got, err := e.EvalPlanLimitContext(context.Background(), p, e.Plan(p), k)
			if err != nil {
				t.Fatalf("%s limit %d: %v", text, k, err)
			}
			want := full
			if k > 0 && k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: limit %d = %d matches, want prefix of len %d",
					text, k, len(got), len(want))
			}
		}
	}
}

// TestStreamOrderAndAbort verifies the streaming contract directly: yields
// arrive in Eval's exact order, and returning false stops the evaluation
// without corrupting the engine's pooled state.
func TestStreamOrderAndAbort(t *testing.T) {
	e := streamCorpus(t)
	p := lpath.MustParse(`//VB->NP`)
	full, err := e.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 8 {
		t.Fatalf("corpus too small: %d matches", len(full))
	}

	var got []Match
	err = e.StreamPlan(context.Background(), p, e.Plan(p), func(m Match) bool {
		got = append(got, m)
		return len(got) < 6
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, full[:6]) {
		t.Fatalf("streamed prefix differs: %d matches", len(got))
	}

	// The abort above released the eval context mid-corpus; the pooled
	// arena and twig scratch must still produce correct full evaluations.
	for i := 0; i < 3; i++ {
		again, err := e.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, full) {
			t.Fatalf("post-abort Eval differs on round %d", i)
		}
	}
}

// TestEvalLimitCancel proves limited evaluation is interrupted cooperatively
// mid-sweep, and that an interrupted limit evaluation does not poison the
// pooled state (the arena-ownership guarantee of the early-exit path).
func TestEvalLimitCancel(t *testing.T) {
	tc := cancelCorpus(t)
	for _, tt := range []struct {
		name string
		opts []Option
	}{
		{"probe", []Option{WithoutPlanner()}},
		{"merge", []Option{WithoutPlanner(), WithMergeAlways()}},
		{"twig", []Option{WithoutPlanner(), WithTwigAlways()}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			e := cancelEngine(t, tc, tt.opts...)
			p := lpath.MustParse(`//_[//_[//NP]]`)

			cctx := newCountdownCtx()
			cctx.setPolls(2)
			if _, err := e.EvalPlanLimitContext(cctx, p, e.Plan(p), 1_000_000); !errors.Is(err, context.Canceled) {
				t.Fatalf("EvalPlanLimitContext: got err %v, want context.Canceled", err)
			}

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

// TestEvalParallelLimitParity holds the windowed limit path to the serial
// contract over several worker (so window) counts.
func TestEvalParallelLimitParity(t *testing.T) {
	e := streamCorpus(t)
	for _, workers := range []int{1, 3, 8} {
		for _, text := range streamQueries {
			p := lpath.MustParse(text)
			full, err := e.Eval(p)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			for _, k := range []int{0, 1, 3, len(full), len(full) + 1} {
				got, err := e.EvalParallel(context.Background(), p, e.Plan(p), k, workers)
				if err != nil {
					t.Fatalf("%s workers=%d limit=%d: %v", text, workers, k, err)
				}
				want := full
				if k > 0 && k < len(full) {
					want = full[:k]
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers=%d: EvalParallel(limit %d) = %d matches, want %d",
						text, workers, k, len(got), len(want))
				}
			}
		}
	}
}

// TestLimitEntryPointsPreCancelled pins the entry checks of the new
// streaming surfaces, mirroring TestContextPreCancelled.
func TestLimitEntryPointsPreCancelled(t *testing.T) {
	e := streamCorpus(t)
	p := lpath.MustParse(`//NP`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.EvalPlanLimitContext(ctx, p, e.Plan(p), 10); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalPlanLimitContext: got %v", err)
	}
	if err := e.StreamPlan(ctx, p, e.Plan(p), func(Match) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Errorf("StreamPlan: got %v", err)
	}
	if _, err := e.EvalParallel(ctx, p, e.Plan(p), 10, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalParallel(limit): got %v", err)
	}
	// limit <= 0 means no limit: the full evaluation.
	full, err := e.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, -3} {
		if ms, err := e.EvalPlanLimitContext(context.Background(), p, e.Plan(p), k); err != nil || !reflect.DeepEqual(ms, full) {
			t.Errorf("limit %d = %d matches, %v; want all %d", k, len(ms), err, len(full))
		}
	}
}
