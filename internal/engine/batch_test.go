package engine

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lpath/internal/lpath"
)

// batchOptRotations are the executor configurations the batch identity
// property is checked under: the memo must be inert to strategy choice.
var batchOptRotations = []struct {
	name string
	opts []Option
}{
	{"planned", nil},
	{"noplanner", []Option{WithoutPlanner()}},
	{"nobitmap", []Option{WithoutBitmap()}},
	{"bitmap", []Option{WithBitmapAlways()}},
	{"filter-sets", []Option{WithFilterPath(true)}},
}

// batchOf builds the batch that evaluates every path with the plan e would
// run for it alone, uncapped.
func batchOf(e *Engine, paths []*lpath.Path) []BatchQuery {
	qs := make([]BatchQuery, len(paths))
	for i, p := range paths {
		qs[i] = BatchQuery{Path: p, Plan: e.Plan(p)}
	}
	return qs
}

// TestEvalBatchMatchesSerial is the batch identity property: on random
// corpora, under every executor rotation, EvalBatch's slot i is element-wise
// identical to Eval(paths[i]) — including when the batch holds duplicates, so
// every memo layer is live while the comparison runs.
func TestEvalBatchMatchesSerial(t *testing.T) {
	paths := make([]*lpath.Path, 0, 2*len(queryCorpus))
	for _, q := range queryCorpus {
		paths = append(paths, lpath.MustParse(q))
	}
	// Duplicate the whole suite so the rows memo serves half the batch.
	paths = append(paths, paths...)
	for seed := int64(1); seed <= 2; seed++ {
		c := randomCorpus(seed, 7)
		for _, rot := range batchOptRotations {
			e := buildEngine(t, c, rot.opts...)
			want := make([][]Match, len(paths))
			for i, p := range paths {
				ms, err := e.Eval(p)
				if err != nil {
					t.Fatalf("seed %d %s: serial %q: %v", seed, rot.name, p, err)
				}
				want[i] = ms
			}
			got, _ := e.EvalBatch(context.Background(), batchOf(e, paths))
			for i := range paths {
				if got[i].Err != nil {
					t.Fatalf("seed %d %s: batch slot %d (%q): %v", seed, rot.name, i, paths[i], got[i].Err)
				}
				if len(got[i].Matches) == 0 && len(want[i]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[i].Matches, want[i]) {
					t.Errorf("seed %d %s: %q: batch %d matches, serial %d",
						seed, rot.name, paths[i], len(got[i].Matches), len(want[i]))
				}
			}
		}
	}
}

// TestEvalBatchErrorSlots proves a failing query occupies exactly its own
// slot with the same error serial evaluation reports, leaving batch mates
// untouched.
func TestEvalBatchErrorSlots(t *testing.T) {
	e, _ := figureEngine(t)
	bad := lpath.MustParse(`//S@lex`)
	_, serialErr := e.Eval(bad)
	if serialErr == nil {
		t.Fatal("serial Eval accepted a main-path attribute step")
	}
	paths := []*lpath.Path{lpath.MustParse(`//NP`), bad, lpath.MustParse(`//VP/V`)}
	got, _ := e.EvalBatch(context.Background(), batchOf(e, paths))
	if got[0].Err != nil || got[2].Err != nil {
		t.Fatalf("healthy slots errored: %v, %v", got[0].Err, got[2].Err)
	}
	if got[1].Err == nil || got[1].Err.Error() != serialErr.Error() {
		t.Fatalf("bad slot: got %v, want %v", got[1].Err, serialErr)
	}
	if got[1].Matches != nil {
		t.Errorf("bad slot carries %d matches", len(got[1].Matches))
	}
	if len(got[0].Matches) != 4 {
		t.Errorf("//NP: %d matches, want 4", len(got[0].Matches))
	}
}

// TestEvalBatchDuplicateRowsMemo pins the singleflight layer: duplicate
// queries evaluate once and hit the rows memo thereafter, with identical
// results in every slot.
func TestEvalBatchDuplicateRowsMemo(t *testing.T) {
	e, _ := figureEngine(t)
	p := lpath.MustParse(`//NP`)
	paths := []*lpath.Path{p, lpath.MustParse(`//NP`), lpath.MustParse(`//NP`)}
	got, stats := e.EvalBatch(context.Background(), batchOf(e, paths))
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if stats.RowsMisses != 1 || stats.RowsHits != 2 {
		t.Errorf("rows memo: %d misses / %d hits, want 1 / 2", stats.RowsMisses, stats.RowsHits)
	}
	if !reflect.DeepEqual(got[0], got[1]) || !reflect.DeepEqual(got[0], got[2]) {
		t.Error("duplicate slots differ")
	}
	want, err := e.Eval(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].Matches, want) {
		t.Errorf("batch %d matches, serial %d", len(got[0].Matches), len(want))
	}
}

// TestEvalBatchSharedFrontier pins the frontier memo: two queries whose main
// paths share the same canonical step prefix (differing only in scoped tail)
// reuse the step frontier, and the shared results stay identical to serial.
func TestEvalBatchSharedFrontier(t *testing.T) {
	tc := cancelCorpus(t)
	e := cancelEngine(t, tc)
	paths := []*lpath.Path{lpath.MustParse(`//VP{/NP$}`), lpath.MustParse(`//VP{//NP$}`)}
	got, stats := e.EvalBatch(context.Background(), batchOf(e, paths))
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if stats.FrontierHits < 1 {
		t.Errorf("frontier memo: %d hits (%d misses), want >= 1 hit",
			stats.FrontierHits, stats.FrontierMisses)
	}
	for i, p := range paths {
		want, err := e.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Matches, want) {
			t.Errorf("%q: batch %d matches, serial %d", p, len(got[i].Matches), len(want))
		}
	}
}

// TestEvalBatchSharedSatisfiers pins the satisfier-bitset memo: two distinct
// queries with the same existential filter (planned as a semijoin on this
// corpus) share the materialized satisfier set.
func TestEvalBatchSharedSatisfiers(t *testing.T) {
	tc := cancelCorpus(t)
	e := cancelEngine(t, tc)
	paths := []*lpath.Path{
		lpath.MustParse(`//S[//_[@lex=saw]]`),
		lpath.MustParse(`//NP[//_[@lex=saw]]`),
	}
	got, stats := e.EvalBatch(context.Background(), batchOf(e, paths))
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if stats.SatMisses < 1 || stats.SatHits < 1 {
		t.Errorf("satisfier memo: %d misses / %d hits, want >= 1 each",
			stats.SatMisses, stats.SatHits)
	}
	for i, p := range paths {
		want, err := e.Eval(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i].Matches, want) {
			t.Errorf("%q: batch %d matches, serial %d", p, len(got[i].Matches), len(want))
		}
	}
}

// TestEvalBatchPreCancelled: a dead context fails every slot with its error
// before any store access.
func TestEvalBatchPreCancelled(t *testing.T) {
	e, _ := figureEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	paths := []*lpath.Path{lpath.MustParse(`//NP`), lpath.MustParse(`//VP`)}
	got, _ := e.EvalBatch(ctx, batchOf(e, paths))
	for i := range paths {
		if !errors.Is(got[i].Err, context.Canceled) {
			t.Errorf("slot %d: got %v, want context.Canceled", i, got[i].Err)
		}
		if got[i].Matches != nil {
			t.Errorf("slot %d carries %d matches", i, len(got[i].Matches))
		}
	}
}

// TestEvalBatchMidCancel cancels cooperatively mid-batch (via the countdown
// context) and requires every interrupted slot to carry the context error —
// and the engine's pooled state to stay healthy for the next evaluation.
func TestEvalBatchMidCancel(t *testing.T) {
	tc := cancelCorpus(t)
	e := cancelEngine(t, tc, WithoutPlanner())
	p := lpath.MustParse(`//_[//_[//NP]]`)
	paths := []*lpath.Path{p, p, p}

	cctx := newCountdownCtx()
	cctx.setPolls(2) // batch entry check + first in-sweep poll survive
	got, _ := e.EvalBatch(cctx, batchOf(e, paths))
	for i := range paths {
		if !errors.Is(got[i].Err, context.Canceled) {
			t.Fatalf("slot %d: got %v, want context.Canceled", i, got[i].Err)
		}
	}

	want, err := e.Eval(lpath.MustParse(`//NP`))
	if err != nil {
		t.Fatalf("post-cancel Eval: %v", err)
	}
	fresh := cancelEngine(t, tc, WithoutPlanner())
	ref, err := fresh.Eval(lpath.MustParse(`//NP`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, ref) {
		t.Fatalf("post-cancel results differ: %d vs %d matches", len(want), len(ref))
	}
}
