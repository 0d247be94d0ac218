package relstore

import (
	"testing"

	"lpath/internal/tree"
)

// TestStatisticsFigure1 pins the counts the planner reads from the store on
// Figure 1: the dictionary ranges and the statistics block.
func TestStatisticsFigure1(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	st := &s.Parts().Stats
	if got := s.TreeCount(); got != 1 {
		t.Errorf("TreeCount = %d, want 1", got)
	}
	if got := s.ElementCount(); got != 15 || st.Elements != 15 {
		t.Errorf("ElementCount = %d, Stats.Elements = %d, want 15", got, st.Elements)
	}
	if st.AttrRows != 9 {
		t.Errorf("AttrRows = %d, want 9 (@lex per preterminal)", st.AttrRows)
	}
	if st.Leaves != 9 {
		t.Errorf("Leaves = %d, want 9", st.Leaves)
	}
	if st.TotalSpan != 9 {
		t.Errorf("TotalSpan = %d, want 9 (one unit per word)", st.TotalSpan)
	}
	if got := s.NameCount("NP"); got != 4 {
		t.Errorf("NameCount(NP) = %d, want 4", got)
	}
	if got := s.NameCount("ZZZ"); got != 0 {
		t.Errorf("NameCount(ZZZ) = %d, want 0", got)
	}
	if lo, hi := s.AttrRange("lex"); hi-lo != 9 {
		t.Errorf("AttrRange(lex) holds %d rows, want 9", hi-lo)
	}
	if got := len(s.ByValue("saw")); got != 1 {
		t.Errorf("ByValue(saw) has %d postings, want 1", got)
	}
	if got := len(s.ByValue("no-such-word")); got != 0 {
		t.Errorf("ByValue(no-such-word) has %d postings, want 0", got)
	}
	if st.MaxDepth < 2 || len(st.DepthHist) != st.MaxDepth+1 {
		t.Errorf("MaxDepth = %d, DepthHist len = %d", st.MaxDepth, len(st.DepthHist))
	}
	var sum int64
	for _, n := range st.DepthHist {
		sum += n
	}
	if sum != int64(st.Elements) {
		t.Errorf("DepthHist sums to %d, want %d", sum, st.Elements)
	}
}

func TestStatisticsEmptyStore(t *testing.T) {
	s := Build(tree.NewCorpus(), SchemeInterval)
	if st := s.Parts().Stats; st.Elements != 0 || s.ElementCount() != 0 || s.TreeCount() != 0 {
		t.Fatalf("empty store stats: %+v", st)
	}
}
