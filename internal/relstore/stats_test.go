package relstore

import (
	"math"
	"testing"

	"lpath/internal/tree"
)

func TestStatisticsFigure1(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	st := s.Statistics()
	if st == nil {
		t.Fatal("Statistics() = nil")
	}
	if st.Trees != 1 {
		t.Errorf("Trees = %d, want 1", st.Trees)
	}
	if st.Elements != 15 {
		t.Errorf("Elements = %d, want 15", st.Elements)
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
	if got := st.NameCount("NP"); got != 4 {
		t.Errorf("NameCount(NP) = %d, want 4", got)
	}
	if got := st.NameCount("ZZZ"); got != 0 {
		t.Errorf("NameCount(ZZZ) = %d, want 0", got)
	}
	if got := st.AttrNames["@lex"]; got != 9 {
		t.Errorf("AttrNames[@lex] = %d, want 9", got)
	}
	if got := st.PostingCount("saw"); got != 1 {
		t.Errorf("PostingCount(saw) = %d, want 1", got)
	}
	if got := st.PostingCount("no-such-word"); got != 0 {
		t.Errorf("PostingCount(no-such-word) = %d, want 0", got)
	}
	if got := st.AvgTreeSpan(); got != 9 {
		t.Errorf("AvgTreeSpan = %g, want 9", got)
	}
	// 15 elements, 9 leaves, 6 internal; every non-root element is someone's
	// child, so AvgFanout = (15-1)/6.
	if got := st.AvgFanout(); math.Abs(got-14.0/6.0) > 1e-9 {
		t.Errorf("AvgFanout = %g, want %g", got, 14.0/6.0)
	}
	if st.MaxDepth < 2 || len(st.DepthHist) != st.MaxDepth+1 {
		t.Errorf("MaxDepth = %d, DepthHist len = %d", st.MaxDepth, len(st.DepthHist))
	}
	sum := 0
	for _, n := range st.DepthHist {
		sum += n
	}
	if sum != st.Elements {
		t.Errorf("DepthHist sums to %d, want %d", sum, st.Elements)
	}
	if st.Values.Rows != 9 {
		t.Errorf("Values.Rows = %d, want 9", st.Values.Rows)
	}
	if st.Values.Distinct == 0 || st.Values.Max < 1 {
		t.Errorf("Values = %+v", st.Values)
	}
}

func TestStatisticsEmptyStore(t *testing.T) {
	s := Build(tree.NewCorpus(), SchemeInterval)
	st := s.Statistics()
	if st.Elements != 0 || st.Trees != 0 {
		t.Fatalf("empty store stats: %+v", st)
	}
	if got := st.AvgFanout(); got != 0 {
		t.Errorf("empty AvgFanout = %g, want 0", got)
	}
}

func TestNamesBySize(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	names := s.Statistics().NamesBySize()
	if len(names) == 0 {
		t.Fatal("no names")
	}
	st := s.Statistics()
	for i := 1; i < len(names); i++ {
		a, b := st.Names[names[i-1]].Count, st.Names[names[i]].Count
		if a < b {
			t.Fatalf("NamesBySize out of order at %d: %s(%d) before %s(%d)",
				i, names[i-1], a, names[i], b)
		}
	}
}
