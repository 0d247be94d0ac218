package relstore

import (
	"testing"

	"lpath/internal/tree"
)

// checkColumnar asserts the columnar invariants the set-at-a-time executor
// depends on: the Cols arrays are as long as the relation and agree with the
// rows Row builds from them, and RowSeq is the identity permutation over the
// clustered relation.
func checkColumnar(t *testing.T, s *Store) {
	t.Helper()
	cols := s.Cols()
	n := s.Len()
	for _, c := range [][]int32{cols.TID, cols.Left, cols.Right, cols.Depth, cols.ID, cols.PID} {
		if len(c) != n {
			t.Fatalf("column length %d, want Len() = %d", len(c), n)
		}
	}
	seq := s.RowSeq()
	if len(seq) != n {
		t.Fatalf("RowSeq length %d, want %d", len(seq), n)
	}
	for i := 0; i < n; i++ {
		ri := int32(i)
		r := s.Row(ri)
		if cols.TID[i] != r.TID || cols.Left[i] != r.Left || cols.Right[i] != r.Right ||
			cols.Depth[i] != r.Depth || cols.ID[i] != r.ID || cols.PID[i] != r.PID {
			t.Fatalf("row %d: columns {tid:%d l:%d r:%d d:%d id:%d pid:%d} != row %+v",
				i, cols.TID[i], cols.Left[i], cols.Right[i], cols.Depth[i], cols.ID[i], cols.PID[i], r)
		}
		if seq[i] != ri {
			t.Fatalf("RowSeq[%d] = %d, want identity", i, seq[i])
		}
	}
}

func TestColumnarMirrorsRows(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP (Det the) (N cat)) (VP (V sat)))`))
	checkColumnar(t, Build(c, SchemeInterval))
	checkColumnar(t, Build(c, SchemeStartEnd))
	checkColumnar(t, Build(tree.NewCorpus(), SchemeInterval)) // empty store
}

func TestColumnarAcrossShards(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP a) (VP (V b) (NP c)))`))
	c.Add(tree.MustParseTree(`(S (NP d))`))
	// Stores of tree slices: tid-offset (first tid 3) and the first two.
	checkColumnar(t, Build(&tree.Corpus{Trees: c.Trees[2:]}, SchemeInterval))
	checkColumnar(t, Build(&tree.Corpus{Trees: c.Trees[:2]}, SchemeInterval))
}

func TestColumnarSurvivesSnapshot(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	s := Build(c, SchemeInterval)
	loaded, err := Assemble(s.Parts())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("assembled Len = %d, want %d", loaded.Len(), s.Len())
	}
	checkColumnar(t, loaded)
}
