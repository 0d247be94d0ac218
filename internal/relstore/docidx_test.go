package relstore

import (
	"testing"

	"lpath/internal/tree"
)

// leftAlignedCorpus builds a tree with left-aligned same-name nesting: every
// NP on the spine starts at the same word position as its NP first child but
// extends further right (a trailing leaf widens it). The clustered order
// breaks the left tie by right ascending — innermost first — while document
// order is outermost first, so this is exactly the shape that forces a
// per-name document-order permutation (NameByDoc).
func leftAlignedCorpus() *tree.Corpus {
	root := &tree.Node{Tag: "NP"}
	cur := root
	for i := 0; i < 4; i++ {
		k := &tree.Node{Tag: "NP"}
		cur.AddChild(k)
		cur.AddChild(&tree.Node{Tag: "N", Word: "man"})
		cur = k
	}
	cur.AddChild(&tree.Node{Tag: "N", Word: "dog"})
	c := tree.NewCorpus()
	c.AddRoot(root)
	single := &tree.Node{Tag: "NP"}
	single.AddChild(&tree.Node{Tag: "N", Word: "dog"})
	c.AddRoot(single)
	return c
}

// TestNameByDocOrder checks the document-order permutation invariants: it
// exists exactly for names whose clustered order is not document order, it is
// sorted by (tid, left, depth), and it enumerates the same rows as the
// clustered range.
func TestNameByDocOrder(t *testing.T) {
	s := Build(leftAlignedCorpus(), SchemeInterval)
	np := s.NameByDoc("NP")
	if np == nil {
		t.Fatal("NameByDoc(NP) is nil for left-aligned same-name nesting")
	}
	lo, hi, ok := s.NameRange("NP")
	if !ok || int(hi-lo) != len(np) {
		t.Fatalf("NameByDoc(NP) has %d rows, clustered range has %d", len(np), hi-lo)
	}
	seen := map[int32]bool{}
	for i, ri := range np {
		seen[ri] = true
		if i == 0 {
			continue
		}
		a, b := s.Row(np[i-1]), s.Row(ri)
		if a.TID > b.TID || (a.TID == b.TID && (a.Left > b.Left ||
			(a.Left == b.Left && a.Depth >= b.Depth))) {
			t.Fatalf("NameByDoc(NP) not in (tid, left, depth) order at %d", i)
		}
	}
	for i := lo; i < hi; i++ {
		if !seen[s.RowSeq()[i]] {
			t.Fatalf("clustered NP row %d missing from NameByDoc", i)
		}
	}
	// A name whose clustered order is already document order keeps no
	// permutation: its clustered range is its document order.
	if s.NameByDoc("N") != nil {
		t.Error("NameByDoc(N) built despite clustered order being document order")
	}
}
