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
// per-name document-order permutation (Parts.DocPost).
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

// TestDocPostOrder checks the invariants of the format's document-order
// permutations (Parts.DocNames / DocPost): one exists exactly for the names
// whose clustered order is not document order, it is sorted by (tid, left,
// depth), and it enumerates the same rows as the clustered range.
func TestDocPostOrder(t *testing.T) {
	s := Build(leftAlignedCorpus(), SchemeInterval)
	p := s.Parts()
	if len(p.DocNames) != 1 || p.Names[p.DocNames[0]] != "NP" {
		t.Fatalf("doc permutations for %v, want NP only (N's clustered order is document order)", p.DocNames)
	}
	np := p.DocPost[p.DocStarts[0]:p.DocStarts[1]]
	lo, hi, ok := s.NameRange("NP")
	if !ok || int(hi-lo) != len(np) {
		t.Fatalf("NP permutation has %d rows, clustered range has %d", len(np), hi-lo)
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
			t.Fatalf("NP permutation not in (tid, left, depth) order at %d", i)
		}
	}
	for i := lo; i < hi; i++ {
		if !seen[i] {
			t.Fatalf("clustered NP row %d missing from its permutation", i)
		}
	}
}
