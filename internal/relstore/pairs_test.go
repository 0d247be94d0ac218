package relstore

import (
	"fmt"
	"testing"

	"lpath/internal/corpus"
	"lpath/internal/tree"
)

// TestTagPairsMatchTrees rebuilds the four relations of the tag-pair summary
// by walking the trees and compares them with the summary of the built store
// and of the store assembled from its parts, pair by pair in both directions.
func TestTagPairsMatchTrees(t *testing.T) {
	corpora := map[string]*tree.Corpus{
		"wsj":    corpus.Generate(corpus.Config{Profile: corpus.WSJ, Scale: 0.003, Seed: 7}),
		"random": randomShardCorpus(99, 40),
	}
	corpora["random"].Trees[3].Root.SetAttr("func", "SBJ")
	for name, c := range corpora {
		want := [4]map[[2]string]bool{{}, {}, {}, {}}
		for _, tr := range c.Trees {
			for _, n := range tr.Nodes() {
				for i, k := range n.Children {
					want[PairChild][[2]string{n.Tag, k.Tag}] = true
					for _, later := range n.Children[i+1:] {
						want[PairFollowingSibling][[2]string{k.Tag, later.Tag}] = true
					}
					if i+1 < len(n.Children) {
						want[PairNextSibling][[2]string{k.Tag, n.Children[i+1].Tag}] = true
					}
				}
				for a := n.Parent; a != nil; a = a.Parent {
					want[PairDescendant][[2]string{a.Tag, n.Tag}] = true
				}
			}
		}
		built := Build(c, SchemeInterval)
		loaded, err := Assemble(built.Parts())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Store{built, loaded} {
			// Every dictionary name, attributes too: an attribute name has
			// an id but stands in no pair.
			tp, names := s.Pairs(), s.Parts().Names
			if tp == nil || tp.Words != (len(names)+63)/64 {
				t.Fatalf("%s: summary %v over %d names", name, tp, len(names))
			}
			for r := range Pair(4) {
				for _, a := range names {
					ia, _ := s.NameID(a)
					for _, b := range names {
						ib, _ := s.NameID(b)
						got := tp.Row(r, ia)[ib>>6]&(1<<(ib&63)) != 0
						if got != want[r][[2]string{a, b}] {
							t.Errorf("%s: relation %d pair (%s, %s) = %v", name, r, a, b, got)
						}
					}
				}
			}
			if _, ok := s.NameID("@lex"); !ok {
				t.Errorf("%s: no attribute name in the dictionary to check", name)
			}
		}
	}
}

// TestTagPairsNameBound pins that a store with more element names than the
// summary's bound has no summary rather than an oversized one.
func TestTagPairsNameBound(t *testing.T) {
	root := &tree.Node{Tag: "S"}
	for i := range maxPairNames {
		root.AddChild(&tree.Node{Tag: fmt.Sprintf("T%d", i), Word: "w"})
	}
	c := &tree.Corpus{}
	c.AddRoot(root)
	if tp := Build(c, SchemeInterval).Pairs(); tp != nil {
		t.Fatalf("summary of %d words per row built", tp.Words)
	}
}
