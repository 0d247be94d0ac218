package relstore

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"lpath/internal/corpus"
	"lpath/internal/tree"
)

// mapIndex is the reference the position arrays are checked against: the
// {tid, id} and {tid, pid} indexes as hash maps keyed by the packed pair,
// filled by a scan of the clustered relation with no assumption about how
// ids were assigned.
type mapIndex struct {
	id       map[int64]int32
	attrs    map[int64][]int32
	children map[int64][]int32
}

func pairKey(tid, id int32) int64 { return int64(tid)<<32 | int64(uint32(id)) }

func newMapIndex(s *Store) *mapIndex {
	m := &mapIndex{id: map[int64]int32{}, attrs: map[int64][]int32{}, children: map[int64][]int32{}}
	for i := int32(0); i < int32(s.Len()); i++ {
		r := s.Row(i)
		if r.IsAttr() {
			m.attrs[pairKey(r.TID, r.ID)] = append(m.attrs[pairKey(r.TID, r.ID)], i)
			continue
		}
		m.id[pairKey(r.TID, r.ID)] = i
		m.children[pairKey(r.TID, r.PID)] = append(m.children[pairKey(r.TID, r.PID)], i)
	}
	for _, kids := range m.children {
		sort.Slice(kids, func(a, b int) bool {
			ra, rb := s.Row(kids[a]), s.Row(kids[b])
			return ra.Left < rb.Left || (ra.Left == rb.Left && ra.Depth < rb.Depth)
		})
	}
	return m
}

// checkAgainstMaps compares every accessor behind the position arrays with
// the map reference, for every row of the store and for identities just
// outside it.
func checkAgainstMaps(t *testing.T, s *Store) {
	t.Helper()
	m := newMapIndex(s)
	if s.ElementCount() != len(m.id) {
		t.Fatalf("ElementCount = %d, reference has %d", s.ElementCount(), len(m.id))
	}
	parents := s.ParentRows()
	var minTID, maxTID, maxID int32
	for i := int32(0); i < int32(s.Len()); i++ {
		r := s.Row(i)
		if i == 0 || r.TID < minTID {
			minTID = r.TID
		}
		maxTID, maxID = max(maxTID, r.TID), max(maxID, r.ID)
		wantParent, ok := m.id[pairKey(r.TID, r.PID)]
		if !ok {
			wantParent = NoParent
		}
		if parents[i] != wantParent {
			t.Fatalf("ParentRows[%d] = %d, want %d", i, parents[i], wantParent)
		}
		if r.IsAttr() {
			if v, ok := s.AttrValue(i, r.Name[1:]); !ok || v != r.Value {
				t.Fatalf("AttrValue(%d, %s) = %q, %v, want %q", i, r.Name[1:], v, ok, r.Value)
			}
			continue
		}
		if got, ok := s.ElementByID(r.TID, r.ID); !ok || got != m.id[pairKey(r.TID, r.ID)] {
			t.Fatalf("ElementByID(%d, %d) = %d, %v, want %d", r.TID, r.ID, got, ok, m.id[pairKey(r.TID, r.ID)])
		}
		if got, want := s.Children(r.TID, r.ID), m.children[pairKey(r.TID, r.ID)]; !slices.Equal(got, want) {
			t.Fatalf("Children(%d, %d) = %v, want %v", r.TID, r.ID, got, want)
		}
		if got, want := s.Attrs(r.TID, r.ID), m.attrs[pairKey(r.TID, r.ID)]; !slices.Equal(got, want) {
			t.Fatalf("Attrs(%d, %d) = %v, want %v", r.TID, r.ID, got, want)
		}
		if _, ok := s.AttrValue(i, "nosuch"); ok {
			t.Fatalf("AttrValue(%d, nosuch) found", i)
		}
	}
	if s.Len() == 0 {
		return
	}
	// The virtual parent 0 has the root; identities around the store have
	// nothing.
	for tid := minTID; tid <= maxTID; tid++ {
		if got, want := s.Children(tid, 0), m.children[pairKey(tid, 0)]; !slices.Equal(got, want) {
			t.Fatalf("Children(%d, 0) = %v, want %v", tid, got, want)
		}
	}
	for _, miss := range [][2]int32{{minTID - 1, 1}, {maxTID + 1, 1}, {minTID, 0}, {minTID, -1}, {minTID, maxID + 1}, {-1 << 31, 1}, {1<<31 - 1, 1<<31 - 1}} {
		if ri, ok := s.ElementByID(miss[0], miss[1]); ok {
			t.Fatalf("ElementByID(%d, %d) = %d, want a miss", miss[0], miss[1], ri)
		}
		if miss[1] != 0 && len(s.Children(miss[0], miss[1])) != 0 {
			t.Fatalf("Children(%d, %d) non-empty", miss[0], miss[1])
		}
		if len(s.Attrs(miss[0], miss[1])) != 0 {
			t.Fatalf("Attrs(%d, %d) non-empty", miss[0], miss[1])
		}
	}
}

// TestPositionArraysAgreeWithMaps is the property behind the array-indexed
// store: over generated corpora, both labeling schemes and stores whose first
// tree id is not 1, every position-array accessor answers what a hash index
// over the same rows answers, NodeFor hands back the caller's own nodes on a
// built store, and the store assembled from the same parts agrees with both
// while building its trees itself.
func TestPositionArraysAgreeWithMaps(t *testing.T) {
	corpora := map[string]*tree.Corpus{
		"wsj":    corpus.Generate(corpus.Config{Profile: corpus.WSJ, Scale: 0.003, Seed: 7}),
		"swb":    corpus.Generate(corpus.Config{Profile: corpus.SWB, Scale: 0.003, Seed: 8}),
		"random": randomShardCorpus(99, 40),
	}
	// An attribute besides @lex, so an element's attribute list has an order.
	corpora["random"].Trees[3].Root.SetAttr("func", "SBJ")
	corpora["random"].Trees[3].Root.LeftmostLeaf().SetAttr("case", "nom")
	for name, c := range corpora {
		for _, scheme := range []Scheme{SchemeInterval, SchemeStartEnd} {
			for _, k := range []int{1, 3, 7} {
				// k stores over contiguous tree slices: each but the first has
				// a tid offset, as the trees keep their corpus-wide ids.
				for si := 0; si < k; si++ {
					part := &tree.Corpus{Trees: c.Trees[si*c.Len()/k : (si+1)*c.Len()/k]}
					sh := Build(part, scheme)
					t.Run(fmt.Sprintf("%s/%v/k%d/shard%d", name, scheme, k, si), func(t *testing.T) {
						if want := int32(part.Trees[0].ID); sh.firstTID != want {
							t.Fatalf("firstTID = %d, want %d", sh.firstTID, want)
						}
						checkAgainstMaps(t, sh)
						loaded, err := Assemble(sh.Parts())
						if err != nil {
							t.Fatal(err)
						}
						checkAgainstMaps(t, loaded)
						if n := loaded.TreesBuilt(); n != 0 {
							t.Fatalf("assembling built %d trees", n)
						}
						// Node identity: ids are preorder, so node id of tree
						// tid is the (id-1)-th node of the caller's tree.
						for _, ri := range sh.ElementsByLeft() {
							r := sh.Row(ri)
							want := c.Trees[int(r.TID)-c.Trees[0].ID].Nodes()[r.ID-1]
							if got := sh.NodeFor(ri); got != want {
								t.Fatalf("NodeFor(%d, %d) = %p, want the caller's node %p", r.TID, r.ID, got, want)
							}
							got := loaded.NodeFor(ri)
							if got == nil || got == want || got.String() != want.String() || got != loaded.NodeFor(ri) {
								t.Fatalf("assembled NodeFor(%d, %d) = %v, want a stable copy of %v", r.TID, r.ID, got, want)
							}
							if (got.Parent == nil) != (want.Parent == nil) || got.ChildIndex() != want.ChildIndex() {
								t.Fatalf("assembled node (%d, %d) hangs elsewhere in its tree", r.TID, r.ID)
							}
						}
						if got, want := loaded.TreesBuilt(), sh.TreeCount(); got != want {
							t.Fatalf("%d trees built after visiting every node, want %d", got, want)
						}
					})
				}
			}
		}
	}
}

// TestStoreTreesStreamsWithoutKeeping pins the contract Corpus.Stats rests
// on: Trees yields every tree, in order, equal to the source, and an
// assembled store keeps none of them — while a tree NodeFor already
// published is the one yielded.
func TestStoreTreesStreamsWithoutKeeping(t *testing.T) {
	c := randomShardCorpus(5, 12)
	loaded, err := Assemble(Build(c, SchemeInterval).Parts())
	if err != nil {
		t.Fatal(err)
	}
	pinned := loaded.NodeFor(loaded.Roots()[4])
	i := 0
	for tr := range loaded.Trees() {
		if tr.ID != c.Trees[i].ID || tr.Root.String() != c.Trees[i].Root.String() {
			t.Fatalf("tree %d = %d %s, want %d %s", i, tr.ID, tr.Root, c.Trees[i].ID, c.Trees[i].Root)
		}
		if (tr.Root == pinned) != (i == 4) {
			t.Fatalf("tree %d: root identity with the published tree = %v", i, tr.Root == pinned)
		}
		i++
	}
	if i != c.Len() || loaded.TreesBuilt() != 1 {
		t.Fatalf("streamed %d trees keeping %d, want %d keeping 1", i, loaded.TreesBuilt(), c.Len())
	}
	if f := loaded.Forest(); f.Len() != c.Len() || f.Trees[4].Root != pinned || loaded.TreesBuilt() != c.Len() {
		t.Fatalf("Forest: %d trees, %d built", f.Len(), loaded.TreesBuilt())
	}
}
