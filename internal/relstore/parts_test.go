package relstore

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lpath/internal/tree"
)

// assembleRoundTrip flattens a built store and reassembles it, failing the
// test on any validation error.
func assembleRoundTrip(t *testing.T, c *tree.Corpus, scheme Scheme) (*Store, *Store) {
	t.Helper()
	orig := Build(c, scheme)
	loaded, err := Assemble(orig.Parts())
	if err != nil {
		t.Fatal(err)
	}
	return orig, loaded
}

// checkAccessorsEqual compares what the position arrays answer on the two
// stores, element by element: identity, children, attributes, parents and
// the node behind each row.
func checkAccessorsEqual(t *testing.T, orig, loaded *Store) {
	t.Helper()
	if !reflect.DeepEqual(loaded.ParentRows(), orig.ParentRows()) {
		t.Error("ParentRows differ")
	}
	if loaded.ElementCount() != orig.ElementCount() {
		t.Errorf("ElementCount = %d, want %d", loaded.ElementCount(), orig.ElementCount())
	}
	for _, ri := range orig.ElementsByLeft() {
		r := orig.Row(ri)
		if got, ok := loaded.ElementByID(r.TID, r.ID); !ok || got != ri {
			t.Errorf("ElementByID(%d, %d) = %d, %v, want %d", r.TID, r.ID, got, ok, ri)
		}
		if got, want := loaded.Children(r.TID, r.ID), orig.Children(r.TID, r.ID); !slices.Equal(got, want) {
			t.Errorf("Children(%d, %d) = %v, want %v", r.TID, r.ID, got, want)
		}
		if got, want := loaded.Attrs(r.TID, r.ID), orig.Attrs(r.TID, r.ID); !slices.Equal(got, want) {
			t.Errorf("Attrs(%d, %d) = %v, want %v", r.TID, r.ID, got, want)
		}
		if got, want := loaded.NodeFor(ri), orig.NodeFor(ri); got == nil || got.String() != want.String() {
			t.Errorf("NodeFor(%d, %d) = %v, want %v", r.TID, r.ID, got, want)
		}
	}
}

// checkStoreEqual compares every index structure the engine reads, including
// the unexported ones a black-box test cannot reach.
func checkStoreEqual(t *testing.T, orig, loaded *Store) {
	t.Helper()
	if loaded.scheme != orig.scheme || loaded.treeCount != orig.treeCount {
		t.Fatalf("scheme/treeCount = %v/%d, want %v/%d",
			loaded.scheme, loaded.treeCount, orig.scheme, orig.treeCount)
	}
	if !reflect.DeepEqual(loaded.parts, orig.parts) {
		t.Error("parts differ")
	}
	if !reflect.DeepEqual(loaded.attrVal, orig.attrVal) {
		t.Error("attribute value ids differ")
	}
	if !reflect.DeepEqual(loaded.cols, orig.cols) {
		t.Error("cols differ")
	}
	if !reflect.DeepEqual(loaded.rowSeq, orig.rowSeq) {
		t.Error("rowSeq differs")
	}
	if !reflect.DeepEqual(loaded.nameIdx, orig.nameIdx) {
		t.Error("nameIdx differs")
	}
	if !reflect.DeepEqual(loaded.valueIdx, orig.valueIdx) {
		t.Error("valueIdx differs")
	}
	checkAccessorsEqual(t, orig, loaded)
	if !reflect.DeepEqual(loaded.rootRows, orig.rootRows) {
		t.Error("rootRows differ")
	}
	if !reflect.DeepEqual(loaded.elemsByLeft, orig.elemsByLeft) {
		t.Error("elemsByLeft differs")
	}
	if !reflect.DeepEqual(loaded.pairs, orig.pairs) {
		t.Error("tag-pair summaries differ")
	}
}

func TestPartsRoundTrip(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP-SBJ (-NONE- *T*-1)) (VP (VBD saw)))`))
	// A unary same-name chain: document order is only total with the depth
	// tiebreak, which the snapshot layer depends on.
	c.Add(tree.MustParseTree(`(NP (NP (NP x)))`))
	orig, loaded := assembleRoundTrip(t, c, SchemeInterval)
	checkStoreEqual(t, orig, loaded)

	// Reconstructed trees match the originals structurally.
	corpus := loaded.Forest()
	if corpus.Len() != c.Len() {
		t.Fatalf("corpus len = %d", corpus.Len())
	}
	for i := range c.Trees {
		if got, want := corpus.Trees[i].Root.String(), c.Trees[i].Root.String(); got != want {
			t.Errorf("tree %d:\n got %s\nwant %s", i+1, got, want)
		}
		if corpus.Trees[i].ID != c.Trees[i].ID {
			t.Errorf("tree %d id = %d", i, corpus.Trees[i].ID)
		}
	}
	if err := corpus.Validate(); err != nil {
		t.Error(err)
	}
	// NodeFor maps into the reconstructed trees.
	saw := loaded.ByValue("saw")
	if len(saw) != 2 {
		t.Fatalf("ByValue(saw) = %d", len(saw))
	}
	for _, ri := range saw {
		if n := loaded.NodeFor(ri); n == nil || n.Word != "saw" {
			t.Errorf("NodeFor = %v", n)
		}
	}
}

func TestPartsStartEndScheme(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	orig, loaded := assembleRoundTrip(t, c, SchemeStartEnd)
	checkStoreEqual(t, orig, loaded)
}

// TestPartsTIDGaps: a corpus whose tree ids leave gaps — a filtered corpus
// keeps its ids, and no tree has id 1 — builds, and its own parts assemble
// into the same store.
func TestPartsTIDGaps(t *testing.T) {
	c := tree.NewCorpus()
	for range 6 {
		c.Add(tree.Figure1())
	}
	gappy := &tree.Corpus{Trees: []*tree.Tree{c.Trees[1], c.Trees[2], c.Trees[4]}} // ids 2, 3, 5
	orig, loaded := assembleRoundTrip(t, gappy, SchemeInterval)
	checkStoreEqual(t, orig, loaded)
}

func TestPartsEmpty(t *testing.T) {
	_, loaded := assembleRoundTrip(t, tree.NewCorpus(), SchemeInterval)
	if loaded.Len() != 0 || loaded.Forest().Len() != 0 {
		t.Errorf("empty store: %d rows, %d trees", loaded.Len(), loaded.Forest().Len())
	}
}

// cloneParts deep-copies parts so corruption tests can mutate freely (Parts
// aliases store internals).
func cloneParts(p *Parts) *Parts {
	q := *p
	q.Names = append([]string(nil), p.Names...)
	q.NameStarts = append([]int32(nil), p.NameStarts...)
	q.Values = append([]string(nil), p.Values...)
	q.ValueStarts = append([]int32(nil), p.ValueStarts...)
	q.ValuePost = append([]int32(nil), p.ValuePost...)
	q.Cols = Cols{
		TID:   append([]int32(nil), p.Cols.TID...),
		Left:  append([]int32(nil), p.Cols.Left...),
		Right: append([]int32(nil), p.Cols.Right...),
		Depth: append([]int32(nil), p.Cols.Depth...),
		ID:    append([]int32(nil), p.Cols.ID...),
		PID:   append([]int32(nil), p.Cols.PID...),
	}
	q.ElemsByLeft = append([]int32(nil), p.ElemsByLeft...)
	q.Stats.DepthHist = append([]int64(nil), p.Stats.DepthHist...)
	q.Stats.NameFanout = append([]float64(nil), p.Stats.NameFanout...)
	q.Stats.NameSpan = append([]float64(nil), p.Stats.NameSpan...)
	return &q
}

// lastAttrRow is the last row of the last attribute name: the attribute with
// the greatest (tid, left), so relabeling it upwards keeps every shipped
// order intact and only its owner goes missing.
func lastAttrRow(p *Parts) int32 {
	for i := len(p.Names) - 1; i >= 0; i-- {
		if p.Names[i][0] == '@' {
			return p.NameStarts[i+1] - 1
		}
	}
	panic("no attribute rows")
}

func TestAssembleRejectsCorruptParts(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP (Det the) (N cat)) (VP (V sat)))`))
	base := Build(c, SchemeInterval).Parts()
	if _, err := Assemble(cloneParts(base)); err != nil {
		t.Fatalf("pristine parts rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(p *Parts)
	}{
		{"nil parts is rejected upstream", nil},
		{"bad scheme", func(p *Parts) { p.Scheme = Scheme(9) }},
		{"negative tree count", func(p *Parts) { p.TreeCount = -1 }},
		{"short column", func(p *Parts) { p.Cols.PID = p.Cols.PID[:len(p.Cols.PID)-1] }},
		{"name starts length", func(p *Parts) { p.NameStarts = p.NameStarts[:len(p.NameStarts)-1] }},
		{"names unsorted", func(p *Parts) { p.Names[0], p.Names[1] = p.Names[1], p.Names[0] }},
		{"empty name", func(p *Parts) { p.Names[0] = "" }},
		{"rows misordered", func(p *Parts) {
			// Swap two rows inside the first name range (Figure1 has several
			// NP rows) by swapping their columns.
			i, j := int(p.NameStarts[0]), int(p.NameStarts[0])+1
			for _, col := range [][]int32{p.Cols.TID, p.Cols.Left, p.Cols.Right, p.Cols.Depth, p.Cols.ID, p.Cols.PID} {
				col[i], col[j] = col[j], col[i]
			}
		}},
		{"value posting out of range", func(p *Parts) { p.ValuePost[0] = int32(len(p.Cols.TID)) }},
		{"value posting on element", func(p *Parts) { p.ValuePost[0] = p.ElemsByLeft[0] }},
		{"elems-by-left repeats", func(p *Parts) { p.ElemsByLeft[1] = p.ElemsByLeft[0] }},
		// The position arrays index by (tid, id): every way an identity can
		// fail to be a dense preorder number, or name something that is not
		// there, must stop here and not at an out-of-range index later.
		{"id out of range", func(p *Parts) { p.Cols.ID[p.ElemsByLeft[3]] = 1000 }},
		{"id zero", func(p *Parts) { p.Cols.ID[p.ElemsByLeft[3]] = 0 }},
		{"ids out of preorder", func(p *Parts) {
			a, b := p.ElemsByLeft[2], p.ElemsByLeft[3]
			p.Cols.ID[a], p.Cols.ID[b] = p.Cols.ID[b], p.Cols.ID[a]
		}},
		{"duplicate identity", func(p *Parts) { p.Cols.ID[p.ElemsByLeft[3]] = p.Cols.ID[p.ElemsByLeft[2]] }},
		{"unknown parent", func(p *Parts) { p.Cols.PID[p.ElemsByLeft[3]] = 1000 }},
		{"parent not before child", func(p *Parts) { p.Cols.PID[p.ElemsByLeft[3]] = p.Cols.ID[p.ElemsByLeft[3]] }},
		{"second root", func(p *Parts) { p.Cols.PID[p.ElemsByLeft[3]] = 0 }},
		{"root with a parent", func(p *Parts) { p.Cols.PID[p.ElemsByLeft[0]] = 1 }},
		{"orphan attribute: no such tree", func(p *Parts) { p.Cols.TID[lastAttrRow(p)] = 3 }},
		{"orphan attribute: no such id", func(p *Parts) { p.Cols.ID[lastAttrRow(p)] = 1000 }},
		{"more trees than the tree count", func(p *Parts) { p.TreeCount = 1 }},
		{"element count mismatch", func(p *Parts) { p.Stats.Elements++ }},
		{"histogram mismatch", func(p *Parts) { p.Stats.DepthHist[0]++ }},
		{"histogram length", func(p *Parts) { p.Stats.MaxDepth++ }},
		{"fanout length", func(p *Parts) { p.Stats.NameFanout = p.Stats.NameFanout[:1] }},
		// The planner computes with the block as is: no average may be
		// NaN, infinite or negative, and no span negative.
		{"fanout NaN", func(p *Parts) { p.Stats.NameFanout[1] = math.NaN() }},
		{"fanout negative", func(p *Parts) { p.Stats.NameFanout[1] = -1 }},
		{"span infinite", func(p *Parts) { p.Stats.NameSpan[1] = math.Inf(1) }},
		{"span NaN", func(p *Parts) { p.Stats.NameSpan[0] = math.NaN() }},
		{"average depth infinite", func(p *Parts) { p.Stats.AvgDepth = math.Inf(1) }},
		{"average depth negative", func(p *Parts) { p.Stats.AvgDepth = -2 }},
		{"total span negative", func(p *Parts) { p.Stats.TotalSpan = -9 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.mutate == nil {
				if _, err := Assemble(nil); err == nil {
					t.Fatal("Assemble(nil) succeeded")
				}
				return
			}
			p := cloneParts(base)
			tc.mutate(p)
			if _, err := Assemble(p); err == nil {
				t.Fatal("corrupt parts accepted")
			} else if !strings.HasPrefix(err.Error(), "relstore: corrupt parts: ") {
				t.Fatalf("err = %v, want a corrupt-parts error", err)
			}
		})
	}
}

// TestAssembleBoundsTIDSpan: tree ids may leave gaps, but a snapshot whose
// ids spread wider than its elements is refused, so the per-tree arrays stay
// proportional to the relation however the ids are forged.
func TestAssembleBoundsTIDSpan(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP (Det the) (N cat)) (VP (V sat)))`))
	p := cloneParts(Build(c, SchemeInterval).Parts())
	for i, tid := range p.Cols.TID {
		if tid == 2 {
			p.Cols.TID[i] = 1 << 30 // every order still holds
		}
	}
	if _, err := Assemble(p); err == nil || !strings.Contains(err.Error(), "tree ids span") {
		t.Fatalf("err = %v, want the span refused", err)
	}
}
