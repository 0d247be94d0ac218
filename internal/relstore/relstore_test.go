package relstore

import (
	"slices"
	"testing"

	"lpath/internal/tree"
)

func figureStore(t *testing.T, scheme Scheme) *Store {
	t.Helper()
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	return Build(c, scheme)
}

func TestBuildFigure1(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	// 15 element rows + 9 attribute rows (@lex on each preterminal).
	if got := s.Len(); got != 24 {
		t.Errorf("Len = %d, want 24", got)
	}
	if got := s.ElementCount(); got != 15 {
		t.Errorf("ElementCount = %d, want 15", got)
	}
	if got := s.TreeCount(); got != 1 {
		t.Errorf("TreeCount = %d, want 1", got)
	}
	if s.Scheme() != SchemeInterval {
		t.Errorf("Scheme = %v", s.Scheme())
	}
}

func TestClusteredOrder(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	for i := 1; i < s.Len(); i++ {
		a, b := s.Row(int32(i-1)), s.Row(int32(i))
		if a.Name > b.Name {
			t.Fatalf("rows %d,%d out of name order: %q > %q", i-1, i, a.Name, b.Name)
		}
		if a.Name == b.Name && (a.TID > b.TID || (a.TID == b.TID && a.Left > b.Left)) {
			t.Fatalf("rows %d,%d out of (tid,left) order", i-1, i)
		}
	}
}

func TestNameScan(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	nps := nameRows(s, "NP")
	if len(nps) != 4 {
		t.Fatalf("NP rows = %d, want 4", len(nps))
	}
	for _, r := range nps {
		if r.Name != "NP" || r.IsAttr() {
			t.Errorf("unexpected row %+v", r)
		}
	}
	if got := s.NameCount("NP"); got != 4 {
		t.Errorf("NameCount(NP) = %d", got)
	}
	if got := s.NameCount("ZZZ"); got != 0 {
		t.Errorf("NameCount(ZZZ) = %d", got)
	}
	if _, _, ok := s.NameRange("ZZZ"); ok {
		t.Error("NameRange(ZZZ) found")
	}
	lex := nameRows(s, "@lex")
	if len(lex) != 9 {
		t.Fatalf("@lex rows = %d, want 9", len(lex))
	}
	for _, r := range lex {
		if !r.IsAttr() || r.Value == "" {
			t.Errorf("attribute row without value: %+v", r)
		}
	}
	names := slices.DeleteFunc(slices.Clone(s.Parts().Names), func(n string) bool { return n[0] == '@' })
	want := []string{"Adj", "Det", "N", "NP", "PP", "Prep", "S", "V", "VP"}
	if len(names) != len(want) {
		t.Fatalf("Names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("Names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

// TestFigure5AttributeRows checks that attribute rows copy their element's
// label, as in Figure 5 of the paper.
func TestFigure5AttributeRows(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	for _, r := range nameRows(s, "@lex") {
		ei, ok := s.ElementByID(r.TID, r.ID)
		if !ok {
			t.Fatalf("attribute row %+v has no element", r)
		}
		e := s.Row(ei)
		if e.Left != r.Left || e.Right != r.Right || e.Depth != r.Depth || e.PID != r.PID {
			t.Errorf("attribute label %+v differs from element %+v", r, e)
		}
	}
	// Spot-check the V row: (2, 3, 3) with @lex saw.
	v, ok := s.AttrValue(findRow(t, s, "V"), "lex")
	if !ok || v != "saw" {
		t.Errorf("V @lex = %q, %v", v, ok)
	}
}

// nameRows returns the rows clustered under a name.
func nameRows(s *Store, name string) []Row {
	lo, hi, _ := s.NameRange(name)
	var rows []Row
	for i := lo; i < hi; i++ {
		rows = append(rows, s.Row(i))
	}
	return rows
}

// findRow returns the first row clustered under a name.
func findRow(t *testing.T, s *Store, name string) int32 {
	t.Helper()
	lo, hi, _ := s.NameRange(name)
	if lo == hi {
		t.Fatalf("no rows named %q", name)
	}
	return lo
}

func TestValueIndex(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	idxs := s.ByValue("saw")
	if len(idxs) != 1 {
		t.Fatalf("ByValue(saw) = %d rows", len(idxs))
	}
	r := s.Row(idxs[0])
	if r.Name != "@lex" || r.Value != "saw" {
		t.Errorf("row = %+v", r)
	}
	n := s.NodeFor(idxs[0])
	if n == nil || n.Tag != "V" {
		t.Errorf("NodeFor = %v", n)
	}
	if got := s.ByValue("absent-word"); got != nil {
		t.Errorf("ByValue(absent) = %v", got)
	}
}

func TestChildAndRootIndexes(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	roots := s.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d", len(roots))
	}
	root := s.Row(roots[0])
	if root.Name != "S" || root.PID != 0 {
		t.Errorf("root row = %+v", root)
	}
	kids := s.Children(root.TID, root.ID)
	if len(kids) != 3 {
		t.Fatalf("root children = %d", len(kids))
	}
	wantTags := []string{"NP", "VP", "N"}
	for i, ki := range kids {
		if got := s.Row(ki).Name; got != wantTags[i] {
			t.Errorf("child %d = %q, want %q", i, got, wantTags[i])
		}
	}
	// Children come back in left-to-right order.
	for i := 1; i < len(kids); i++ {
		if s.Row(kids[i-1]).Left > s.Row(kids[i]).Left {
			t.Error("children out of order")
		}
	}
	// Virtual-root children (pid 0) are the roots.
	vkids := s.Children(root.TID, 0)
	if len(vkids) != 1 || s.Row(vkids[0]).Name != "S" {
		t.Errorf("children of pid 0 = %v", vkids)
	}
}

func TestMultiTreeStore(t *testing.T) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP you) (VP (V saw) (NP (Det a) (N cat))))`))
	s := Build(c, SchemeInterval)
	if s.TreeCount() != 2 {
		t.Fatalf("TreeCount = %d", s.TreeCount())
	}
	if got := len(s.Roots()); got != 2 {
		t.Fatalf("roots = %d", got)
	}
	if s.Row(s.Roots()[0]).TID != 1 || s.Row(s.Roots()[1]).TID != 2 {
		t.Error("roots not ordered by tid")
	}
	// "saw" occurs in both trees.
	if got := len(s.ByValue("saw")); got != 2 {
		t.Errorf("ByValue(saw) = %d, want 2", got)
	}
	// Name scans are (tid, left) ordered across trees.
	nps := nameRows(s, "NP")
	for i := 1; i < len(nps); i++ {
		if nps[i-1].TID > nps[i].TID {
			t.Fatal("name scan out of tid order")
		}
	}
}

func TestStartEndScheme(t *testing.T) {
	s := figureStore(t, SchemeStartEnd)
	if s.Scheme() != SchemeStartEnd {
		t.Fatalf("scheme = %v", s.Scheme())
	}
	// Under start/end labels, containment characterizes descendants without
	// needing depth: parent.start < child.start && child.end < parent.end.
	root := s.Row(s.Roots()[0])
	for _, ri := range s.ElementsByLeft() {
		if r := s.Row(ri); r.ID != root.ID && !(root.Left < r.Left && r.Right < root.Right) {
			t.Errorf("node %s (%d,%d) not contained in root (%d,%d)",
				r.Name, r.Left, r.Right, root.Left, root.Right)
		}
	}
	// Start/end positions are all distinct: 2 per element node.
	seen := map[int32]bool{}
	for _, ri := range s.ElementsByLeft() {
		r := s.Row(ri)
		if seen[r.Left] || seen[r.Right] {
			t.Fatalf("duplicate position in start/end labels: %+v", r)
		}
		seen[r.Left], seen[r.Right] = true, true
	}
	if len(seen) != 2*s.ElementCount() {
		t.Errorf("positions = %d, want %d", len(seen), 2*s.ElementCount())
	}
}

func TestEmptyCorpus(t *testing.T) {
	s := Build(tree.NewCorpus(), SchemeInterval)
	if s.Len() != 0 || s.TreeCount() != 0 {
		t.Errorf("empty corpus store: len=%d trees=%d", s.Len(), s.TreeCount())
	}
	if names := s.Parts().Names; len(names) != 0 {
		t.Errorf("Names = %v", names)
	}
}

func TestAttrsLookup(t *testing.T) {
	s := figureStore(t, SchemeInterval)
	v := findRow(t, s, "V")
	attrs := s.Attrs(1, s.Row(v).ID)
	if len(attrs) != 1 {
		t.Fatalf("Attrs(V) = %d", len(attrs))
	}
	if s.Row(attrs[0]).Value != "saw" {
		t.Errorf("V attr = %+v", s.Row(attrs[0]))
	}
	if _, ok := s.AttrValue(v, "pos"); ok {
		t.Error("AttrValue(@pos) should be absent")
	}
	// Phrasal node has no attributes.
	if got := s.Attrs(1, s.Row(findRow(t, s, "S")).ID); len(got) != 0 {
		t.Errorf("Attrs(S) = %v", got)
	}
}
