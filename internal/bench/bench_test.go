package bench

import (
	"strings"
	"testing"

	"lpath/internal/corpus"
)

func testSystems(t *testing.T) (*Systems, *Systems) {
	t.Helper()
	wsj := GenerateTrees(corpus.WSJ, 0.004, 21)
	swb := GenerateTrees(corpus.SWB, 0.004, 21)
	ws, err := BuildSystems(wsj)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := BuildSystems(swb)
	if err != nil {
		t.Fatal(err)
	}
	return ws, ss
}

func TestBuildSystemsCompilesEverything(t *testing.T) {
	ws, _ := testSystems(t)
	if got := len(ws.QueryIDs()); got != 23 {
		t.Fatalf("query ids = %d", got)
	}
	nx := 0
	for _, id := range ws.QueryIDs() {
		if ws.XPathExpressible(id) {
			nx++
		}
		if ws.QueryText(id) == "" {
			t.Errorf("Q%d has no text", id)
		}
	}
	if nx != 11 {
		t.Errorf("XPath-expressible = %d", nx)
	}
	if ws.QueryText(99) != "" {
		t.Error("unknown id should have empty text")
	}
}

// TestAllSystemsRunAllQueries is the integration smoke test: every system
// answers its dialect of every query without error.
func TestAllSystemsRunAllQueries(t *testing.T) {
	ws, ss := testSystems(t)
	for _, s := range []*Systems{ws, ss} {
		for _, id := range s.QueryIDs() {
			if _, err := s.RunLPath(id); err != nil {
				t.Errorf("Q%d lpath: %v", id, err)
			}
			if _, err := s.RunLPathNoValueIndex(id); err != nil {
				t.Errorf("Q%d lpath-noval: %v", id, err)
			}
			_ = s.RunTGrep(id)
			if _, err := s.RunCS(id); err != nil {
				t.Errorf("Q%d corpussearch: %v", id, err)
			}
			if s.XPathExpressible(id) {
				if _, err := s.RunXPath(id); err != nil {
					t.Errorf("Q%d xpath: %v", id, err)
				}
			} else if _, err := s.RunXPath(id); err == nil {
				t.Errorf("Q%d xpath should be inexpressible", id)
			}
		}
	}
}

// TestValueIndexAblationAgrees checks the ablated engine returns identical
// result sizes.
func TestValueIndexAblationAgrees(t *testing.T) {
	ws, _ := testSystems(t)
	for _, id := range ws.QueryIDs() {
		a, err := ws.RunLPath(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ws.RunLPathNoValueIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("Q%d: value index changes results: %d vs %d", id, a, b)
		}
	}
}

// TestXPathSchemeAgrees checks the two labeling schemes return the same
// result sizes on the shared 11 queries (the Figure 10 precondition).
func TestXPathSchemeAgrees(t *testing.T) {
	ws, ss := testSystems(t)
	for _, s := range []*Systems{ws, ss} {
		for _, id := range s.QueryIDs() {
			if !s.XPathExpressible(id) {
				continue
			}
			a, err := s.RunLPath(id)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.RunXPath(id)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("Q%d: labeling schemes disagree: %d vs %d", id, a, b)
			}
		}
	}
}

func TestFig6Tables(t *testing.T) {
	ws, ss := testSystems(t)
	stats := Fig6a(ws.Trees, ss.Trees)
	if len(stats) != 2 || stats[0].Stats.TreeNodes == 0 {
		t.Fatalf("Fig6a = %+v", stats)
	}
	wt, st := Fig6b(ws.Trees, ss.Trees, 10)
	if len(wt) != 10 || len(st) != 10 {
		t.Fatalf("Fig6b lengths = %d, %d", len(wt), len(st))
	}
	if wt[0].Tag != "NP" {
		t.Errorf("WSJ top tag = %s, want NP", wt[0].Tag)
	}
	if st[0].Tag != "-DFL-" {
		t.Errorf("SWB top tag = %s, want -DFL-", st[0].Tag)
	}
	rows, err := Fig6c(ws, ss)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 23 {
		t.Fatalf("Fig6c rows = %d", len(rows))
	}
	byID := map[int]ResultSize{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	// Figure 6(c) asymmetries: rapprochement/1929/ADVP-LOC-CLR hit only WSJ.
	for _, id := range []int{12, 13, 14} {
		if byID[id].SWB != 0 {
			t.Errorf("Q%d SWB = %d, want 0", id, byID[id].SWB)
		}
		if byID[id].WSJ == 0 {
			t.Errorf("Q%d WSJ = 0, want > 0", id)
		}
	}
	var sb strings.Builder
	WriteFig6a(&sb, stats)
	WriteFig6b(&sb, wt, st)
	WriteFig6c(&sb, rows)
	for _, frag := range []string{"Tree Nodes", "Top 10", "Q12"} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("table output missing %q", frag)
		}
	}
}

func TestFig7TimingAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	ws, _ := testSystems(t)
	rows, err := Fig7or8(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 23 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.LPath <= 0 || r.TGrep <= 0 || r.CS <= 0 {
			t.Errorf("Q%d has zero timing: %+v", r.ID, r)
		}
	}
	var sb strings.Builder
	WriteFig7or8(&sb, "Figure 7 (WSJ)", rows)
	if !strings.Contains(sb.String(), "TGrep2") {
		t.Error("missing header")
	}
	csv := CSVFig7or8(rows)
	if strings.Count(csv, "\n") != 24 {
		t.Errorf("csv lines = %d", strings.Count(csv, "\n"))
	}
}

func TestFig9ReplicationAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	base := GenerateTrees(corpus.WSJ, 0.002, 5)
	curves, err := Fig9(base, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range Fig9Queries {
		pts := curves[id]
		if len(pts) != 2 {
			t.Fatalf("Q%d points = %d", id, len(pts))
		}
		if pts[1].Nodes <= pts[0].Nodes {
			t.Errorf("Q%d: replication did not grow the corpus", id)
		}
	}
	var sb strings.Builder
	WriteFig9(&sb, curves)
	if !strings.Contains(sb.String(), "factor") {
		t.Error("missing header")
	}
	if csv := CSVFig9(curves); strings.Count(csv, "\n") != 1+2*len(Fig9Queries) {
		t.Errorf("csv lines = %d", strings.Count(csv, "\n"))
	}
}

func TestFig10AndAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	ws, _ := testSystems(t)
	rows, err := Fig10(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("Fig10 rows = %d", len(rows))
	}
	var sb strings.Builder
	WriteFig10(&sb, rows)
	if !strings.Contains(sb.String(), "XPath") {
		t.Error("missing header")
	}
	if csv := CSVFig10(rows); strings.Count(csv, "\n") != 12 {
		t.Errorf("csv lines = %d", strings.Count(csv, "\n"))
	}
	ab, err := Ablations(ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != 5 {
		t.Fatalf("ablations = %d", len(ab))
	}
	WriteAblations(&sb, ab)
}

func TestReplicateFractional(t *testing.T) {
	base := GenerateTrees(corpus.WSJ, 0.001, 5)
	half := Replicate(base, 0.5)
	double := Replicate(base, 2)
	if half.Len() != (base.Len()+1)/2 && half.Len() != base.Len()/2 {
		t.Errorf("half = %d of %d", half.Len(), base.Len())
	}
	if double.Len() != 2*base.Len() {
		t.Errorf("double = %d of %d", double.Len(), base.Len())
	}
	// Tree IDs must be re-assigned densely.
	for i, tr := range double.Trees {
		if tr.ID != i+1 {
			t.Fatalf("tree %d has id %d", i, tr.ID)
		}
	}
}

func TestTimeItTrimmedMean(t *testing.T) {
	n := 0
	d := TimeIt(func() { n++ })
	if n != Reps {
		t.Errorf("f ran %d times, want %d", n, Reps)
	}
	if d < 0 {
		t.Errorf("negative duration %v", d)
	}
}
