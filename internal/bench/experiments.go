package bench

import (
	"fmt"
	"sort"
	"time"

	"lpath/internal/corpus"
	"lpath/internal/lpath"
	"lpath/internal/tree"
)

// Reps is the measurement protocol of Section 5.1: every timing is repeated
// Reps times and the reported value is the mean after discarding the
// maximum and minimum.
const Reps = 7

// TimeIt measures f under the paper's protocol and returns the trimmed mean.
func TimeIt(f func()) time.Duration {
	times := make([]time.Duration, Reps)
	for i := range times {
		start := time.Now()
		f()
		times[i] = time.Since(start)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	var total time.Duration
	for _, d := range times[1 : len(times)-1] {
		total += d
	}
	return total / time.Duration(len(times)-2)
}

// DatasetStats is one row of Figure 6(a).
type DatasetStats struct {
	Name  string
	Stats corpus.Stats
}

// Fig6a measures dataset characteristics for both corpora.
func Fig6a(wsj, swb *tree.Corpus) []DatasetStats {
	return []DatasetStats{
		{"WSJ", corpus.Measure(wsj)},
		{"SWB", corpus.Measure(swb)},
	}
}

// Fig6b returns the top-k tag frequencies per corpus (Figure 6(b)).
func Fig6b(wsj, swb *tree.Corpus, k int) (wsjTags, swbTags []tree.TagFreq) {
	return wsj.TopTags(k), swb.TopTags(k)
}

// ResultSize is one row of Figure 6(c): the result size of a query on both
// datasets.
type ResultSize struct {
	ID       int
	Query    string
	WSJ, SWB int
}

// Fig6c evaluates every query on both corpora with the LPath engine.
func Fig6c(wsj, swb *Systems) ([]ResultSize, error) {
	var out []ResultSize
	for _, id := range wsj.QueryIDs() {
		w, err := wsj.RunLPath(id)
		if err != nil {
			return nil, fmt.Errorf("Q%d wsj: %w", id, err)
		}
		s, err := swb.RunLPath(id)
		if err != nil {
			return nil, fmt.Errorf("Q%d swb: %w", id, err)
		}
		out = append(out, ResultSize{ID: id, Query: wsj.QueryText(id), WSJ: w, SWB: s})
	}
	return out, nil
}

// SystemTiming is one query's timings across the three systems (Figures
// 7–8): LPath engine, TGrep2 and CorpusSearch.
type SystemTiming struct {
	ID    int
	Query string
	LPath time.Duration
	TGrep time.Duration
	CS    time.Duration
	// Result sizes, for sanity reporting.
	NLPath, NTGrep, NCS int
}

// Fig7or8 times every query on every system over one corpus (Figure 7 for
// WSJ, Figure 8 for SWB).
func Fig7or8(s *Systems) ([]SystemTiming, error) {
	var out []SystemTiming
	for _, id := range s.QueryIDs() {
		row := SystemTiming{ID: id, Query: s.QueryText(id)}
		var err error
		row.LPath = TimeIt(func() {
			var e error
			row.NLPath, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d lpath: %w", id, err)
		}
		row.TGrep = TimeIt(func() { row.NTGrep = s.RunTGrep(id) })
		row.CS = TimeIt(func() {
			var e error
			row.NCS, e = s.RunCS(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("Q%d corpussearch: %w", id, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// ScalePoint is one point of Figure 9: corpus size factor → per-system time
// for one query.
type ScalePoint struct {
	Factor float64
	Nodes  int
	LPath  time.Duration
	TGrep  time.Duration
	CS     time.Duration
}

// Fig9Queries are the representative queries of Figure 9.
var Fig9Queries = []int{3, 6, 11}

// Fig9 sweeps replication factors of the base corpus and times the three
// systems on the representative queries. The returned map is query id →
// curve.
func Fig9(base *tree.Corpus, factors []float64) (map[int][]ScalePoint, error) {
	out := map[int][]ScalePoint{}
	for _, f := range factors {
		rep := Replicate(base, f)
		sys, err := BuildSystems(rep)
		if err != nil {
			return nil, err
		}
		for _, id := range Fig9Queries {
			pt := ScalePoint{Factor: f, Nodes: rep.NodeCount()}
			pt.LPath = TimeIt(func() { _, _ = sys.RunLPath(id) })
			pt.TGrep = TimeIt(func() { _ = sys.RunTGrep(id) })
			pt.CS = TimeIt(func() { _, _ = sys.RunCS(id) })
			out[id] = append(out[id], pt)
		}
	}
	return out, nil
}

// LabelTiming is one row of Figure 10: the same query on the LPath
// (interval) and XPath (start/end) labeling schemes.
type LabelTiming struct {
	ID             int
	Query          string
	LPath, XPath   time.Duration
	NLPath, NXPath int
}

// Fig10 times the 11 XPath-expressible queries on both labeling schemes.
func Fig10(s *Systems) ([]LabelTiming, error) {
	var out []LabelTiming
	for _, id := range s.QueryIDs() {
		if !s.XPathExpressible(id) {
			continue
		}
		row := LabelTiming{ID: id, Query: s.QueryText(id)}
		var err error
		row.LPath = TimeIt(func() {
			var e error
			row.NLPath, e = s.RunLPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, err
		}
		row.XPath = TimeIt(func() {
			var e error
			row.NXPath, e = s.RunXPath(id)
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, err
		}
		if row.NLPath != row.NXPath {
			return nil, fmt.Errorf("bench: Q%d result mismatch between labelings: %d vs %d",
				id, row.NLPath, row.NXPath)
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationRow is one design-choice measurement.
type AblationRow struct {
	Name     string
	Query    string
	Baseline time.Duration // with the design choice
	Ablated  time.Duration // without it
}

// Ablations measures the design decisions called out in DESIGN.md §5: the
// value-index access path, scoping as a primitive (scoped vs unscoped query
// pair), and join direction (selectivity-first vs reversed).
func Ablations(s *Systems) ([]AblationRow, error) {
	var out []AblationRow
	// 1. Value index on/off for the high-selectivity word queries.
	for _, id := range []int{1, 11, 12} {
		row := AblationRow{
			Name:  "value-index",
			Query: s.QueryText(id),
		}
		row.Baseline = TimeIt(func() { _, _ = s.RunLPath(id) })
		row.Ablated = TimeIt(func() { _, _ = s.RunLPathNoValueIndex(id) })
		out = append(out, row)
	}
	// 2. Scope as a primitive: Q4 = Q3 + scoping; the scoped form prunes.
	q3 := TimeIt(func() { _, _ = s.RunLPath(3) })
	q4 := TimeIt(func() { _, _ = s.RunLPath(4) })
	out = append(out, AblationRow{
		Name:     "scope-primitive",
		Query:    s.QueryText(4) + " vs " + s.QueryText(3),
		Baseline: q4,
		Ablated:  q3,
	})
	// 3. Join direction: start from the rare tag (RRC) vs the frequent one
	// (PP-TMP reversed via the parent axis).
	fwd, err := compileCount(s, `//RRC/PP-TMP`)
	if err != nil {
		return nil, err
	}
	rev, err := compileCount(s, `//PP-TMP[\RRC]`)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationRow{
		Name:     "join-direction",
		Query:    "//RRC/PP-TMP vs //PP-TMP[\\RRC]",
		Baseline: fwd,
		Ablated:  rev,
	})
	return out, nil
}

func compileCount(s *Systems, text string) (time.Duration, error) {
	p, err := lpath.Parse(text)
	if err != nil {
		return 0, err
	}
	var evalErr error
	d := TimeIt(func() {
		if _, e := s.LPath.Count(p); e != nil {
			evalErr = e
		}
	})
	return d, evalErr
}
