// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 5). It builds the four competing
// systems over a common corpus — the LPath engine on interval labels, the
// XPath engine on start/end labels, TGrep2 and CorpusSearch — exposes the 23
// evaluation queries in each system's dialect, and provides the timing
// protocol of Section 5.1 (7 repetitions, average excluding min and max).
//
// Both the testing.B benchmarks in the repository root and the lpathbench
// command are thin wrappers over this package.
package bench

import (
	"fmt"

	"lpath/internal/corpus"
	"lpath/internal/corpussearch"
	"lpath/internal/engine"
	"lpath/internal/lpath"
	"lpath/internal/relstore"
	"lpath/internal/tgrep"
	"lpath/internal/tree"
	"lpath/internal/xpath"
)

// Systems bundles every query system built over one corpus.
type Systems struct {
	Trees *tree.Corpus

	LPath      *engine.Engine
	LPathNoVal *engine.Engine // value-index ablation
	XPath      *xpath.Engine
	TGrep      *tgrep.Corpus
	CS         *corpussearch.Corpus

	Store *relstore.Store // the interval-label store behind LPath

	lpathQ  map[int]*lpath.Path
	xpathQ  map[int]*lpath.Path
	tgrepQ  map[int]*tgrep.Pattern
	csQ     map[int]*corpussearch.Query
	queryID []int
}

// BuildSystems constructs all systems and compiles every evaluation query.
func BuildSystems(c *tree.Corpus) (*Systems, error) {
	s := &Systems{
		Trees:  c,
		lpathQ: map[int]*lpath.Path{},
		xpathQ: map[int]*lpath.Path{},
		tgrepQ: map[int]*tgrep.Pattern{},
		csQ:    map[int]*corpussearch.Query{},
	}
	s.Store = relstore.Build(c, relstore.SchemeInterval)
	var err error
	if s.LPath, err = engine.New(s.Store); err != nil {
		return nil, err
	}
	if s.LPathNoVal, err = engine.New(s.Store, engine.WithoutValueIndex()); err != nil {
		return nil, err
	}
	if s.XPath, err = xpath.New(relstore.Build(c, relstore.SchemeStartEnd)); err != nil {
		return nil, err
	}
	s.TGrep = tgrep.BuildCorpus(c)
	s.CS = corpussearch.BuildCorpus(c)

	for _, q := range lpath.EvalQueries {
		p, err := lpath.Parse(q.Text)
		if err != nil {
			return nil, fmt.Errorf("Q%d lpath: %w", q.ID, err)
		}
		s.lpathQ[q.ID] = p
		s.queryID = append(s.queryID, q.ID)
	}
	for id, text := range xpath.EvalQueries {
		p, err := xpath.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("Q%d xpath: %w", id, err)
		}
		s.xpathQ[id] = p
	}
	for id, text := range tgrep.EvalQueries {
		p, err := tgrep.Compile(text)
		if err != nil {
			return nil, fmt.Errorf("Q%d tgrep: %w", id, err)
		}
		s.tgrepQ[id] = p
	}
	for id, text := range corpussearch.EvalQueries {
		q, err := corpussearch.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("Q%d corpussearch: %w", id, err)
		}
		s.csQ[id] = q
	}
	return s, nil
}

// QueryIDs returns the evaluation query numbers (1..23) in order.
func (s *Systems) QueryIDs() []int { return s.queryID }

// QueryText returns the LPath text of query id.
func (s *Systems) QueryText(id int) string {
	for _, q := range lpath.EvalQueries {
		if q.ID == id {
			return q.Text
		}
	}
	return ""
}

// XPathExpressible reports whether query id is in the 11-query XPath subset.
func (s *Systems) XPathExpressible(id int) bool {
	_, ok := s.xpathQ[id]
	return ok
}

// RunLPath evaluates query id on the LPath engine and returns its result
// size.
func (s *Systems) RunLPath(id int) (int, error) {
	return s.LPath.Count(s.lpathQ[id])
}

// RunLPathNoValueIndex evaluates query id with the value index disabled.
func (s *Systems) RunLPathNoValueIndex(id int) (int, error) {
	return s.LPathNoVal.Count(s.lpathQ[id])
}

// RunXPath evaluates query id on the XPath (start/end labeling) engine.
func (s *Systems) RunXPath(id int) (int, error) {
	p, ok := s.xpathQ[id]
	if !ok {
		return 0, fmt.Errorf("bench: Q%d is not XPath-expressible", id)
	}
	return s.XPath.Count(p)
}

// RunTGrep evaluates query id on the TGrep2 baseline.
func (s *Systems) RunTGrep(id int) int {
	return s.TGrep.Count(s.tgrepQ[id])
}

// RunCS evaluates query id on the CorpusSearch baseline.
func (s *Systems) RunCS(id int) (int, error) {
	return s.CS.Count(s.csQ[id])
}

// GenerateTrees builds the synthetic corpus for a profile at a scale.
func GenerateTrees(profile corpus.Profile, scale float64, seed int64) *tree.Corpus {
	return corpus.Generate(corpus.Config{Profile: profile, Scale: scale, Seed: seed})
}

// Replicate returns a corpus with the trees repeated by the (possibly
// fractional) factor, re-identified — the Figure 9 scalability workload.
func Replicate(c *tree.Corpus, factor float64) *tree.Corpus {
	out := tree.NewCorpus()
	total := int(float64(c.Len())*factor + 0.5)
	for i := 0; i < total; i++ {
		src := c.Trees[i%c.Len()]
		out.Add(&tree.Tree{Root: src.Root})
	}
	return out
}
