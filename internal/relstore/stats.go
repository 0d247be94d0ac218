package relstore

// Corpus statistics: the relational catalog the cost-based planner reads is
// the store itself. Counts the store already holds — rows per name
// (NameRange), per attribute (AttrRange) and per value (ByValue), trees and
// elements — are read from it directly; the rest is computed once, when the
// store is built (buildStats), travels in its parts as StatsParts, and is
// checked by Assemble (checkStats) and read by the planner as is. Like every
// part it is immutable, so a plan chosen from it is the same plan whichever
// tid window of the store executes it.

import (
	"math"
	"slices"
)

// StatsParts is the statistics block of a store's parts: what the
// dictionary ranges do not give.
type StatsParts struct {
	Elements  int
	AttrRows  int
	Leaves    int
	TotalSpan int // summed root span: the number of terminals
	MaxDepth  int
	AvgDepth  float64
	DepthHist []int64 // DepthHist[d] counts the elements at depth d (the root has depth 1)
	// NameFanout and NameSpan are parallel to Parts.Names: the average
	// number of children and the average interval width (right - left) of
	// the elements with that name. Entries for attribute names are zero.
	NameFanout []float64
	NameSpan   []float64
}

// buildStats computes the statistics image from the clustered columns: the
// per-name fanout counts every element's children by parent id.
func buildStats(p *Parts) StatsParts {
	c := &p.Cols
	kids := make([]int32, len(c.TID)) // per element row: its children
	start := int32(0)                 // the current tree's first position in ElemsByLeft
	for k, ri := range p.ElemsByLeft {
		if k == 0 || c.TID[ri] != c.TID[p.ElemsByLeft[k-1]] {
			start = int32(k)
		}
		if pid := c.PID[ri]; pid > 0 {
			kids[p.ElemsByLeft[start+pid-1]]++
		}
	}
	sp := StatsParts{
		NameFanout: make([]float64, len(p.Names)),
		NameSpan:   make([]float64, len(p.Names)),
	}
	var depthSum int64
	for ni, name := range p.Names {
		lo, hi := p.NameStarts[ni], p.NameStarts[ni+1]
		if name[0] == '@' {
			sp.AttrRows += int(hi - lo)
			continue
		}
		var children, span int64
		for i := lo; i < hi; i++ {
			children += int64(kids[i])
			span += int64(c.Right[i] - c.Left[i])
			if kids[i] == 0 {
				sp.Leaves++
			}
			if c.PID[i] == 0 {
				sp.TotalSpan += int(c.Right[i] - c.Left[i])
			}
			sp.MaxDepth = max(sp.MaxDepth, int(c.Depth[i]))
			depthSum += int64(c.Depth[i])
		}
		sp.Elements += int(hi - lo)
		sp.NameFanout[ni] = float64(children) / float64(hi-lo)
		sp.NameSpan[ni] = float64(span) / float64(hi-lo)
	}
	sp.DepthHist = make([]int64, sp.MaxDepth+1)
	for _, ri := range p.ElemsByLeft {
		sp.DepthHist[c.Depth[ri]]++
	}
	if sp.Elements > 0 {
		sp.AvgDepth = float64(depthSum) / float64(sp.Elements)
	}
	return sp
}

// checkStats cross-checks the statistics block against the relation and
// refuses a value the planner could not compute with: a non-finite or
// negative average, a negative span.
func checkStats(p *Parts, elemCount, attrCount int) error {
	sp := &p.Stats
	if sp.Elements != elemCount {
		return corruptf("statistics claim %d elements, relation has %d", sp.Elements, elemCount)
	}
	if sp.AttrRows != attrCount {
		return corruptf("statistics claim %d attribute rows, relation has %d", sp.AttrRows, attrCount)
	}
	if sp.Leaves < 0 || sp.Leaves > elemCount {
		return corruptf("statistics leaf count %d out of range", sp.Leaves)
	}
	if sp.TotalSpan < 0 {
		return corruptf("negative total span %d", sp.TotalSpan)
	}
	if sp.MaxDepth < 0 || len(sp.DepthHist) != sp.MaxDepth+1 {
		return corruptf("depth histogram length %d for max depth %d", len(sp.DepthHist), sp.MaxDepth)
	}
	if len(sp.NameFanout) != len(p.Names) || len(sp.NameSpan) != len(p.Names) {
		return corruptf("per-name statistics length %d/%d for %d names",
			len(sp.NameFanout), len(sp.NameSpan), len(p.Names))
	}
	bad := func(f float64) bool { return !(f >= 0 && f <= math.MaxFloat64) } // NaN fails both
	if bad(sp.AvgDepth) || slices.ContainsFunc(sp.NameFanout, bad) || slices.ContainsFunc(sp.NameSpan, bad) {
		return corruptf("non-finite or negative average in the statistics")
	}
	var histSum int64
	for i, c := range sp.DepthHist {
		if c < 0 {
			return corruptf("negative depth histogram bucket %d", i)
		}
		histSum += c
	}
	if histSum != int64(elemCount) {
		return corruptf("depth histogram sums to %d, have %d elements", histSum, elemCount)
	}
	return nil
}
