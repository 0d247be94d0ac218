package relstore

// Corpus statistics: the relational catalog the cost-based planner reads.
// Everything here is computed once, at index-build time, from the finished
// indexes — a Statistics value is an immutable snapshot that can be shared
// freely across goroutines and across shards. BuildShards merges the
// per-shard snapshots into one corpus-global snapshot and hands that single
// snapshot to every shard, so a plan chosen from the statistics is the same
// plan no matter which shard executes it.

import "sort"

// NameStat summarizes the element rows clustered under one tag name.
type NameStat struct {
	// Count is the number of element rows with this name — the primary
	// join-ordering statistic (the clustered name scan touches exactly
	// Count rows).
	Count int
	// Fanout is the average number of children of elements with this name;
	// 0 for names that only label terminals.
	Fanout float64
	// Span is the average interval width (right - left): the expected
	// number of leaf positions under an element with this name.
	Span float64
}

// ValueStats summarizes the {value, tid, id} index as a posting-list-size
// histogram: how skewed the attribute vocabulary is.
type ValueStats struct {
	// Distinct is the number of distinct attribute values.
	Distinct int
	// Rows is the total number of attribute rows (the sum of all posting
	// lists).
	Rows int
	// Max is the longest posting list.
	Max int
	// Mean is Rows / Distinct.
	Mean float64
	// Hist is the log2 histogram: Hist[b] counts the distinct values whose
	// posting list size lies in [2^b, 2^(b+1)).
	Hist []int
}

// Statistics is the build-time statistics snapshot of a store (or of a whole
// sharded corpus; see BuildShards). It is immutable after construction.
type Statistics struct {
	// Trees, Elements, AttrRows and Leaves count trees, element rows,
	// attribute rows and terminal elements.
	Trees    int
	Elements int
	AttrRows int
	Leaves   int
	// TotalSpan is the summed root span (right - left) over all trees;
	// under the interval scheme it equals the total number of terminals.
	TotalSpan int
	// MaxDepth and AvgDepth describe the depth distribution, with
	// DepthHist[d] counting the elements at depth d (the root has depth 1).
	MaxDepth  int
	AvgDepth  float64
	DepthHist []int
	// Names holds the per-name cardinality statistics.
	Names map[string]NameStat
	// AttrNames maps an attribute name (with its '@' prefix) to the number
	// of rows carrying it.
	AttrNames map[string]int
	// Values summarizes the value index.
	Values ValueStats
	// valueCard is the exact per-value posting-list size. It is kept
	// unexported so the snapshot stays immutable; read it via PostingCount.
	valueCard map[string]int
}

// NameCount returns the element cardinality of a tag name (0 when absent).
func (st *Statistics) NameCount(name string) int { return st.Names[name].Count }

// PostingCount returns the exact posting-list size of an attribute value.
func (st *Statistics) PostingCount(v string) int { return st.valueCard[v] }

// NodesPerSpan is the average number of element rows per unit of leaf span —
// the density that converts a context subtree's span into an expected node
// count. The engine derives the value-index crossover threshold from it.
func (st *Statistics) NodesPerSpan() float64 {
	if st.TotalSpan <= 0 {
		return 2 // the treebank-typical default when the corpus is empty
	}
	return float64(st.Elements) / float64(st.TotalSpan)
}

// AvgFanout is the average number of children of an internal element.
func (st *Statistics) AvgFanout() float64 {
	internal := st.Elements - st.Leaves
	if internal <= 0 {
		return 0
	}
	return float64(st.Elements-st.Trees) / float64(internal)
}

// AvgTreeSpan is the average root span of a tree.
func (st *Statistics) AvgTreeSpan() float64 {
	if st.Trees == 0 {
		return 0
	}
	return float64(st.TotalSpan) / float64(st.Trees)
}

// Statistics returns the store's statistics snapshot. For a shard built by
// BuildShards the snapshot describes the whole corpus, not just the shard,
// so every shard plans against identical statistics.
func (s *Store) Statistics() *Statistics { return s.stats }

// computeStats builds the snapshot from the finished indexes; called at the
// end of buildIndexes so every construction path (Build, ReadSnapshot) gets
// statistics for free.
func (s *Store) computeStats() {
	st := &Statistics{
		Names:     make(map[string]NameStat),
		AttrNames: make(map[string]int),
		valueCard: make(map[string]int, len(s.valueIdx)),
	}
	st.Trees = s.treeCount

	type nameAcc struct {
		count    int
		children int
		span     int64
	}
	accs := make(map[string]*nameAcc, len(s.nameIdx))
	var depthSum int64
	for i := range s.rows {
		r := &s.rows[i]
		if r.IsAttr() {
			st.AttrRows++
			st.AttrNames[r.Name]++
			continue
		}
		st.Elements++
		a := accs[r.Name]
		if a == nil {
			a = &nameAcc{}
			accs[r.Name] = a
		}
		a.count++
		a.span += int64(r.Right - r.Left)
		nkids := len(s.Children(r.TID, r.ID))
		a.children += nkids
		if nkids == 0 {
			st.Leaves++
		}
		d := int(r.Depth)
		if d > st.MaxDepth {
			st.MaxDepth = d
		}
		depthSum += int64(d)
	}
	st.DepthHist = make([]int, st.MaxDepth+1)
	for i := range s.rows {
		if r := &s.rows[i]; !r.IsAttr() {
			st.DepthHist[r.Depth]++
		}
	}
	if st.Elements > 0 {
		st.AvgDepth = float64(depthSum) / float64(st.Elements)
	}
	for _, ri := range s.rootRows {
		r := &s.rows[ri]
		st.TotalSpan += int(r.Right - r.Left)
	}
	for name, a := range accs {
		ns := NameStat{Count: a.count}
		if a.count > 0 {
			ns.Fanout = float64(a.children) / float64(a.count)
			ns.Span = float64(a.span) / float64(a.count)
		}
		st.Names[name] = ns
	}
	for v, postings := range s.valueIdx {
		st.valueCard[v] = len(postings)
	}
	st.Values = summarizeValues(st.valueCard)
	s.stats = st
}

// summarizeValues condenses per-value cardinalities into the histogram form.
func summarizeValues(card map[string]int) ValueStats {
	vs := ValueStats{Distinct: len(card)}
	for _, n := range card {
		vs.Rows += n
		if n > vs.Max {
			vs.Max = n
		}
		b := 0
		for 1<<(b+1) <= n {
			b++
		}
		for len(vs.Hist) <= b {
			vs.Hist = append(vs.Hist, 0)
		}
		vs.Hist[b]++
	}
	if vs.Distinct > 0 {
		vs.Mean = float64(vs.Rows) / float64(vs.Distinct)
	}
	return vs
}

// mergeStatistics combines per-shard snapshots into one corpus-global
// snapshot: counts and histograms add, averages re-weight by their counts.
func mergeStatistics(parts []*Statistics) *Statistics {
	out := &Statistics{
		Names:     make(map[string]NameStat),
		AttrNames: make(map[string]int),
		valueCard: make(map[string]int),
	}
	type nameAcc struct {
		count    int
		children float64
		span     float64
	}
	accs := make(map[string]*nameAcc)
	var depthSum float64
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Trees += p.Trees
		out.Elements += p.Elements
		out.AttrRows += p.AttrRows
		out.Leaves += p.Leaves
		out.TotalSpan += p.TotalSpan
		if p.MaxDepth > out.MaxDepth {
			out.MaxDepth = p.MaxDepth
		}
		depthSum += p.AvgDepth * float64(p.Elements)
		for name, ns := range p.Names {
			a := accs[name]
			if a == nil {
				a = &nameAcc{}
				accs[name] = a
			}
			a.count += ns.Count
			a.children += ns.Fanout * float64(ns.Count)
			a.span += ns.Span * float64(ns.Count)
		}
		for name, n := range p.AttrNames {
			out.AttrNames[name] += n
		}
		for v, n := range p.valueCard {
			out.valueCard[v] += n
		}
	}
	out.DepthHist = make([]int, out.MaxDepth+1)
	for _, p := range parts {
		if p == nil {
			continue
		}
		for d, n := range p.DepthHist {
			out.DepthHist[d] += n
		}
	}
	if out.Elements > 0 {
		out.AvgDepth = depthSum / float64(out.Elements)
	}
	for name, a := range accs {
		ns := NameStat{Count: a.count}
		if a.count > 0 {
			ns.Fanout = a.children / float64(a.count)
			ns.Span = a.span / float64(a.count)
		}
		out.Names[name] = ns
	}
	out.Values = summarizeValues(out.valueCard)
	return out
}

// NamesBySize returns the element tag names in decreasing cardinality order
// (ties alphabetical) — a convenience for reports and tests.
func (st *Statistics) NamesBySize() []string {
	names := make([]string, 0, len(st.Names))
	for n := range st.Names {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := st.Names[names[i]].Count, st.Names[names[j]].Count
		if a != b {
			return a > b
		}
		return names[i] < names[j]
	})
	return names
}
