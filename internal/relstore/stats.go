package relstore

// Corpus statistics: the relational catalog the cost-based planner reads.
// Everything here is computed once, when the store is built (buildStats),
// travels in its parts and is expanded by Assemble (assembleStats), except
// the tag-pair summary, which Assemble derives (buildPairs) — a
// Statistics value is an immutable snapshot that can be shared
// freely across goroutines, so a plan chosen from the statistics is the same
// plan whichever tid window of the store executes it.

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

// Statistics is the build-time statistics snapshot of a store. It is
// immutable after construction.
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
	// Pairs is the tag-pair summary (pairs.go): which names stand in four
	// of the Table 1 relations. Nil when the store has too many names.
	Pairs *TagPairs
	// valueCard is the exact per-value posting-list size. It is kept
	// unexported so the snapshot stays immutable; read it via PostingCount.
	valueCard map[string]int
}

// NameCount returns the element cardinality of a tag name (0 when absent).
func (st *Statistics) NameCount(name string) int { return st.Names[name].Count }

// PostingCount returns the exact posting-list size of an attribute value.
func (st *Statistics) PostingCount(v string) int { return st.valueCard[v] }

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

// Statistics returns the store's statistics snapshot.
func (s *Store) Statistics() *Statistics { return s.stats }

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
