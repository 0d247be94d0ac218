package relstore

// Store deconstruction and reassembly for persistent snapshots.
//
// A built Store is a clustered row array plus sorted secondary postings plus
// hash indexes plus a statistics snapshot. Parts flattens exactly the
// non-derivable portion of that state — the clustered order, the name/value
// dictionaries, every sorted posting permutation, and the Statistics block —
// into dictionary-coded flat arrays that a binary format can write and read
// verbatim (see internal/relstore/snapshot). Assemble is the inverse: it
// revalidates the arrays and rebuilds the Store's rows, name dictionaries,
// position arrays and packed sort keys with linear passes only. Nothing is
// re-sorted on load — every sorted order ships in the snapshot and is
// verified, not recomputed — and no tree is built: trees are materialized
// one at a time, when a caller asks for a node (positions.go).
//
// Assemble treats its input as untrusted: any structural inconsistency —
// out-of-range posting, misordered permutation, orphaned attribute row,
// duplicate node identity — is reported as an error, never a panic, so the
// snapshot loader can feed it bytes that passed only checksum validation.

import (
	"fmt"
	"sort"
)

// StatsParts is the serializable image of the Statistics block. Counts that
// are derivable from the dictionary ranges (per-name cardinalities, attribute
// name counts, value posting sizes) are reconstructed from those ranges;
// everything else travels here.
type StatsParts struct {
	Elements  int
	AttrRows  int
	Leaves    int
	TotalSpan int
	MaxDepth  int
	AvgDepth  float64
	DepthHist []int64
	// NameFanout and NameSpan are parallel to Parts.Names; entries for
	// attribute names are zero.
	NameFanout []float64
	NameSpan   []float64
}

// Parts is the complete physical state of a built Store as flat arrays:
//
//   - Names / NameStarts: the name dictionary in clustered (ascending) order
//     and the partition of the row array into per-name ranges
//     [NameStarts[i], NameStarts[i+1]).
//   - Values / ValueStarts / ValuePost: the attribute-value dictionary
//     (ascending) with its {value → attr rows} postings, (tid, id,
//     row)-ordered.
//   - Cols: the six hot label columns in clustered row order; together with
//     the dictionaries they reconstruct every Row.
//   - RightStarts / RightPost: per-name (tid, right, left, depth)-ordered
//     element postings (the reverse-axis index).
//   - DocNames / DocStarts / DocPost: the doc-order permutations kept for
//     names whose clustered order differs from document order (NameByDoc).
//   - ElemsByLeft / ElemsByRight: whole-relation document-order element
//     permutations for wildcard node tests.
//   - Stats: the non-derivable remainder of the Statistics snapshot.
type Parts struct {
	Scheme    Scheme
	TreeCount int

	Names      []string
	NameStarts []int32

	Values      []string
	ValueStarts []int32
	ValuePost   []int32

	Cols Cols

	RightStarts []int32
	RightPost   []int32

	DocNames  []int32
	DocStarts []int32
	DocPost   []int32

	ElemsByLeft  []int32
	ElemsByRight []int32

	Stats StatsParts
}

// Parts flattens the store into its serializable parts. The returned slices
// alias the store's internal state where possible and must not be mutated.
// Extraction is deterministic: dictionaries are emitted in sorted order and
// every posting order is total, so the same store always yields byte-equal
// parts.
func (s *Store) Parts() *Parts {
	p := &Parts{
		Scheme:       s.scheme,
		TreeCount:    s.treeCount,
		Cols:         s.cols,
		ElemsByLeft:  s.elemsByLeft,
		ElemsByRight: s.elemsByRight,
	}
	// Name dictionary straight off the clustered row array: ascending, with
	// the range partition for free.
	p.NameStarts = append(p.NameStarts, 0)
	for i := 0; i < len(s.rows); {
		name := s.rows[i].Name
		j := i + 1
		for j < len(s.rows) && s.rows[j].Name == name {
			j++
		}
		p.Names = append(p.Names, name)
		p.NameStarts = append(p.NameStarts, int32(j))
		i = j
	}
	// Per-name reverse and doc-order postings, concatenated in dictionary
	// order.
	p.RightStarts = append(p.RightStarts, 0)
	p.DocStarts = append(p.DocStarts, 0)
	for i, name := range p.Names {
		p.RightPost = append(p.RightPost, s.rightIdx[name]...)
		p.RightStarts = append(p.RightStarts, int32(len(p.RightPost)))
		if perm := s.docIdx[name]; perm != nil {
			p.DocNames = append(p.DocNames, int32(i))
			p.DocPost = append(p.DocPost, perm...)
			p.DocStarts = append(p.DocStarts, int32(len(p.DocPost)))
		}
	}
	// Value dictionary sorted ascending with its postings.
	p.Values = make([]string, 0, len(s.valueIdx))
	for v := range s.valueIdx {
		p.Values = append(p.Values, v)
	}
	sort.Strings(p.Values)
	p.ValueStarts = append(p.ValueStarts, 0)
	for _, v := range p.Values {
		p.ValuePost = append(p.ValuePost, s.valueIdx[v]...)
		p.ValueStarts = append(p.ValueStarts, int32(len(p.ValuePost)))
	}
	// Statistics remainder.
	st := s.stats
	p.Stats = StatsParts{
		Elements:   st.Elements,
		AttrRows:   st.AttrRows,
		Leaves:     st.Leaves,
		TotalSpan:  st.TotalSpan,
		MaxDepth:   st.MaxDepth,
		AvgDepth:   st.AvgDepth,
		DepthHist:  make([]int64, len(st.DepthHist)),
		NameFanout: make([]float64, len(p.Names)),
		NameSpan:   make([]float64, len(p.Names)),
	}
	for i, n := range st.DepthHist {
		p.Stats.DepthHist[i] = int64(n)
	}
	for i, name := range p.Names {
		if ns, ok := st.Names[name]; ok {
			p.Stats.NameFanout[i] = ns.Fanout
			p.Stats.NameSpan[i] = ns.Span
		}
	}
	return p
}

// corruptf builds the error every Assemble validation failure reports.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("relstore: corrupt parts: "+format, args...)
}

// clusteredLess reports whether row a precedes row b in the clustered
// (tid, left, right, depth, id) order used within a name range.
func clusteredLess(a, b *Row) bool {
	if a.TID != b.TID {
		return a.TID < b.TID
	}
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	if a.Right != b.Right {
		return a.Right < b.Right
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	return a.ID < b.ID
}

// checkPrefix validates that starts is a monotone prefix array over total
// postings: starts[0] == 0, nondecreasing, final value == total.
func checkPrefix(what string, starts []int32, wantLen int, total int) error {
	if len(starts) != wantLen {
		return corruptf("%s: prefix length %d, want %d", what, len(starts), wantLen)
	}
	if starts[0] != 0 {
		return corruptf("%s: prefix does not start at 0", what)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return corruptf("%s: prefix decreases at %d", what, i)
		}
	}
	if int(starts[len(starts)-1]) != total {
		return corruptf("%s: prefix covers %d postings, have %d", what, starts[len(starts)-1], total)
	}
	return nil
}

// Assemble reconstructs a Store from flattened parts, validating every
// structural invariant the engine depends on. No sorting happens: all orders
// are checked against the shipped arrays. Returns an error — never panics —
// on any inconsistency.
func Assemble(p *Parts) (*Store, error) {
	if p == nil {
		return nil, corruptf("nil parts")
	}
	if p.Scheme != SchemeInterval && p.Scheme != SchemeStartEnd {
		return nil, corruptf("unknown scheme %d", int(p.Scheme))
	}
	if p.TreeCount < 0 {
		return nil, corruptf("negative tree count %d", p.TreeCount)
	}
	n := len(p.Cols.TID)
	for _, c := range [][]int32{p.Cols.Left, p.Cols.Right, p.Cols.Depth, p.Cols.ID, p.Cols.PID} {
		if len(c) != n {
			return nil, corruptf("column lengths differ: %d vs %d", len(c), n)
		}
	}

	// --- Dictionaries and the clustered partition -----------------------
	if len(p.NameStarts) != len(p.Names)+1 {
		return nil, corruptf("name starts length %d for %d names", len(p.NameStarts), len(p.Names))
	}
	if p.NameStarts[0] != 0 || int(p.NameStarts[len(p.Names)]) != n {
		return nil, corruptf("name ranges do not partition %d rows", n)
	}
	for i, name := range p.Names {
		if name == "" {
			return nil, corruptf("empty name in dictionary")
		}
		if i > 0 && p.Names[i-1] >= name {
			return nil, corruptf("name dictionary not strictly ascending at %q", name)
		}
		if p.NameStarts[i] >= p.NameStarts[i+1] {
			return nil, corruptf("name %q has empty or inverted range", name)
		}
	}
	for i := 1; i < len(p.Values); i++ {
		if p.Values[i-1] >= p.Values[i] {
			return nil, corruptf("value dictionary not strictly ascending at %q", p.Values[i])
		}
	}

	// Row counts per kind fall out of the name dictionary ranges.
	var elemCount, attrCount int
	for i, name := range p.Names {
		span := int(p.NameStarts[i+1] - p.NameStarts[i])
		if name[0] == '@' {
			attrCount += span
		} else {
			elemCount += span
		}
	}

	// --- Rows from columns + dictionaries -------------------------------
	s := &Store{
		scheme:    p.Scheme,
		treeCount: p.TreeCount,
		rows:      make([]Row, n),
		cols: Cols{
			TID:   p.Cols.TID,
			Left:  p.Cols.Left,
			Right: p.Cols.Right,
			Depth: p.Cols.Depth,
			ID:    p.Cols.ID,
			PID:   p.Cols.PID,
		},
		nameIdx:  make(map[string][2]int32, len(p.Names)),
		rightIdx: make(map[string][]int32, len(p.Names)),
		docIdx:   make(map[string][]int32, len(p.DocNames)),
		valueIdx: make(map[string][]int32, len(p.Values)),
	}
	rows := s.rows
	for ni, name := range p.Names {
		lo, hi := p.NameStarts[ni], p.NameStarts[ni+1]
		s.nameIdx[name] = [2]int32{lo, hi}
		for i := lo; i < hi; i++ {
			rows[i] = Row{
				TID: p.Cols.TID[i], Left: p.Cols.Left[i], Right: p.Cols.Right[i],
				Depth: p.Cols.Depth[i], ID: p.Cols.ID[i], PID: p.Cols.PID[i],
				Name: name,
			}
			if i > lo && !clusteredLess(&rows[i-1], &rows[i]) {
				return nil, corruptf("rows for %q not in clustered order at %d", name, i)
			}
		}
	}

	// --- Attribute values ------------------------------------------------
	if err := checkPrefix("value postings", p.ValueStarts, len(p.Values)+1, len(p.ValuePost)); err != nil {
		return nil, err
	}
	if len(p.ValuePost) != attrCount {
		return nil, corruptf("value postings cover %d rows, have %d attribute rows", len(p.ValuePost), attrCount)
	}
	valued := make([]bool, n)
	for vi, v := range p.Values {
		post := p.ValuePost[p.ValueStarts[vi]:p.ValueStarts[vi+1]]
		for k, ri := range post {
			if ri < 0 || int(ri) >= n {
				return nil, corruptf("value %q posting out of range: %d", v, ri)
			}
			r := &rows[ri]
			if !r.IsAttr() {
				return nil, corruptf("value %q posting %d targets an element row", v, ri)
			}
			if valued[ri] {
				return nil, corruptf("row %d carries two values", ri)
			}
			valued[ri] = true
			r.Value = v
			if k > 0 {
				prev := post[k-1]
				pr := &rows[prev]
				if pr.TID > r.TID || (pr.TID == r.TID && pr.ID > r.ID) ||
					(pr.TID == r.TID && pr.ID == r.ID && prev >= ri) {
					return nil, corruptf("value %q postings not in (tid, id, row) order", v)
				}
			}
		}
		s.valueIdx[v] = post
	}

	// --- Per-name reverse-order postings ---------------------------------
	if err := checkPrefix("right postings", p.RightStarts, len(p.Names)+1, len(p.RightPost)); err != nil {
		return nil, err
	}
	for ni, name := range p.Names {
		post := p.RightPost[p.RightStarts[ni]:p.RightStarts[ni+1]]
		lo, hi := p.NameStarts[ni], p.NameStarts[ni+1]
		if name[0] == '@' {
			if len(post) != 0 {
				return nil, corruptf("attribute name %q has right postings", name)
			}
			continue
		}
		if int32(len(post)) != hi-lo {
			return nil, corruptf("right postings for %q cover %d of %d rows", name, len(post), hi-lo)
		}
		for k, ri := range post {
			if ri < lo || ri >= hi {
				return nil, corruptf("right posting for %q out of its range: %d", name, ri)
			}
			if k > 0 {
				a, b := &rows[post[k-1]], &rows[ri]
				if a.TID > b.TID || (a.TID == b.TID && (a.Right > b.Right ||
					(a.Right == b.Right && (a.Left > b.Left ||
						(a.Left == b.Left && a.Depth >= b.Depth))))) {
					return nil, corruptf("right postings for %q not in (tid, right, left, depth) order", name)
				}
			}
		}
		s.rightIdx[name] = post
	}

	// --- Doc-order permutations ------------------------------------------
	if err := checkPrefix("doc postings", p.DocStarts, len(p.DocNames)+1, len(p.DocPost)); err != nil {
		return nil, err
	}
	for di, ni := range p.DocNames {
		if ni < 0 || int(ni) >= len(p.Names) {
			return nil, corruptf("doc permutation names out of range: %d", ni)
		}
		if di > 0 && p.DocNames[di-1] >= ni {
			return nil, corruptf("doc permutation names not ascending")
		}
		name := p.Names[ni]
		if name[0] == '@' {
			return nil, corruptf("doc permutation on attribute name %q", name)
		}
		post := p.DocPost[p.DocStarts[di]:p.DocStarts[di+1]]
		lo, hi := p.NameStarts[ni], p.NameStarts[ni+1]
		if int32(len(post)) != hi-lo {
			return nil, corruptf("doc permutation for %q covers %d of %d rows", name, len(post), hi-lo)
		}
		for k, ri := range post {
			if ri < lo || ri >= hi {
				return nil, corruptf("doc posting for %q out of its range: %d", name, ri)
			}
			if k > 0 {
				a, b := &rows[post[k-1]], &rows[ri]
				if a.TID > b.TID || (a.TID == b.TID && (a.Left > b.Left ||
					(a.Left == b.Left && a.Depth >= b.Depth))) {
					return nil, corruptf("doc permutation for %q not in (tid, left, depth) order", name)
				}
			}
		}
		s.docIdx[name] = post
	}

	// --- Whole-relation document-order permutations ----------------------
	if len(p.ElemsByLeft) != elemCount || len(p.ElemsByRight) != elemCount {
		return nil, corruptf("element permutations cover %d/%d rows, have %d elements",
			len(p.ElemsByLeft), len(p.ElemsByRight), elemCount)
	}
	for k, ri := range p.ElemsByLeft {
		if ri < 0 || int(ri) >= n || rows[ri].IsAttr() {
			return nil, corruptf("elems-by-left entry %d invalid", ri)
		}
		if k > 0 {
			a, b := &rows[p.ElemsByLeft[k-1]], &rows[ri]
			if a.TID > b.TID || (a.TID == b.TID && (a.Left > b.Left ||
				(a.Left == b.Left && a.Depth >= b.Depth))) {
				return nil, corruptf("elems-by-left not in (tid, left, depth) order at %d", k)
			}
		}
	}
	for k, ri := range p.ElemsByRight {
		if ri < 0 || int(ri) >= n || rows[ri].IsAttr() {
			return nil, corruptf("elems-by-right entry %d invalid", ri)
		}
		if k > 0 {
			a, b := &rows[p.ElemsByRight[k-1]], &rows[ri]
			if a.TID > b.TID || (a.TID == b.TID && (a.Right > b.Right ||
				(a.Right == b.Right && (a.Left > b.Left ||
					(a.Left == b.Left && a.Depth >= b.Depth))))) {
				return nil, corruptf("elems-by-right not in (tid, right, left, depth) order at %d", k)
			}
		}
	}
	s.elemsByLeft = p.ElemsByLeft
	s.elemsByRight = p.ElemsByRight

	// --- Position arrays: identity, children, attributes, parents ----------
	if err := s.indexPositions(p.TreeCount); err != nil {
		return nil, err
	}

	s.deriveRowSeq()

	// --- Statistics -------------------------------------------------------
	if err := s.assembleStats(p, elemCount, attrCount); err != nil {
		return nil, err
	}
	return s, nil
}

// assembleStats reconstructs the Statistics snapshot from the stats parts
// plus the dictionary ranges, cross-checking the redundant counts.
func (s *Store) assembleStats(p *Parts, elemCount, attrCount int) error {
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
	if sp.MaxDepth < 0 || len(sp.DepthHist) != sp.MaxDepth+1 {
		return corruptf("depth histogram length %d for max depth %d", len(sp.DepthHist), sp.MaxDepth)
	}
	if len(sp.NameFanout) != len(p.Names) || len(sp.NameSpan) != len(p.Names) {
		return corruptf("per-name statistics length %d/%d for %d names",
			len(sp.NameFanout), len(sp.NameSpan), len(p.Names))
	}
	st := &Statistics{
		Trees:     p.TreeCount,
		Elements:  sp.Elements,
		AttrRows:  sp.AttrRows,
		Leaves:    sp.Leaves,
		TotalSpan: sp.TotalSpan,
		MaxDepth:  sp.MaxDepth,
		AvgDepth:  sp.AvgDepth,
		DepthHist: make([]int, len(sp.DepthHist)),
		Names:     make(map[string]NameStat, len(p.Names)),
		AttrNames: make(map[string]int),
		valueCard: make(map[string]int, len(p.Values)),
	}
	var histSum int64
	for i, c := range sp.DepthHist {
		if c < 0 {
			return corruptf("negative depth histogram bucket %d", i)
		}
		st.DepthHist[i] = int(c)
		histSum += c
	}
	if histSum != int64(elemCount) {
		return corruptf("depth histogram sums to %d, have %d elements", histSum, elemCount)
	}
	for i, name := range p.Names {
		count := int(p.NameStarts[i+1] - p.NameStarts[i])
		if name[0] == '@' {
			st.AttrNames[name] = count
			continue
		}
		st.Names[name] = NameStat{Count: count, Fanout: sp.NameFanout[i], Span: sp.NameSpan[i]}
	}
	for i, v := range p.Values {
		st.valueCard[v] = int(p.ValueStarts[i+1] - p.ValueStarts[i])
	}
	st.Values = summarizeValues(st.valueCard)
	s.stats = st
	return nil
}
