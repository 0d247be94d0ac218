package relstore

// The one way to make a Store: Assemble of its Parts.
//
// Parts is the relation as dictionary-coded flat arrays — the label columns
// in clustered order, the name/value dictionaries, the value postings, the
// document-order element permutation and the statistics block — that a
// binary format can write and read verbatim (see internal/relstore/snapshot).
// Build labels a corpus and fills them (buildParts); a snapshot load reads
// them. Assemble validates the arrays and derives the name and value lookups,
// the attribute value ids, the position arrays and the tag-pair summary with
// linear passes only, keeping the columns as they are: they and the
// dictionaries are the store's only copy of the relation. Nothing is
// re-sorted — every sorted order is verified, not recomputed — and no tree is
// built: trees are materialized one at a time, when a caller asks for a node
// (positions.go).
//
// Assemble treats its input as untrusted: any structural inconsistency —
// out-of-range posting, misordered permutation, orphaned attribute row,
// duplicate node identity — is reported as an error, never a panic, so the
// snapshot loader can feed it bytes that passed only checksum validation.

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Parts is everything a Store is assembled from, as flat arrays:
//
//   - Names / NameStarts: the name dictionary in clustered (ascending) order
//     and the partition of the row array into per-name ranges
//     [NameStarts[i], NameStarts[i+1]).
//   - Values / ValueStarts / ValuePost: the attribute-value dictionary
//     (ascending) with its {value → attr rows} postings, (tid, id,
//     row)-ordered.
//   - Cols: the six label columns in clustered row order; together with the
//     dictionaries they are the relation.
//   - ElemsByLeft: every element row in document order, (tid, left,
//     depth), for wildcard node tests; it is also the {tid, id} identity
//     index (positions.go).
//   - Stats: the planner's statistics that the ranges do not give (stats.go).
type Parts struct {
	Scheme    Scheme
	TreeCount int

	Names      []string
	NameStarts []int32

	Values      []string
	ValueStarts []int32
	ValuePost   []int32

	Cols Cols

	ElemsByLeft []int32

	Stats StatsParts
}

// Parts returns the parts the store was assembled from. The slices are the
// store's own state and must not be mutated. Every dictionary is sorted and
// every posting order total, so the same corpus always yields byte-equal
// parts.
func (s *Store) Parts() *Parts { return s.parts }

// buildParts sorts the labeled rows into clustered order and fills the parts
// of their store: every array Assemble validates, computed here once.
func buildParts(rows []labeled, names, values dict, scheme Scheme, treeCount int) *Parts {
	p := &Parts{Scheme: scheme, TreeCount: treeCount}
	var nameRank, valueRank []int32
	p.Names, nameRank = names.sorted()
	p.Values, valueRank = values.sorted()
	for i := range rows {
		r := &rows[i]
		if r.name = nameRank[r.name]; r.value >= 0 {
			r.value = valueRank[r.value]
		}
	}
	slices.SortFunc(rows, func(a, b labeled) int {
		switch {
		case a.name != b.name:
			return cmp.Compare(a.name, b.name)
		case a.tid != b.tid:
			return cmp.Compare(a.tid, b.tid)
		case a.left != b.left:
			return cmp.Compare(a.left, b.left)
		case a.right != b.right:
			return cmp.Compare(a.right, b.right)
		case a.depth != b.depth:
			return cmp.Compare(a.depth, b.depth)
		}
		return cmp.Compare(a.id, b.id)
	})

	// Columns, the name partition and the value postings bucketed by value.
	n := len(rows)
	c := &p.Cols
	c.TID, c.Left, c.Right = make([]int32, n), make([]int32, n), make([]int32, n)
	c.Depth, c.ID, c.PID = make([]int32, n), make([]int32, n), make([]int32, n)
	p.NameStarts = make([]int32, len(p.Names)+1)
	p.ValueStarts = make([]int32, len(p.Values)+1)
	for i := range rows {
		r := &rows[i]
		c.TID[i], c.Left[i], c.Right[i] = r.tid, r.left, r.right
		c.Depth[i], c.ID[i], c.PID[i] = r.depth, r.id, r.pid
		p.NameStarts[r.name+1]++
		if r.value >= 0 {
			p.ValueStarts[r.value]++
		} else {
			p.ElemsByLeft = append(p.ElemsByLeft, int32(i))
		}
	}
	inclusiveSum(p.NameStarts)
	p.ValuePost = make([]int32, inclusiveSum(p.ValueStarts))
	for i := len(rows) - 1; i >= 0; i-- {
		if v := rows[i].value; v >= 0 {
			p.ValueStarts[v]--
			p.ValuePost[p.ValueStarts[v]] = int32(i)
		}
	}
	// Within a value, postings go by (tid, id, row): two attributes of one
	// element can share a value, and the row breaks that tie.
	for vi := range p.Values {
		post := p.ValuePost[p.ValueStarts[vi]:p.ValueStarts[vi+1]]
		if len(post) > 1 {
			slices.SortFunc(post, func(a, b int32) int {
				if c.TID[a] != c.TID[b] {
					return cmp.Compare(c.TID[a], c.TID[b])
				}
				return cmp.Or(cmp.Compare(c.ID[a], c.ID[b]), cmp.Compare(a, b))
			})
		}
	}

	slices.SortFunc(p.ElemsByLeft, func(a, b int32) int { return leftCmp(c, a, b) })
	p.Stats = buildStats(p)
	return p
}

// corruptf builds the error every Assemble validation failure reports.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("relstore: corrupt parts: "+format, args...)
}

// The two orders the relation ships, compared on the columns: -1, 0 or +1
// as row a sorts before, with or after row b. Each reads a column only when
// the ones before it tie.

// clusteredCmp is the (tid, left, right, depth, id) order within a name.
func clusteredCmp(c *Cols, a, b int32) int {
	switch {
	case c.TID[a] != c.TID[b]:
		return cmp.Compare(c.TID[a], c.TID[b])
	case c.Left[a] != c.Left[b]:
		return cmp.Compare(c.Left[a], c.Left[b])
	case c.Right[a] != c.Right[b]:
		return cmp.Compare(c.Right[a], c.Right[b])
	case c.Depth[a] != c.Depth[b]:
		return cmp.Compare(c.Depth[a], c.Depth[b])
	}
	return cmp.Compare(c.ID[a], c.ID[b])
}

// leftCmp is document order, (tid, left, depth).
func leftCmp(c *Cols, a, b int32) int {
	if c.TID[a] != c.TID[b] {
		return cmp.Compare(c.TID[a], c.TID[b])
	}
	if c.Left[a] != c.Left[b] {
		return cmp.Compare(c.Left[a], c.Left[b])
	}
	return cmp.Compare(c.Depth[a], c.Depth[b])
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

	// --- The clustered relation: columns + dictionaries -----------------
	// Attribute names all start with '@', so they are one block of the
	// dictionary and their rows one block of the relation.
	an, bn := sort.SearchStrings(p.Names, "@"), sort.SearchStrings(p.Names, "A")
	attrCount := int(p.NameStarts[bn] - p.NameStarts[an])
	elemCount := n - attrCount
	s := &Store{
		scheme:     p.Scheme,
		parts:      p,
		cols:       p.Cols,
		treeCount:  p.TreeCount,
		nameIdx:    make(map[string]int32, len(p.Names)),
		valueIdx:   make(map[string][]int32, len(p.Values)),
		attrNames:  p.Names[an:bn],
		attrStarts: p.NameStarts[an : bn+1],
		attrLo:     p.NameStarts[an],
		attrHi:     p.NameStarts[bn],
	}
	c := &s.cols
	for ni, name := range p.Names {
		lo, hi := p.NameStarts[ni], p.NameStarts[ni+1]
		s.nameIdx[name] = int32(ni)
		for i := lo + 1; i < hi; i++ {
			if clusteredCmp(c, i-1, i) >= 0 {
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
	// As many postings as attribute rows, none twice: every attribute row
	// gets exactly one value id.
	s.attrVal = make([]int32, attrCount)
	for i := range s.attrVal {
		s.attrVal[i] = -1
	}
	for vi, v := range p.Values {
		post := p.ValuePost[p.ValueStarts[vi]:p.ValueStarts[vi+1]]
		for k, ri := range post {
			if ri < 0 || int(ri) >= n {
				return nil, corruptf("value %q posting out of range: %d", v, ri)
			}
			if ri < s.attrLo || ri >= s.attrHi {
				return nil, corruptf("value %q posting %d targets an element row", v, ri)
			}
			if s.attrVal[ri-s.attrLo] >= 0 {
				return nil, corruptf("row %d carries two values", ri)
			}
			s.attrVal[ri-s.attrLo] = int32(vi)
			if k > 0 {
				prev := post[k-1]
				if c.TID[prev] > c.TID[ri] || (c.TID[prev] == c.TID[ri] && c.ID[prev] > c.ID[ri]) ||
					(c.TID[prev] == c.TID[ri] && c.ID[prev] == c.ID[ri] && prev >= ri) {
					return nil, corruptf("value %q postings not in (tid, id, row) order", v)
				}
			}
		}
		s.valueIdx[v] = post
	}

	// --- The document-order element permutation -------------------------
	if len(p.ElemsByLeft) != elemCount {
		return nil, corruptf("elems-by-left covers %d rows, have %d elements", len(p.ElemsByLeft), elemCount)
	}
	for k, ri := range p.ElemsByLeft {
		if ri < 0 || int(ri) >= n || (ri >= s.attrLo && ri < s.attrHi) {
			return nil, corruptf("elems-by-left entry %d invalid", ri)
		}
		if k > 0 && leftCmp(c, p.ElemsByLeft[k-1], ri) >= 0 {
			return nil, corruptf("elems-by-left not in (tid, left, depth) order at %d", k)
		}
	}
	s.elemsByLeft = p.ElemsByLeft

	// --- Position arrays: identity, children, attributes, parents ----------
	if err := s.indexPositions(); err != nil {
		return nil, err
	}
	s.rowSeq = make([]int32, n)
	for i := range s.rowSeq {
		s.rowSeq[i] = int32(i)
	}

	// --- Statistics -------------------------------------------------------
	if err := checkStats(p, elemCount, attrCount); err != nil {
		return nil, err
	}
	s.pairs = s.buildPairs()
	return s, nil
}
