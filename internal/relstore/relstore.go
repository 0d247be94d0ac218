// Package relstore is the embedded relational storage engine beneath the
// LPath query processor. It reproduces the storage organization of Section 5
// of the paper: labeled tree nodes stored in a single relation with schema
//
//	{tid, left, right, depth, id, pid, name, value}
//
// clustered by {name, tid, left, right, depth, id, pid}, with secondary
// indexes {value, tid, id} (attribute values), {tid, id} (node identity) and
// a {tid, pid} index for sibling navigation. Attribute rows carry the same
// (left, right, depth, id, pid) as their element and a name starting with
// '@', exactly as in Figure 5.
//
// The store supports two labeling schemes so the Figure 10 comparison can be
// run on identical machinery: SchemeInterval is the paper's scheme (package
// label); SchemeStartEnd is the conventional XPath labeling of DeHaan et
// al., where left/right are the textual positions of the start and end tags.
package relstore

import (
	"fmt"
	"math"
	"sort"

	"lpath/internal/label"
	"lpath/internal/tree"
)

// Scheme selects how left/right are assigned.
type Scheme int

const (
	// SchemeInterval is the paper's labeling (Definition 4.1): leaf i spans
	// [i, i+1] and a non-terminal spans its leaf descendants.
	SchemeInterval Scheme = iota
	// SchemeStartEnd is the start/end-position labeling used by XPath
	// engines [DeHaan et al., SIGMOD 2001]: left/right are preorder start
	// and postorder end positions, so containment tests descendants but
	// spatial adjacency is not represented.
	SchemeStartEnd
)

func (s Scheme) String() string {
	switch s {
	case SchemeInterval:
		return "interval"
	case SchemeStartEnd:
		return "start-end"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Row is one tuple of the node relation.
type Row struct {
	TID   int32
	Left  int32
	Right int32
	Depth int32
	ID    int32
	PID   int32
	Name  string
	Value string // attribute value; "" for element rows
}

// IsAttr reports whether the row is an attribute row.
func (r *Row) IsAttr() bool { return len(r.Name) > 0 && r.Name[0] == '@' }

// Cols exposes the hot label fields of the clustered relation as parallel
// column arrays, index-aligned with Row(i): Cols().Left[i] == Row(i).Left and
// so on. The set-at-a-time executor's inner comparison loops (the Table 2
// label predicates) run over these flat arrays instead of chasing Row
// structs, so a sweep over a name posting touches cache lines carrying
// nothing but the field it compares. The arrays are rebuilt with the indexes
// and must never be mutated by callers.
type Cols struct {
	TID, Left, Right, Depth, ID, PID []int32
}

// Store is the node relation plus its indexes.
type Store struct {
	scheme Scheme
	rows   []Row // clustered by (name, tid, left, right, depth, id)
	cols   Cols  // hot fields of rows as parallel columns (same order)

	// rowSeq is the identity permutation 0..len(rows)-1, so a clustered
	// range [lo, hi) can be handed out as the row-index slice rowSeq[lo:hi]
	// without materializing a copy.
	rowSeq []int32

	nameIdx  map[string][2]int32 // name → [lo, hi) range in rows
	rightIdx map[string][]int32  // name → element row indexes sorted by (tid, right)
	docIdx   map[string][]int32  // name → element rows in document order, when ≠ clustered order
	valueIdx map[string][]int32  // value → attribute row indexes sorted by (tid, id)

	treeCount int
	rootRows  []int32 // element row index of each tree root, by tid order

	// elemsByLeft doubles as the {tid, id} identity index: ids are dense
	// preorder per tree, so element (tid, id) sits at position
	// treeStart[tid-firstTID]+id-1 (see positions.go).
	elemsByLeft  []int32 // all element rows sorted by (tid, left, depth)
	elemsByRight []int32 // all element rows sorted by (tid, right, left)
	positions

	// Packed (tid, left) document-order sort keys (see DocKey): one per row
	// in clustered order, plus slices parallel to each doc-order
	// permutation, so stream cursors compare one sequential int64 array
	// instead of chasing a permutation through two columns.
	clusterKeys []int64
	docKeys     map[string][]int64
	elemKeys    []int64

	// stats is the build-time statistics snapshot (see stats.go).
	stats *Statistics

	// nameBits caches the per-name dense bitsets (see bitmap.go). Zero value
	// is ready.
	nameBits nameBitsCache
}

// Build labels every tree of the corpus under the scheme and constructs the
// relation and all indexes.
func Build(c *tree.Corpus, scheme Scheme) *Store {
	s := &Store{
		scheme:   scheme,
		nameIdx:  make(map[string][2]int32),
		rightIdx: make(map[string][]int32),
		valueIdx: make(map[string][]int32),
	}
	s.treeCount = c.Len()
	est := c.NodeCount()
	s.rows = make([]Row, 0, est+est/3)
	for _, t := range c.Trees {
		s.appendTree(t)
	}
	s.buildIndexes()
	// The caller's own nodes answer NodeFor: every tree is published up
	// front, its nodes in document order, which is id order.
	for _, t := range c.Trees {
		if t.Root != nil {
			s.trees[int32(t.ID)-s.firstTID].Store(&treeNodes{tree: t, nodes: t.Nodes()})
		}
	}
	return s
}

// appendTree labels one tree and appends its element and attribute rows.
func (s *Store) appendTree(t *tree.Tree) {
	tid := int32(t.ID)
	var labeled []label.Labeled
	switch s.scheme {
	case SchemeInterval:
		labeled = label.Assign(t)
	case SchemeStartEnd:
		labeled = assignStartEnd(t)
	}
	for _, ln := range labeled {
		row := Row{
			TID: tid, Left: ln.Label.Left, Right: ln.Label.Right,
			Depth: ln.Label.Depth, ID: ln.Label.ID, PID: ln.Label.PID,
			Name: ln.Node.Tag,
		}
		s.rows = append(s.rows, row)
		for _, attr := range ln.Node.AttrNames() {
			v, _ := ln.Node.Attr(attr)
			arow := row
			arow.Name = attr
			arow.Value = v
			s.rows = append(s.rows, arow)
		}
	}
}

// assignStartEnd labels a tree with the start/end scheme: positions are
// assigned by a single traversal where entering and leaving a node each
// consume one position, mimicking textual tag offsets.
func assignStartEnd(t *tree.Tree) []label.Labeled {
	if t == nil || t.Root == nil {
		return nil
	}
	out := make([]label.Labeled, 0, 64)
	var pos, nextID int32
	var rec func(n *tree.Node, depth, pid int32)
	rec = func(n *tree.Node, depth, pid int32) {
		nextID++
		id := nextID
		idx := len(out)
		out = append(out, label.Labeled{Node: n})
		pos++
		start := pos
		for _, c := range n.Children {
			rec(c, depth+1, id)
		}
		pos++
		out[idx].Label = label.Label{Left: start, Right: pos, Depth: depth, ID: id, PID: pid}
	}
	rec(t.Root, 1, 0)
	return out
}

func (s *Store) buildIndexes() {
	rows := s.rows
	sort.Slice(rows, func(i, j int) bool {
		a, b := &rows[i], &rows[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
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
	})
	s.cols = Cols{
		TID:   make([]int32, len(rows)),
		Left:  make([]int32, len(rows)),
		Right: make([]int32, len(rows)),
		Depth: make([]int32, len(rows)),
		ID:    make([]int32, len(rows)),
		PID:   make([]int32, len(rows)),
	}
	for i := range rows {
		r := &rows[i]
		s.cols.TID[i], s.cols.Left[i], s.cols.Right[i] = r.TID, r.Left, r.Right
		s.cols.Depth[i], s.cols.ID[i], s.cols.PID[i] = r.Depth, r.ID, r.PID
	}
	var curName string
	var lo int32
	flush := func(hi int32) {
		if curName != "" || hi > lo {
			s.nameIdx[curName] = [2]int32{lo, hi}
		}
	}
	for i := range rows {
		r := &rows[i]
		if i == 0 || r.Name != curName {
			if i > 0 {
				flush(int32(i))
			}
			curName = r.Name
			lo = int32(i)
		}
		if r.IsAttr() {
			s.valueIdx[r.Value] = append(s.valueIdx[r.Value], int32(i))
		}
	}
	if len(rows) > 0 {
		flush(int32(len(rows)))
	}
	// Per-name (tid, right)-ordered element indexes for the reverse
	// horizontal axes.
	for name, rng := range s.nameIdx {
		if name != "" && name[0] == '@' {
			continue
		}
		idxs := make([]int32, 0, rng[1]-rng[0])
		for i := rng[0]; i < rng[1]; i++ {
			idxs = append(idxs, i)
		}
		sort.Slice(idxs, func(a, b int) bool {
			ra, rb := &rows[idxs[a]], &rows[idxs[b]]
			if ra.TID != rb.TID {
				return ra.TID < rb.TID
			}
			if ra.Right != rb.Right {
				return ra.Right < rb.Right
			}
			if ra.Left != rb.Left {
				return ra.Left < rb.Left
			}
			// Same-name unary chains share (left, right); break the tie by
			// depth so the order is total and snapshot-stable.
			return ra.Depth < rb.Depth
		})
		s.rightIdx[name] = idxs
	}
	// Per-name document-order (tid, left, depth) permutations for the
	// holistic twig executor's step streams. The clustered order breaks
	// same-(tid, left) ties by right ascending — innermost first — so a
	// left-aligned same-name nesting like (NP (NP ...) ...) is stored
	// deepest-first, the opposite of document order. The permutation is
	// kept only for names where the two orders actually differ; NameByDoc
	// returns nil otherwise and callers use the clustered range directly.
	s.docIdx = make(map[string][]int32)
	for name, rng := range s.nameIdx {
		if name != "" && name[0] == '@' {
			continue
		}
		need := false
		for i := rng[0] + 1; i < rng[1]; i++ {
			a, b := &rows[i-1], &rows[i]
			if a.TID == b.TID && a.Left == b.Left && a.Depth > b.Depth {
				need = true
				break
			}
		}
		if !need {
			continue
		}
		idxs := make([]int32, 0, rng[1]-rng[0])
		for i := rng[0]; i < rng[1]; i++ {
			idxs = append(idxs, i)
		}
		sort.Slice(idxs, func(a, b int) bool {
			ra, rb := &rows[idxs[a]], &rows[idxs[b]]
			if ra.TID != rb.TID {
				return ra.TID < rb.TID
			}
			if ra.Left != rb.Left {
				return ra.Left < rb.Left
			}
			return ra.Depth < rb.Depth
		})
		s.docIdx[name] = idxs
	}
	// Value postings sorted for deterministic scans.
	for v, idxs := range s.valueIdx {
		sort.Slice(idxs, func(a, b int) bool {
			ra, rb := &rows[idxs[a]], &rows[idxs[b]]
			if ra.TID != rb.TID {
				return ra.TID < rb.TID
			}
			if ra.ID != rb.ID {
				return ra.ID < rb.ID
			}
			// Two attributes of one element can share a value; order the
			// tie by row index so the posting order is total and
			// snapshot-stable.
			return idxs[a] < idxs[b]
		})
		s.valueIdx[v] = idxs
	}
	// Whole-relation document-order indexes for wildcard node tests.
	s.elemsByLeft = make([]int32, 0, len(rows))
	for i := range rows {
		if !rows[i].IsAttr() {
			s.elemsByLeft = append(s.elemsByLeft, int32(i))
		}
	}
	s.elemsByRight = append([]int32(nil), s.elemsByLeft...)
	sort.Slice(s.elemsByLeft, func(a, b int) bool {
		ra, rb := &rows[s.elemsByLeft[a]], &rows[s.elemsByLeft[b]]
		if ra.TID != rb.TID {
			return ra.TID < rb.TID
		}
		if ra.Left != rb.Left {
			return ra.Left < rb.Left
		}
		return ra.Depth < rb.Depth
	})
	sort.Slice(s.elemsByRight, func(a, b int) bool {
		ra, rb := &rows[s.elemsByRight[a]], &rows[s.elemsByRight[b]]
		if ra.TID != rb.TID {
			return ra.TID < rb.TID
		}
		if ra.Right != rb.Right {
			return ra.Right < rb.Right
		}
		if ra.Left != rb.Left {
			return ra.Left < rb.Left
		}
		// Unary chains share (left, right); depth makes the order total and
		// snapshot-stable.
		return ra.Depth < rb.Depth
	})
	s.deriveKeys()
	// Trees come from tree.Corpus with distinct ids, labeled in preorder, so
	// the position index can only fail on a corpus holding one tree twice.
	if err := s.indexPositions(math.MaxInt32); err != nil {
		panic(fmt.Sprintf("relstore: Build: %v", err))
	}
	s.computeStats()
}

// deriveKeys fills what every store derives from its finished permutations:
// the identity row sequence and the packed document-order sort keys — the
// clustered array first, then a parallel slice for every kept permutation
// (built by indirection into the clustered array, so the packing exists in
// exactly one place).
func (s *Store) deriveKeys() {
	s.rowSeq = make([]int32, len(s.rows))
	s.clusterKeys = make([]int64, len(s.rows))
	for i := range s.rows {
		s.rowSeq[i] = int32(i)
		s.clusterKeys[i] = DocKey(s.cols.TID[i], s.cols.Left[i])
	}
	s.docKeys = make(map[string][]int64, len(s.docIdx))
	for name, idxs := range s.docIdx {
		keys := make([]int64, len(idxs))
		for i, ri := range idxs {
			keys[i] = s.clusterKeys[ri]
		}
		s.docKeys[name] = keys
	}
	s.elemKeys = make([]int64, len(s.elemsByLeft))
	for i, ri := range s.elemsByLeft {
		s.elemKeys[i] = s.clusterKeys[ri]
	}
}

// DocKey packs a row's (tid, left) into its int64 document-order sort key —
// the comparison unit of the twig executor's stream cursors.
func DocKey(tid, left int32) int64 { return int64(tid)<<32 | int64(uint32(left)) }

// ClusterKeys returns every row's packed (tid, left) key in clustered order;
// a clustered name range [lo, hi) doubles as its document-order key slice
// ClusterKeys()[lo:hi].
func (s *Store) ClusterKeys() []int64 { return s.clusterKeys }

// NameKeysByDoc returns the packed key slice parallel to NameByDoc — nil
// exactly when NameByDoc is nil.
func (s *Store) NameKeysByDoc(name string) []int64 { return s.docKeys[name] }

// ElementKeys returns the packed key slice parallel to ElementsByLeft.
func (s *Store) ElementKeys() []int64 { return s.elemKeys }

// ElementsByLeft returns every element row index ordered by (tid, left,
// depth) — document order. Used for wildcard node tests.
func (s *Store) ElementsByLeft() []int32 { return s.elemsByLeft }

// ElementsByRight returns every element row index ordered by (tid, right).
func (s *Store) ElementsByRight() []int32 { return s.elemsByRight }

// Scheme returns the labeling scheme the store was built with.
func (s *Store) Scheme() Scheme { return s.scheme }

// Len returns the total number of rows (element + attribute).
func (s *Store) Len() int { return len(s.rows) }

// TreeCount returns the number of trees stored.
func (s *Store) TreeCount() int { return s.treeCount }

// Row returns the i-th row of the clustered relation.
func (s *Store) Row(i int32) *Row { return &s.rows[i] }

// Cols returns the columnar view of the clustered relation's hot label
// fields. The arrays are index-aligned with Row and read-only.
func (s *Store) Cols() *Cols { return &s.cols }

// RowSeq returns the identity permutation over row indexes, so the clustered
// name range [lo, hi) can be used as the row-index slice RowSeq()[lo:hi]
// without copying. Read-only.
func (s *Store) RowSeq() []int32 { return s.rowSeq }

// Name returns the clustered range of rows with the given name (a tag, or an
// attribute name with leading '@') as a subslice view, sorted by
// (tid, left, right, depth, id).
func (s *Store) Name(name string) []Row {
	rng, ok := s.nameIdx[name]
	if !ok {
		return nil
	}
	return s.rows[rng[0]:rng[1]]
}

// NameByDoc returns the element row indexes for the name in document order
// (tid, left, depth), or nil when the clustered range is already
// document-ordered — callers then use RowSeq()[lo:hi] directly. Built only
// for names with a left-aligned same-name nesting, so it is nil for most
// names.
func (s *Store) NameByDoc(name string) []int32 { return s.docIdx[name] }

// NameRange returns the clustered [lo, hi) row-index range for a name.
func (s *Store) NameRange(name string) (lo, hi int32, ok bool) {
	rng, ok := s.nameIdx[name]
	return rng[0], rng[1], ok
}

// Names returns every distinct element tag in the store.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.nameIdx))
	for n := range s.nameIdx {
		if len(n) > 0 && n[0] == '@' {
			continue
		}
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NameCount returns the number of rows clustered under the name — the
// selectivity statistic the planner orders joins by.
func (s *Store) NameCount(name string) int {
	rng, ok := s.nameIdx[name]
	if !ok {
		return 0
	}
	return int(rng[1] - rng[0])
}

// ElementCount returns the total number of element rows.
func (s *Store) ElementCount() int { return len(s.elemsByLeft) }

// NameByRight returns the element row indexes for the name ordered by
// (tid, right); used by the preceding/immediate-preceding probes.
func (s *Store) NameByRight(name string) []int32 { return s.rightIdx[name] }

// ByValue returns the attribute row indexes whose value equals v, ordered by
// (tid, id).
func (s *Store) ByValue(v string) []int32 { return s.valueIdx[v] }

// Roots returns the element row indexes of the tree roots.
func (s *Store) Roots() []int32 { return s.rootRows }
