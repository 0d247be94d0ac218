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
// '@', exactly as in Figure 5. No index is ordered by right: the reverse
// axes read the left order and the child lists.
//
// The relation is held once, column-wise: six label columns in clustered
// order (Cols), the name dictionary whose ranges partition them (a row's
// name is the range that holds it) and one value id per attribute row. Every
// store is made by Assemble from its Parts — Build labels a corpus and fills
// them, a snapshot load reads them (parts.go) — and Row builds a by-value
// tuple from the columns for tests and cold paths.
//
// The store supports two labeling schemes so the Figure 10 comparison can be
// run on identical machinery: SchemeInterval is the paper's scheme (package
// label); SchemeStartEnd is the conventional XPath labeling of DeHaan et
// al., where left/right are the textual positions of the start and end tags.
package relstore

import (
	"fmt"
	"maps"
	"slices"
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

// Row is one tuple of the node relation. The store keeps no rows: Row(i)
// builds one by value from the columns and the dictionaries, for tests and
// cold paths.
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
func (r Row) IsAttr() bool { return len(r.Name) > 0 && r.Name[0] == '@' }

// Cols is the node relation's label columns in clustered order: Cols().Left[i]
// is row i's left and so on. Together with the name dictionary (a row's name
// is the clustered range that holds it) and the value ids of the attribute
// block they are the store's only copy of the relation. The set-at-a-time
// executor's inner comparison loops (the Table 2 label predicates) run over
// these flat arrays, so a sweep over a name posting touches cache lines
// carrying nothing but the field it compares. Read-only.
type Cols struct {
	TID, Left, Right, Depth, ID, PID []int32
}

// Label returns row i's label.
func (c *Cols) Label(i int32) label.Label {
	return label.Label{Left: c.Left[i], Right: c.Right[i], Depth: c.Depth[i], ID: c.ID[i], PID: c.PID[i]}
}

// Store is the node relation plus its indexes.
type Store struct {
	scheme Scheme
	parts  *Parts // what the store was assembled from; Parts returns it
	cols   Cols   // clustered by (name, tid, left, right, depth, id)

	// rowSeq is the identity permutation 0..Len()-1, so a clustered range
	// [lo, hi) can be handed out as the row-index slice rowSeq[lo:hi]
	// without materializing a copy.
	rowSeq []int32

	nameIdx  map[string]int32   // name → its index in the name dictionary
	valueIdx map[string][]int32 // value → attribute row indexes sorted by (tid, id)

	// Attribute names all start with '@', so they are one block of the name
	// dictionary, attrNames with ranges partitioned by attrStarts, and their
	// rows the block [attrLo, attrHi) of the relation. attrVal[i-attrLo] is
	// the value id of attribute row i.
	attrNames      []string
	attrStarts     []int32
	attrLo, attrHi int32
	attrVal        []int32

	treeCount int
	rootRows  []int32 // element row index of each tree root, by tid order

	// elemsByLeft doubles as the {tid, id} identity index: ids are dense
	// preorder per tree, so element (tid, id) sits at position
	// treeStart[tid-firstTID]+id-1 (see positions.go).
	elemsByLeft []int32 // all element rows sorted by (tid, left, depth)
	positions

	pairs *TagPairs // the tag-pair summary (pairs.go); nil past maxPairNames
}

// Build labels every tree of the corpus under the scheme and assembles the
// store from the parts it fills (buildParts): Build is Assemble of its own
// snapshot image, so a built and a loaded store are one kind of store.
func Build(c *tree.Corpus, scheme Scheme) *Store {
	names, values := dict{}, dict{}
	est := c.NodeCount()
	rows := make([]labeled, 0, est+est/3)
	for _, t := range c.Trees {
		rows = appendTree(rows, t, scheme, names, values)
	}
	s, err := Assemble(buildParts(rows, names, values, scheme, c.Len()))
	if err != nil {
		// Trees come from tree.Corpus labeled in preorder, so only a corpus
		// Assemble cannot hold — one tree id twice, tree ids spread wider
		// than its nodes, an empty or '@' tag — is rejected.
		panic(fmt.Sprintf("relstore: Build: %v", err))
	}
	// The caller's own nodes answer NodeFor: every tree is published up
	// front, its nodes in document order, which is id order.
	for _, t := range c.Trees {
		if t.Root != nil {
			s.trees[int32(t.ID)-s.firstTID].Store(&treeNodes{tree: t, nodes: t.Nodes()})
		}
	}
	return s
}

// labeled is a row of the relation before clustering: its name and value
// (-1 for an element row) are ids in dictionaries that are not sorted yet.
type labeled struct {
	name, tid, left, right, depth, id, pid, value int32
}

// dict interns strings, giving ids in first-seen order.
type dict map[string]int32

func (d dict) id(str string) int32 {
	id, ok := d[str]
	if !ok {
		id = int32(len(d))
		d[str] = id
	}
	return id
}

// sorted returns the strings ascending and, for each id, its rank there.
func (d dict) sorted() (strs []string, rank []int32) {
	strs = slices.Sorted(maps.Keys(d))
	rank = make([]int32, len(strs))
	for r, str := range strs {
		rank[d[str]] = int32(r)
	}
	return strs, rank
}

// appendTree labels one tree and appends its element and attribute rows.
func appendTree(rows []labeled, t *tree.Tree, scheme Scheme, names, values dict) []labeled {
	tid := int32(t.ID)
	var labels []label.Labeled
	switch scheme {
	case SchemeInterval:
		labels = label.Assign(t)
	case SchemeStartEnd:
		labels = assignStartEnd(t)
	}
	for _, ln := range labels {
		row := labeled{
			name: names.id(ln.Node.Tag), tid: tid, left: ln.Label.Left, right: ln.Label.Right,
			depth: ln.Label.Depth, id: ln.Label.ID, pid: ln.Label.PID, value: -1,
		}
		rows = append(rows, row)
		for _, attr := range ln.Node.AttrNames() {
			v, _ := ln.Node.Attr(attr)
			row.name, row.value = names.id(attr), values.id(v)
			rows = append(rows, row)
		}
	}
	return rows
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

// ElementsByLeft returns every element row index ordered by (tid, left,
// depth) — document order. Used for wildcard node tests.
func (s *Store) ElementsByLeft() []int32 { return s.elemsByLeft }

// Scheme returns the labeling scheme the store was built with.
func (s *Store) Scheme() Scheme { return s.scheme }

// Len returns the total number of rows (element + attribute).
func (s *Store) Len() int { return len(s.cols.TID) }

// TreeCount returns the number of trees stored.
func (s *Store) TreeCount() int { return s.treeCount }

// Row builds the i-th row of the clustered relation from the columns and the
// dictionaries. It costs a dictionary search per call: engine loops read
// Cols and test names as row ranges (NameRange) instead.
func (s *Store) Row(i int32) Row {
	r := Row{
		TID: s.cols.TID[i], Left: s.cols.Left[i], Right: s.cols.Right[i],
		Depth: s.cols.Depth[i], ID: s.cols.ID[i], PID: s.cols.PID[i],
		Name: s.nameOf(i),
	}
	if i >= s.attrLo && i < s.attrHi {
		r.Value = s.valueOf(i)
	}
	return r
}

// nameOf returns row i's name: the dictionary entry whose clustered range
// holds it.
func (s *Store) nameOf(i int32) string {
	starts := s.parts.NameStarts
	return s.parts.Names[sort.Search(len(s.parts.Names), func(k int) bool { return starts[k+1] > i })]
}

// valueOf returns the value of attribute row i.
func (s *Store) valueOf(i int32) string { return s.parts.Values[s.attrVal[i-s.attrLo]] }

// Cols returns the clustered relation's label columns. Read-only.
func (s *Store) Cols() *Cols { return &s.cols }

// RowSeq returns the identity permutation over row indexes, so the clustered
// name range [lo, hi) can be used as the row-index slice RowSeq()[lo:hi]
// without copying. Read-only.
func (s *Store) RowSeq() []int32 { return s.rowSeq }

// NameID returns a name's index in the name dictionary (Parts().Names):
// its clustered range is [NameStarts[id], NameStarts[id+1]), and the
// per-name statistics of Parts (Stats.NameFanout, Stats.NameSpan) and the
// tag-pair summary's rows are indexed by it.
func (s *Store) NameID(name string) (int, bool) {
	id, ok := s.nameIdx[name]
	return int(id), ok
}

// NameRange returns the clustered [lo, hi) row-index range for a name.
func (s *Store) NameRange(name string) (lo, hi int32, ok bool) {
	id, ok := s.nameIdx[name]
	if !ok {
		return 0, 0, false
	}
	return s.parts.NameStarts[id], s.parts.NameStarts[id+1], true
}

// NameCount returns the number of rows clustered under the name — the
// selectivity statistic the planner orders joins by.
func (s *Store) NameCount(name string) int {
	lo, hi, _ := s.NameRange(name)
	return int(hi - lo)
}

// ElementCount returns the total number of element rows.
func (s *Store) ElementCount() int { return len(s.elemsByLeft) }

// ByValue returns the attribute row indexes whose value equals v, ordered by
// (tid, id).
func (s *Store) ByValue(v string) []int32 { return s.valueIdx[v] }

// Roots returns the element row indexes of the tree roots.
func (s *Store) Roots() []int32 { return s.rootRows }
