package relstore

import (
	"iter"
	"sort"
	"sync"
	"sync/atomic"

	"lpath/internal/bitset"
	"lpath/internal/tree"
)

// positions is the array form of the {tid, id} and {tid, pid} secondary
// indexes. Both labeling schemes assign ids in preorder from 1, which is the
// (tid, left, depth) order of elemsByLeft, so element (tid, id) lives at
// document-order position treeStart[tid-firstTID]+id-1 and everything keyed
// by an element is an array indexed by that position: the row itself
// (elemsByLeft), its children and its attribute rows (CSR offset + posting
// pairs), and its tree node. All of it is derived from the clustered
// relation by indexPositions, for built and assembled stores alike.
type positions struct {
	firstTID  int32   // smallest tree id (a store of a tree slice keeps their ids)
	treeStart []int32 // tree t = tid-firstTID owns positions [treeStart[t], treeStart[t+1])

	childStart, childRows []int32 // children of position p, left to right
	attrStart, attrRows   []int32 // attribute rows of position p, clustered order

	parentRows []int32     // row → parent element row (see ParentRows)
	elemBits   *bitset.Set // all element rows (see ElementBits)

	// trees[t] holds tree t's nodes once somebody asked for one: Build
	// publishes the caller's trees up front, an assembled store materializes
	// a tree from the columns on its first NodeFor.
	trees      []atomic.Pointer[treeNodes]
	forestOnce sync.Once
	forest     *tree.Corpus
}

// treeNodes is one tree with its nodes in id order.
type treeNodes struct {
	tree  *tree.Tree
	nodes []*tree.Node
}

// indexPositions derives the position arrays from the clustered relation and
// elemsByLeft. It is also the validation of everything they rest on — an id
// outside 1..size(tid) or out of preorder, a duplicate identity, a parent id
// naming no earlier element, an attribute row without its element — so that
// no accessor below can index out of range on an untrusted snapshot. Tree ids
// may span at most maxSpan values.
func (s *Store) indexPositions(maxSpan int) error {
	n, cols, elems := len(s.rows), &s.cols, s.elemsByLeft
	// Attribute names all start with '@', so their rows are one block of the
	// name-clustered relation.
	attrLo := sort.Search(n, func(i int) bool { return s.rows[i].Name >= "@" })
	attrHi := sort.Search(n, func(i int) bool { return s.rows[i].Name >= "A" })
	s.elemBits = bitset.New(n)
	s.elemBits.SetRange(0, int32(attrLo))
	s.elemBits.SetRange(int32(attrHi), int32(n))
	s.parentRows = make([]int32, n)
	s.childStart = make([]int32, len(elems)+1)
	s.attrStart = make([]int32, len(elems)+1)
	s.treeStart = []int32{0}
	if len(elems) == 0 {
		if attrHi > attrLo {
			return corruptf("%d attribute rows without elements", attrHi-attrLo)
		}
		return nil
	}
	s.firstTID = cols.TID[elems[0]]
	span := int64(cols.TID[elems[len(elems)-1]]) - int64(s.firstTID) + 1
	if span < 1 || span > int64(maxSpan) {
		return corruptf("tree ids span %d values, tree count says %d", span, maxSpan)
	}
	s.treeStart = make([]int32, span+1)
	s.rootRows = make([]int32, 0, span)

	// Document-order pass: parents precede children, so a child's parent
	// position is already known to exist, and counting children per parent
	// position here lets the reverse pass below drop them in left-to-right.
	t, start := int64(-1), int32(0) // current tree and its first position
	for k, ri := range elems {
		tid, id, pid := cols.TID[ri], cols.ID[ri], cols.PID[ri]
		if nt := int64(tid) - int64(s.firstTID); nt != t {
			if nt < t || nt >= span {
				return corruptf("tree id %d out of order", tid)
			}
			if id != 1 || pid != 0 {
				return corruptf("tree %d starts at node %d with parent %d, not at its root", tid, id, pid)
			}
			for t < nt {
				t++
				s.treeStart[t] = int32(k)
			}
			start = int32(k)
			s.rootRows = append(s.rootRows, ri)
			s.parentRows[ri] = NoParent
			continue
		}
		if id != int32(k)-start+1 {
			return corruptf("tree %d: element id %d at preorder position %d", tid, id, int32(k)-start+1)
		}
		if pid < 1 || pid >= id {
			return corruptf("tree %d: node %d has unknown parent %d", tid, id, pid)
		}
		s.parentRows[ri] = elems[start+pid-1]
		s.childStart[start+pid-1]++
	}
	s.treeStart[span] = int32(len(elems))
	s.childRows = make([]int32, inclusiveSum(s.childStart))
	for k := len(elems) - 1; k >= 0; k-- {
		ri := elems[k]
		if pid := cols.PID[ri]; pid != 0 {
			pp := s.treeStart[cols.TID[ri]-s.firstTID] + pid - 1
			s.childStart[pp]--
			s.childRows[s.childStart[pp]] = ri
		}
	}

	// Attribute rows share (tid, id) with their element and inherit its
	// parent; the same count-then-reverse-fill keeps each element's rows in
	// clustered order.
	for i := attrLo; i < attrHi; i++ {
		p, ok := s.position(cols.TID[i], cols.ID[i])
		if !ok {
			return corruptf("attribute row %s for unknown element (%d, %d)", s.rows[i].Name, cols.TID[i], cols.ID[i])
		}
		s.parentRows[i] = s.parentRows[elems[p]]
		s.attrStart[p]++
	}
	s.attrRows = make([]int32, inclusiveSum(s.attrStart))
	for i := attrHi - 1; i >= attrLo; i-- {
		p, _ := s.position(cols.TID[i], cols.ID[i])
		s.attrStart[p]--
		s.attrRows[s.attrStart[p]] = int32(i)
	}
	s.trees = make([]atomic.Pointer[treeNodes], span)
	return nil
}

// inclusiveSum turns per-position counts into running totals and returns the
// grand total. Filling postings from the last item backwards, decrementing
// the owner's total before each store, then leaves counts[p] at the start of
// p's postings and counts[p+1] at their end.
func inclusiveSum(counts []int32) int32 {
	var sum int32
	for i, c := range counts {
		sum += c
		counts[i] = sum
	}
	return sum
}

// position returns the document-order position of element (tid, id).
func (s *Store) position(tid, id int32) (int32, bool) {
	t := int64(tid) - int64(s.firstTID)
	if t < 0 || t >= int64(len(s.treeStart)-1) || id < 1 || id > s.treeStart[t+1]-s.treeStart[t] {
		return 0, false
	}
	return s.treeStart[t] + id - 1, true
}

// Pos returns the document-order position of element row ri — its index in
// ElementsByLeft, so ElementsByLeft()[Pos(ri)] == ri. A subtree and a run of
// whole trees are each one contiguous range of positions, which is what lets
// the engine's dense sets clear or walk just the range they used.
func (s *Store) Pos(ri int32) int32 {
	return s.treeStart[s.cols.TID[ri]-s.firstTID] + s.cols.ID[ri] - 1
}

// PosRange returns the positions [lo, hi) of the trees with tid in
// [tidLo, tidHi).
func (s *Store) PosRange(tidLo, tidHi int32) (lo, hi int32) {
	clamp := func(tid int32) int32 {
		t := int64(tid) - int64(s.firstTID)
		return s.treeStart[max(0, min(t, int64(len(s.treeStart)-1)))]
	}
	return clamp(tidLo), clamp(tidHi)
}

// ElementByID returns the element row index for (tid, id).
func (s *Store) ElementByID(tid, id int32) (int32, bool) {
	p, ok := s.position(tid, id)
	if !ok {
		return 0, false
	}
	return s.elemsByLeft[p], true
}

// Attrs returns the attribute row indexes of element (tid, id).
func (s *Store) Attrs(tid, id int32) []int32 {
	p, ok := s.position(tid, id)
	if !ok {
		return nil
	}
	return s.attrRows[s.attrStart[p]:s.attrStart[p+1]]
}

// AttrValue returns the value of the named attribute ('@' prefix included)
// on element (tid, id).
func (s *Store) AttrValue(tid, id int32, name string) (string, bool) {
	for _, i := range s.Attrs(tid, id) {
		if s.rows[i].Name == name {
			return s.rows[i].Value, true
		}
	}
	return "", false
}

// AttrValueBare is AttrValue for an attribute name given without the '@'
// prefix; it avoids the per-call string concatenation a "@"+attr lookup
// would cost in the evaluator's hot predicate loops.
func (s *Store) AttrValueBare(tid, id int32, attr string) (string, bool) {
	for _, i := range s.Attrs(tid, id) {
		if n := s.rows[i].Name; len(n) > 1 && n[0] == '@' && n[1:] == attr {
			return s.rows[i].Value, true
		}
	}
	return "", false
}

// Children returns the element row indexes of the children of (tid, pid) in
// left-to-right order; pid 0, the parent of every root, has the root.
func (s *Store) Children(tid, pid int32) []int32 {
	if pid == 0 {
		if p, ok := s.position(tid, 1); ok {
			return s.elemsByLeft[p : p+1 : p+1]
		}
		return nil
	}
	p, ok := s.position(tid, pid)
	if !ok {
		return nil
	}
	return s.childRows[s.childStart[p]:s.childStart[p+1]]
}

// NodeFor maps a row back to its tree node (element rows and attribute rows
// both map to the element's node). The node is the caller's own on a store
// built from trees; on an assembled store the row's tree — that one tree —
// is materialized from the columns on first request. Either way the same
// (tid, id) yields the same *Node on every call and goroutine.
func (s *Store) NodeFor(r *Row) *tree.Node {
	if _, ok := s.position(r.TID, r.ID); !ok {
		return nil
	}
	return s.treeAt(int(r.TID - s.firstTID)).nodes[r.ID-1]
}

// treeAt returns tree t's nodes, materializing and publishing them if nobody
// has yet; nil for a tree without rows. Concurrent first requests may each
// build the tree, and all but the first to publish drop theirs.
func (s *Store) treeAt(t int) *treeNodes {
	if tn := s.trees[t].Load(); tn != nil {
		return tn
	}
	tn := s.materialize(t)
	if tn != nil && !s.trees[t].CompareAndSwap(nil, tn) {
		tn = s.trees[t].Load()
	}
	return tn
}

// materialize rebuilds tree t from the columns: one node arena and one
// pointer table (node ids, then child slots) per tree, no lookups beyond the
// position arrays.
func (s *Store) materialize(t int) *treeNodes {
	lo, hi := s.treeStart[t], s.treeStart[t+1]
	n := int(hi - lo)
	if n == 0 {
		return nil
	}
	arena := make([]tree.Node, n)
	ptrs := make([]*tree.Node, 2*n-1)
	nodes, kids := ptrs[:n:n], ptrs[n:] // a tree of n nodes has n-1 child slots
	kidBase := s.childStart[lo]
	for k := range arena {
		p, node := lo+int32(k), &arena[k]
		nodes[k] = node
		node.Tag = s.rows[s.elemsByLeft[p]].Name
		if a, b := s.childStart[p]-kidBase, s.childStart[p+1]-kidBase; b > a {
			node.Children = kids[a:b:b]
			for j, cr := range s.childRows[s.childStart[p]:s.childStart[p+1]] {
				child := &arena[s.cols.ID[cr]-1]
				child.Parent = node
				node.Children[j] = child
			}
		}
		for _, ar := range s.attrRows[s.attrStart[p]:s.attrStart[p+1]] {
			node.SetAttr(s.rows[ar].Name, s.rows[ar].Value)
		}
	}
	return &treeNodes{tree: &tree.Tree{ID: int(s.firstTID) + t, Root: &arena[0]}, nodes: nodes}
}

// Forest returns every tree of the store, materializing (once) the ones no
// NodeFor has asked for yet. The trees are the ones NodeFor points into.
func (s *Store) Forest() *tree.Corpus {
	s.forestOnce.Do(func() {
		s.forest = &tree.Corpus{Trees: make([]*tree.Tree, 0, len(s.rootRows))}
		for t := range s.trees {
			if tn := s.treeAt(t); tn != nil {
				s.forest.Trees = append(s.forest.Trees, tn.tree)
			}
		}
	})
	return s.forest
}

// Trees yields every tree in tid order without keeping what it builds: a
// tree nobody has asked NodeFor about is materialized for the one yield and
// left to the collector, so a full pass costs one tree of memory at a time.
func (s *Store) Trees() iter.Seq[*tree.Tree] {
	return func(yield func(*tree.Tree) bool) {
		for t := range s.trees {
			tn := s.trees[t].Load()
			if tn == nil {
				tn = s.materialize(t)
			}
			if tn != nil && !yield(tn.tree) {
				return
			}
		}
	}
}

// TreesBuilt counts the trees NodeFor or Forest have materialized so far (all
// of them on a store built from trees); the laziness tests read it.
func (s *Store) TreesBuilt() int {
	built := 0
	for t := range s.trees {
		if s.trees[t].Load() != nil {
			built++
		}
	}
	return built
}
