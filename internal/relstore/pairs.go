package relstore

import "slices"

// Pair is one relation of the tag-pair summary (docs/PLANNER.md, "Empty
// answers"): (A, B) is in it when some A is the parent, a proper ancestor,
// the previous sibling or an earlier sibling of some B.
type Pair int

const (
	PairChild Pair = iota
	PairDescendant
	PairNextSibling
	PairFollowingSibling
)

// maxPairNames bounds the quadratic summary at 8 MB; a store with more
// names in its dictionary has none.
const maxPairNames = 4096

// TagPairs holds one bit matrix per Pair over the name dictionary, indexed
// by Store.NameID: bit B of row A is set when (A, B) is in the relation. An
// attribute name's row and column are empty. Assemble derives it, so built
// and opened stores both have it; the snapshot format does not. Immutable.
type TagPairs struct {
	Words int // 64-bit words per row
	rows  [4][]uint64
}

// Pairs returns the store's tag-pair summary, or nil when its dictionary
// holds more than maxPairNames names.
func (s *Store) Pairs() *TagPairs { return s.pairs }

// Row returns row a of relation r. Read-only.
func (tp *TagPairs) Row(r Pair, a int) []uint64 { return tp.rows[r][a*tp.Words : (a+1)*tp.Words] }

func (tp *TagPairs) set(r Pair, a, b uint16) { tp.rows[r][int(a)*tp.Words+int(b>>6)] |= 1 << (b & 63) }

// buildPairs derives the summary in one preorder pass that keeps the open
// ancestors on a stack and, per stack level, the names of the current
// node's earlier siblings; the entry popped last before a node's parent is
// its previous sibling. The one per-element buffer, each position's name
// id, is dropped on return. Nil for more than maxPairNames names, or ids
// that are not a preorder.
func (s *Store) buildPairs() *TagPairs {
	names, starts, c := s.parts.Names, s.parts.NameStarts, &s.cols
	if len(names) > maxPairNames {
		return nil
	}
	tp := &TagPairs{Words: (len(names) + 63) / 64}
	for r := range tp.rows {
		tp.rows[r] = make([]uint64, len(names)*tp.Words)
	}
	nameAt := make([]uint16, len(s.elemsByLeft))
	for id, name := range names {
		if name[0] == '@' {
			continue
		}
		for ri := starts[id]; ri < starts[id+1]; ri++ {
			nameAt[s.Pos(ri)] = uint16(id)
		}
	}
	var stack []int32
	var earlier [][]uint16 // earlier[d]: distinct names before the node at stack level d
	for k, ri := range s.elemsByLeft {
		prev := int32(-1)
		if c.PID[ri] == 0 {
			stack = stack[:0]
		} else {
			parent := int32(k) - c.ID[ri] + c.PID[ri]
			for len(stack) > 0 && stack[len(stack)-1] != parent {
				prev, stack = stack[len(stack)-1], stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				return nil
			}
			tp.set(PairChild, nameAt[parent], nameAt[k])
		}
		for _, anc := range stack {
			tp.set(PairDescendant, nameAt[anc], nameAt[k])
		}
		d := len(stack)
		if d == len(earlier) {
			earlier = append(earlier, nil)
		}
		if prev < 0 {
			earlier[d] = earlier[d][:0]
		} else {
			tp.set(PairNextSibling, nameAt[prev], nameAt[k])
		}
		for _, a := range earlier[d] {
			tp.set(PairFollowingSibling, a, nameAt[k])
		}
		if !slices.Contains(earlier[d], nameAt[k]) {
			earlier[d] = append(earlier[d], nameAt[k])
		}
		stack = append(stack, int32(k))
	}
	return tp
}
