package relstore

import (
	"sync"

	"lpath/internal/bitset"
)

// Bitmap-executor support: a parent-pointer column and dense bitsets over the
// clustered row index (docs/EXECUTION.md, "Bitmap filter kernels"). The
// parent column and the element bitset come out of the position-index pass
// every store runs at construction (positions.go); the per-name bitsets are
// built lazily on first use, guarded for the concurrent readers that share
// one store.

// nameBitsCache holds the lazily built per-name bitsets.
type nameBitsCache struct {
	mu   sync.RWMutex
	bits map[string]*bitset.Set // name → rows of that name
}

// NoParent marks a row without a parent element row in ParentRows (tree
// roots and their attribute rows).
const NoParent int32 = -1

// ParentRows returns the parent column: for every clustered row i, the row
// index of its parent element (NoParent for tree roots). Attribute rows map
// to their owning element's parent, matching the (left, right, depth, id,
// pid) labels they share with it. Read-only.
//
// This is the column that turns the engine's per-scope child probing into
// two array loads and a bit test: a candidate x is a child of some scope s
// exactly when scopeBits.Has(ParentRows()[x]).
func (s *Store) ParentRows() []int32 { return s.parentRows }

// ElementBits returns the bitset of all element rows (attribute rows clear).
// Read-only; callers needing a mutable copy must CopyFrom it.
func (s *Store) ElementBits() *bitset.Set { return s.elemBits }

// NameBits returns the bitset of rows clustered under the name — the O(1)
// word-fill conversion of a clustered posting range (SetRange over
// [lo, hi)). Built lazily per name and cached for the store's lifetime; the
// returned set is shared and read-only.
func (s *Store) NameBits(name string) *bitset.Set {
	s.nameBits.mu.RLock()
	b := s.nameBits.bits[name]
	s.nameBits.mu.RUnlock()
	if b != nil {
		return b
	}
	s.nameBits.mu.Lock()
	defer s.nameBits.mu.Unlock()
	if b = s.nameBits.bits[name]; b != nil {
		return b
	}
	b = bitset.New(len(s.rows))
	if rng, ok := s.nameIdx[name]; ok {
		b.SetRange(rng[0], rng[1])
	}
	if s.nameBits.bits == nil {
		s.nameBits.bits = make(map[string]*bitset.Set)
	}
	s.nameBits.bits[name] = b
	return b
}
