package engine

import "lpath/internal/bitset"

// arena is an evalCtx-owned pool of scratch buffers, so steady-state
// evaluation of a compiled plan allocates near zero: every intermediate
// candidate list, binding frontier and dedup set is drawn from freelists
// that survive across evaluations (the evalCtx itself is pooled on the
// Engine).
//
// Ownership protocol:
//   - get* hands out an empty buffer the caller owns; the caller returns it
//     with the matching put* exactly once, after its last use.
//   - Store-owned slices (name ranges via RowSeq, ElementsByLeft, child
//     lists, ...) are "borrowed": they must never be mutated or put back.
//     Call sites track borrowed-ness explicitly and materialize into an
//     arena buffer before any in-place filtering or sorting.
//   - A filtered view v := compact-in-place(buf) shares buf's backing array;
//     only the original buf is ever put back, once.
//
// maxPooledSet bounds the entry count of maps returned to the pool. Go maps
// never shrink and clear() costs O(capacity), so pooling a set that once held
// thousands of entries would tax every later borrower with the peak query's
// clear cost — a cheap query running after a heavy one would pay the heavy
// query's bill on every get/put cycle. Oversized sets go to the GC instead;
// the rare evaluations that need them re-grow fresh ones, paying their own
// way (a handful of allocations against a runtime already proportional to
// the set size).
const maxPooledSet = 256

type arena struct {
	ints     [][]int32
	binds    [][]bind
	bindSets []map[bind]bool
	sets     []*spanSet
	setLen   int // bits per set: the store's row count
	// reach is the descendant kernel's per-leaf summary, indexed like
	// document positions: entries are epoch<<reachBits | right edge, and
	// only entries of the current epoch count.
	reach []uint32
	epoch uint32
}

const (
	reachBits = 16
	reachMask = 1<<reachBits - 1
)

// getReach returns the per-leaf summary, at least n long, with a fresh
// epoch: every entry left by an earlier walk reads as absent. When the
// epochs wrap the array is cleared once.
func (a *arena) getReach(n int) ([]uint32, uint32) {
	if len(a.reach) < n {
		a.reach = make([]uint32, n)
	}
	a.epoch++
	if a.epoch == 1<<(32-reachBits) {
		clear(a.reach)
		a.epoch = 1
	}
	return a.reach, a.epoch
}

func (a *arena) getInts() []int32 {
	if n := len(a.ints); n > 0 {
		s := a.ints[n-1]
		a.ints = a.ints[:n-1]
		return s
	}
	return make([]int32, 0, 64)
}

func (a *arena) putInts(s []int32) {
	if cap(s) == 0 {
		return
	}
	a.ints = append(a.ints, s[:0])
}

func (a *arena) getBinds() []bind {
	if n := len(a.binds); n > 0 {
		s := a.binds[n-1]
		a.binds = a.binds[:n-1]
		return s
	}
	return make([]bind, 0, 64)
}

func (a *arena) putBinds(s []bind) {
	if cap(s) == 0 {
		return
	}
	a.binds = append(a.binds, s[:0])
}

// getSet hands out an empty dense set over the store's rows (or their
// document positions, which are fewer). Sets pool without a size cap:
// putSet clears only the span a set was used over, so a set that once
// covered the whole store costs a later borrower nothing extra.
func (a *arena) getSet() *spanSet {
	if k := len(a.sets); k > 0 {
		s := a.sets[k-1]
		a.sets = a.sets[:k-1]
		return s
	}
	s := &spanSet{lo: maxInt32}
	s.bits.Reset(a.setLen)
	return s
}

func (a *arena) putSet(s *spanSet) {
	s.clear()
	a.sets = append(a.sets, s)
}

func (a *arena) getBindSet() map[bind]bool {
	if n := len(a.bindSets); n > 0 {
		m := a.bindSets[n-1]
		a.bindSets = a.bindSets[:n-1]
		return m
	}
	return make(map[bind]bool, 64)
}

func (a *arena) putBindSet(m map[bind]bool) {
	if len(m) > maxPooledSet {
		return
	}
	clear(m)
	a.bindSets = append(a.bindSets, m)
}

// spanSet is a dense set over document positions (relstore.Store.Pos) or
// rows that tracks the span of indexes added since it was last cleared. A
// subtree, a tree and a streaming tid window are each one contiguous
// position range, and a one-name frontier one clustered row range per
// window, so clearing or walking a set costs the window, subtree or result
// it was used for — never the whole store.
type spanSet struct {
	bits   bitset.Set
	lo, hi int32 // added indexes lie in [lo, hi); lo > hi when empty
}

func (s *spanSet) add(p int32) {
	s.bits.Set(p)
	s.lo = min(s.lo, p)
	s.hi = max(s.hi, p+1)
}

func (s *spanSet) has(p int32) bool { return s.bits.Has(p) }

// clear empties the set, writing only the words of its span.
func (s *spanSet) clear() {
	s.bits.ClearRange(s.lo, s.hi)
	s.lo, s.hi = maxInt32, 0
}
