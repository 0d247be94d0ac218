// Package bitset provides dense bitsets over document positions or rows of a
// relstore.Store. The engine's position sets (spanSet) are built on them:
// the range kernels ClearRange, CopyRange and AppendRange touch only the
// words covering the range they are given, so clearing, copying or walking a
// set costs the window, subtree or result it was used for, never the store.
//
// A Set is not safe for concurrent mutation; concurrent readers are fine.
package bitset

import "math/bits"

const wordBits = 64

// Set is a dense bitset of a fixed logical length.
type Set struct {
	words []uint64
	n     int // logical length in bits
}

// New returns an empty set of logical length n bits.
func New(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

// Reset clears the set and resizes it to n bits, reusing the word slice when
// it is large enough — the pooling entry point (engine arenas call it when
// recycling sets across evaluations).
func (s *Set) Reset(n int) {
	if n < 0 {
		n = 0
	}
	w := (n + wordBits - 1) / wordBits
	if cap(s.words) < w {
		s.words = make([]uint64, w)
	} else {
		s.words = s.words[:w]
		clear(s.words)
	}
	s.n = n
}

// Len returns the logical length in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i. Out-of-range indexes are ignored.
func (s *Set) Set(i int32) {
	if i < 0 || int(i) >= s.n {
		return
	}
	s.words[i>>6] |= 1 << uint(i&63)
}

// Has reports whether bit i is set. Out-of-range indexes are false.
func (s *Set) Has(i int32) bool {
	if i < 0 || int(i) >= s.n {
		return false
	}
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// SetRange sets every bit in [lo, hi), clamped to the set's length. Interior
// words fill at word granularity, so it costs O(hi-lo)/64.
func (s *Set) SetRange(lo, hi int32) {
	lw, hw, loMask, hiMask, ok := s.span(lo, hi)
	if !ok {
		return
	}
	s.words[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		s.words[w] = ^uint64(0)
	}
	s.words[hw] |= hiMask
}

// span returns the word span [lw, hw] covering bits [lo, hi) clamped to the
// set's length, with the masks selecting the range's bits in the first and
// last word (equal when the span is one word, so applying both is
// idempotent); ok is false for an empty range.
func (s *Set) span(lo, hi int32) (lw, hw int, loMask, hiMask uint64, ok bool) {
	lo = max(lo, 0)
	hi = min(hi, int32(s.n))
	if lo >= hi {
		return 0, 0, 0, 0, false
	}
	lw, hw = int(lo>>6), int((hi-1)>>6)
	loMask = ^uint64(0) << uint(lo&63)
	hiMask = ^uint64(0) >> uint(63-(hi-1)&63)
	if lw == hw {
		loMask &= hiMask
		hiMask = loMask
	}
	return lw, hw, loMask, hiMask, true
}

// ClearRange clears every bit in [lo, hi), writing only the words that cover
// the range: a caller that knows where its bits are resets a large set in
// time proportional to that span, not to the set.
func (s *Set) ClearRange(lo, hi int32) {
	lw, hw, loMask, hiMask, ok := s.span(lo, hi)
	if !ok {
		return
	}
	s.words[lw] &^= loMask
	if hw > lw+1 {
		clear(s.words[lw+1 : hw])
	}
	s.words[hw] &^= hiMask
}

// CopyRange copies o's bits in [lo, hi) into s, leaving s's other bits alone.
func (s *Set) CopyRange(o *Set, lo, hi int32) {
	lw, hw, loMask, hiMask, ok := s.span(lo, min(hi, int32(o.n)))
	if !ok {
		return
	}
	s.words[lw] = s.words[lw]&^loMask | o.words[lw]&loMask
	if hw > lw+1 {
		copy(s.words[lw+1:hw], o.words[lw+1:hw])
	}
	s.words[hw] = s.words[hw]&^hiMask | o.words[hw]&hiMask
}

// AppendRange appends the set bits in [lo, hi) in ascending order to dst and
// returns it, visiting only the words that cover the range.
func (s *Set) AppendRange(dst []int32, lo, hi int32) []int32 {
	lw, hw, loMask, hiMask, ok := s.span(lo, hi)
	if !ok {
		return dst
	}
	for w := lw; w <= hw; w++ {
		word := s.words[w]
		if word == 0 {
			continue
		}
		if w == lw {
			word &= loMask
		}
		if w == hw {
			word &= hiMask
		}
		base := int32(w * wordBits)
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Range calls f on every set bit in ascending order until f returns false.
func (s *Set) Range(f func(i int32) bool) {
	for wi, w := range s.words {
		base := int32(wi * wordBits)
		for w != 0 {
			if !f(base + int32(bits.TrailingZeros64(w))) {
				return
			}
			w &= w - 1
		}
	}
}
