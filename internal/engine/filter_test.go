package engine

import "testing"

// TestSpanSetClearTouchesOnlyItsSpan pins the reset contract of the engine's
// dense sets: clearing costs the span of indexes added since the last clear —
// a stream window's positions, not the store — and leaves every word outside
// that span untouched.
func TestSpanSetClearTouchesOnlyItsSpan(t *testing.T) {
	a := &arena{setLen: 64 * 8}
	s := a.getSet()
	// Sentinels planted behind the set's back, in words the span never
	// reaches: a clear that swept the whole set would wipe them.
	s.bits.Set(3)
	s.bits.Set(64*7 + 9)
	for _, p := range []int32{64*2 + 1, 64*3 + 40, 64*5 + 2} {
		s.add(p)
	}
	if s.lo != 64*2+1 || s.hi != 64*5+3 {
		t.Fatalf("span [%d, %d), want [%d, %d)", s.lo, s.hi, 64*2+1, 64*5+3)
	}
	a.putSet(s)
	for _, p := range []int32{64*2 + 1, 64*3 + 40, 64*5 + 2} {
		if s.has(p) {
			t.Errorf("position %d survived the clear", p)
		}
	}
	if !s.has(3) || !s.has(64*7+9) {
		t.Error("clear wrote outside the set's span")
	}
	if s.lo <= s.hi {
		t.Errorf("cleared set keeps span [%d, %d)", s.lo, s.hi)
	}
}
