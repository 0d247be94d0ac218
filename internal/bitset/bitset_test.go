package bitset

import (
	"math/rand"
	"testing"
)

// oracle is the map-based reference the property tests compare against.
type oracle map[int32]bool

func (o oracle) collect(n int) []int32 {
	var out []int32
	for i := int32(0); int(i) < n; i++ {
		if o[i] {
			out = append(out, i)
		}
	}
	return out
}

// newSet returns an empty set of n bits.
func newSet(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

// fill sets every bit in [lo, hi).
func fill(s *Set, lo, hi int32) {
	for i := lo; i < hi; i++ {
		s.Set(i)
	}
}

// count is the number of set bits, read through AppendRange.
func count(s *Set) int { return len(s.AppendRange(nil, 0, int32(s.Len()))) }

func equal(t *testing.T, what string, s *Set, o oracle) {
	t.Helper()
	n := s.Len()
	want := o.collect(n)
	got := s.AppendRange(nil, 0, int32(n))
	if len(got) != len(want) {
		t.Fatalf("%s: %d bits, oracle %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bit %d differs: got %d want %d", what, i, got[i], want[i])
		}
	}
	for _, i := range []int32{-1, int32(n), int32(n + 63)} {
		if s.Has(i) {
			t.Errorf("%s: Has(%d) out of range true", what, i)
		}
	}
}

func randSet(rng *rand.Rand, n int) (*Set, oracle) {
	s, o := newSet(n), oracle{}
	for k := 0; k < n/2; k++ {
		i := int32(rng.Intn(n))
		s.Set(i)
		o[i] = true
	}
	return s, o
}

// TestEmptyAndFull pins the degenerate sets: zero-length, all-clear, and
// all-set then cleared again via ClearRange.
func TestEmptyAndFull(t *testing.T) {
	z := &Set{}
	z.Set(0) // ignored
	if z.Len() != 0 || len(z.AppendRange(nil, 0, 1)) != 0 {
		t.Error("zero-value set is not empty")
	}

	for _, n := range []int{64, 65, 130} {
		full := newSet(n)
		fill(full, 0, int32(n))
		if count(full) != n {
			t.Errorf("full(%d) has %d bits", n, count(full))
		}
		full.ClearRange(0, int32(n))
		if count(full) != 0 {
			t.Errorf("cleared full(%d) has %d bits", n, count(full))
		}
	}
}

// TestResetReuse pins that Reset reuses capacity and clears content, and that
// shrinking then growing inside capacity never exposes stale words.
func TestResetReuse(t *testing.T) {
	s := newSet(256)
	fill(s, 0, 256)
	s.Reset(100)
	if s.Len() != 100 || count(s) != 0 {
		t.Fatalf("Reset(100): len=%d count=%d", s.Len(), count(s))
	}
	s.Set(99)
	s.Reset(256)
	if count(s) != 0 {
		t.Fatal("Reset(256) exposed stale bits")
	}
	s.Reset(-5)
	if s.Len() != 0 {
		t.Fatalf("Reset(-5): len=%d", s.Len())
	}
}

// TestRangeKernelsAgainstOracle drives ClearRange and AppendRange over
// random sets and ranges straddling word boundaries, against the oracle.
func TestRangeKernelsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 63, 64, 65, 200, 1000} {
		for iter := 0; iter < 50; iter++ {
			lo := int32(rng.Intn(n+10)) - 5
			hi := lo + int32(rng.Intn(n+10))
			in := func(i int32) bool { return i >= lo && i < hi }

			s, o := randSet(rng, n)
			var want []int32
			for _, i := range o.collect(n) {
				if in(i) {
					want = append(want, i)
				}
			}
			if got := s.AppendRange(nil, lo, hi); len(got) != len(want) {
				t.Fatalf("n=%d AppendRange(%d, %d) = %v, want %v", n, lo, hi, got, want)
			} else {
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("n=%d AppendRange(%d, %d) = %v, want %v", n, lo, hi, got, want)
					}
				}
			}

			s.ClearRange(lo, hi)
			for i := range o {
				if in(i) {
					delete(o, i)
				}
			}
			equal(t, "ClearRange", s, o)
		}
	}
}

// TestClearRangeTouchesOnlyItsWords pins the cost contract the engine's
// position sets rely on: clearing a range writes only the words covering it,
// so a word outside the range keeps whatever it holds.
func TestClearRangeTouchesOnlyItsWords(t *testing.T) {
	s := newSet(64 * 10)
	fill(s, 0, int32(s.Len()))
	s.ClearRange(64*3+5, 64*6+7)
	for w := range s.words {
		switch {
		case w < 3 || w > 6:
			if s.words[w] != ^uint64(0) {
				t.Errorf("word %d outside the range changed: %#x", w, s.words[w])
			}
		case w == 3:
			if s.words[w] != 1<<5-1 {
				t.Errorf("first word %#x, want only the bits below the range", s.words[w])
			}
		case w == 6:
			if s.words[w] != ^uint64(1<<7-1) {
				t.Errorf("last word %#x, want only the bits above the range", s.words[w])
			}
		default:
			if s.words[w] != 0 {
				t.Errorf("word %d inside the range not cleared: %#x", w, s.words[w])
			}
		}
	}
}
