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
	if s.Count() != len(want) {
		t.Errorf("%s: Count = %d, want %d", what, s.Count(), len(want))
	}
	for _, i := range []int32{-1, int32(n), int32(n + 63)} {
		if s.Has(i) {
			t.Errorf("%s: Has(%d) out of range true", what, i)
		}
	}
}

func randSet(rng *rand.Rand, n int) (*Set, oracle) {
	s, o := New(n), oracle{}
	for k := 0; k < n/2; k++ {
		i := int32(rng.Intn(n))
		s.Set(i)
		o[i] = true
	}
	return s, o
}

// TestSetRangeAgainstOracle checks the word-masked range fill at every
// boundary combination, including empty and inverted ranges.
func TestSetRangeAgainstOracle(t *testing.T) {
	n := 200
	for _, r := range [][2]int32{
		{0, 0}, {0, 1}, {0, 64}, {0, 200}, {63, 64}, {63, 65}, {64, 128},
		{1, 199}, {127, 129}, {5, 5}, {10, 5}, {-3, 70}, {190, 300},
	} {
		s := New(n)
		s.SetRange(r[0], r[1])
		o := oracle{}
		for i := max(r[0], 0); i < min(r[1], int32(n)); i++ {
			o[i] = true
		}
		equal(t, "SetRange", s, o)
	}
}

// TestEmptyAndFull pins the degenerate sets: zero-length, all-clear, and
// all-set via SetRange and cleared again via ClearRange.
func TestEmptyAndFull(t *testing.T) {
	z := New(0)
	if z.Count() != 0 || len(z.AppendRange(nil, 0, 1)) != 0 {
		t.Error("zero-length set is not empty")
	}
	z.Set(0)         // ignored
	z.SetRange(0, 1) // clamped away
	if z.Count() != 0 {
		t.Error("zero-length set gained bits")
	}

	for _, n := range []int{64, 65, 130} {
		full := New(n)
		full.SetRange(0, int32(n))
		if full.Count() != n || len(full.AppendRange(nil, 0, int32(n))) != n {
			t.Errorf("full(%d): Count = %d", n, full.Count())
		}
		full.ClearRange(0, int32(n))
		if full.Count() != 0 {
			t.Errorf("cleared full(%d) has %d bits", n, full.Count())
		}
	}
}

// TestResetReuse pins that Reset reuses capacity and clears content, and that
// shrinking then growing inside capacity never exposes stale words.
func TestResetReuse(t *testing.T) {
	s := New(256)
	s.SetRange(0, 256)
	s.Reset(100)
	if s.Len() != 100 || s.Count() != 0 {
		t.Fatalf("Reset(100): len=%d count=%d", s.Len(), s.Count())
	}
	s.Set(99)
	s.Reset(256)
	if s.Count() != 0 {
		t.Fatal("Reset(256) exposed stale bits")
	}
	s.Reset(-5)
	if s.Len() != 0 {
		t.Fatalf("Reset(-5): len=%d", s.Len())
	}
}

// TestRangeEarlyStop pins that Range stops when the callback returns false.
func TestRangeEarlyStop(t *testing.T) {
	s := New(200)
	for _, i := range []int32{3, 70, 140, 199} {
		s.Set(i)
	}
	var seen []int32
	s.Range(func(i int32) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 70 {
		t.Fatalf("Range early stop: %v", seen)
	}
}

// TestRangeKernelsAgainstOracle drives ClearRange, CopyRange and AppendRange
// over random sets and ranges straddling word boundaries, against the oracle.
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

			src, so := randSet(rng, n)
			s.CopyRange(src, lo, hi)
			for i := range o {
				if in(i) {
					delete(o, i)
				}
			}
			for i := range so {
				if in(i) {
					o[i] = true
				}
			}
			equal(t, "CopyRange", s, o)

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
	s := New(64 * 10)
	s.SetRange(0, int32(s.Len()))
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
