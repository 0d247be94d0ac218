package snapshot

import (
	"testing"

	"lpath/internal/relstore"
	"lpath/internal/tree"
)

// FuzzSnapshotLoad feeds arbitrary bytes to the full load path. The contract
// under fuzz: a load either succeeds on a structurally valid image or fails
// with a typed format error — it never panics and never silently accepts a
// broken file. Successful loads must survive a re-encode/decode cycle.
func FuzzSnapshotLoad(f *testing.F) {
	c := tree.NewCorpus()
	c.Add(tree.Figure1())
	c.Add(tree.MustParseTree(`(S (NP-SBJ (-NONE- *T*-1)) (VP (VBD saw)))`))
	valid, err := Encode(relstore.Build(c, relstore.SchemeInterval))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x80
	f.Add(flipped)
	empty, err := Encode(relstore.Build(tree.NewCorpus(), relstore.SchemeInterval))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	// Correctly signed images with broken identities: the mutator starts next
	// to the inputs only Assemble's position checks stand against.
	for _, data := range corruptIdentities(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !IsFormatError(err) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		// Whatever decoded must be internally consistent enough to encode
		// again and reload identically.
		if s == nil {
			t.Fatal("nil store without error")
		}
		// Every accepted element must resolve through the position arrays,
		// and the whole forest must materialize without indexing astray.
		for _, ri := range s.ElementsByLeft() {
			r := s.Row(ri)
			if got, ok := s.ElementByID(r.TID, r.ID); !ok || got != ri {
				t.Fatalf("ElementByID(%d, %d) = %d, %v, want %d", r.TID, r.ID, got, ok, ri)
			}
			s.Children(r.TID, r.ID)
			s.Attrs(r.TID, r.ID)
		}
		if n := s.Forest().NodeCount(); n != s.ElementCount() {
			t.Fatalf("forest has %d nodes, store %d elements", n, s.ElementCount())
		}
		again, err := Encode(s)
		if err != nil {
			t.Fatalf("re-encode of an accepted store failed: %v", err)
		}
		s2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-decode of an accepted store failed: %v", err)
		}
		if s2.Len() != s.Len() || s2.TreeCount() != s.TreeCount() {
			t.Fatalf("re-decode changed shape: %d/%d vs %d/%d",
				s2.Len(), s2.TreeCount(), s.Len(), s.TreeCount())
		}
	})
}
