package lpath

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"
)

// TestSnapshotQueriesAllStrategies is the end-to-end snapshot property: a
// corpus saved to the binary snapshot format and loaded back (both via the
// in-memory reader and the mmap-backed file path) answers all 23 paper
// queries with counts identical to the text-built store, under every
// executor strategy the engine has.
func TestSnapshotQueriesAllStrategies(t *testing.T) {
	strategies := []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"no-planner", []Option{WithoutPlanner()}},
		{"no-bitmap", []Option{withoutBitmap()}},
		{"bitmap-always", []Option{withBitmapAlways()}},
		{"filter-sets", []Option{withFilterSets()}},
		{"sharded", []Option{WithWorkers(4)}},
	}

	built, err := GenerateCorpus("wsj", 0.005, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wsj.lpx")
	if err := built.SaveStoreFile(path); err != nil {
		t.Fatal(err)
	}

	for _, st := range strategies {
		st := st
		t.Run(st.name, func(t *testing.T) {
			text, err := GenerateCorpus("wsj", 0.005, 42, st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			fromReader, err := LoadStore(bytes.NewReader(buf.Bytes()), st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			fromFile, err := OpenStore(path, st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer fromFile.Close()

			for _, eq := range EvalQueries() {
				q := MustCompile(eq.Text)
				want, err := text.Count(q)
				if err != nil {
					t.Fatalf("Q%d text: %v", eq.ID, err)
				}
				if got, err := fromReader.Count(q); err != nil || got != want {
					t.Errorf("Q%d: LoadStore count = %d (%v), text count = %d", eq.ID, got, err, want)
				}
				if got, err := fromFile.Count(q); err != nil || got != want {
					t.Errorf("Q%d: OpenStore count = %d (%v), text count = %d", eq.ID, got, err, want)
				}
				// The parallel path evaluates tid windows of the mapped store.
				if got, err := fromFile.CountParallel(q); err != nil || got != want {
					t.Errorf("Q%d: snapshot CountParallel = %d (%v), want %d", eq.ID, got, err, want)
				}
				par, err := fromReader.Run(context.Background(), Request{Query: q, Parallel: true})
				if err != nil || len(par.Matches) != want {
					t.Errorf("Q%d: snapshot parallel select = %d (%v), want %d", eq.ID, len(par.Matches), err, want)
				}
			}
		})
	}
}

// TestSnapshotMatchesCarryNodes verifies snapshot-loaded matches expose
// usable tree nodes (span text, attributes), not just counts.
func TestSnapshotMatchesCarryNodes(t *testing.T) {
	orig := figure1Corpus(t)
	var buf bytes.Buffer
	if err := orig.SaveStore(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`//V->NP`)
	want, err := orig.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("matches = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Node == nil || got[i].Node.Tag != want[i].Node.Tag {
			t.Errorf("match %d node = %+v, want tag %q", i, got[i].Node, want[i].Node.Tag)
		}
		if gs, ws := got[i].Node.String(), want[i].Node.String(); gs != ws {
			t.Errorf("match %d subtree %s, want %s", i, gs, ws)
		}
	}
}
