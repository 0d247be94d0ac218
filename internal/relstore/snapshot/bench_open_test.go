package snapshot

import (
	"path/filepath"
	"testing"

	"lpath/internal/corpus"
	"lpath/internal/engine"
	"lpath/internal/lpath"
	"lpath/internal/relstore"
)

// benchSnapshot writes the scale-0.05 WSJ store the open benchmarks map.
func benchSnapshot(b *testing.B) string {
	c := corpus.Generate(corpus.Config{Profile: corpus.WSJ, Scale: 0.05, Seed: 42})
	path := filepath.Join(b.TempDir(), "c.lpx")
	if err := WriteFile(path, relstore.Build(c, relstore.SchemeInterval)); err != nil {
		b.Fatal(err)
	}
	return path
}

// BenchmarkOpen is what a restart pays before the first query: validation
// plus the arrays derived per open. B/op is the heap it takes, none of it
// trees.
func BenchmarkOpen(b *testing.B) {
	path := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// BenchmarkOpenFirstSelect adds the first full Select on the fresh store: the
// B/op over BenchmarkOpen is what that query builds on first touch — the
// trees its matches live in and the name bitsets its plan uses.
func BenchmarkOpenFirstSelect(b *testing.B) {
	path := benchSnapshot(b)
	q, err := lpath.Parse(`//VP{//NP$}`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(f.Store())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Eval(q); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}
