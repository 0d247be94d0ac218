package lpath

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// openedPair generates a corpus, saves its store and maps the snapshot back:
// the source and the snapshot-backed corpus the laziness tests compare.
func openedPair(t *testing.T, scale float64) (src, opened *Corpus, path string) {
	t.Helper()
	src, err := GenerateCorpus("wsj", scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), "wsj.lpx")
	if err := src.SaveStoreFile(path); err != nil {
		t.Fatal(err)
	}
	if opened, err = OpenStore(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { opened.Close() })
	return src, opened, path
}

// TestOpenStoreBuildsTreesOnlyForMatches pins when a snapshot-backed corpus
// has trees: never for a count, and for a limited select only the trees its
// returned matches live in.
func TestOpenStoreBuildsTreesOnlyForMatches(t *testing.T) {
	_, c, _ := openedPair(t, 0.01)
	if n := c.store.TreesBuilt(); n != 0 {
		t.Fatalf("OpenStore built %d trees", n)
	}
	for _, eq := range EvalQueries() {
		if _, err := c.Count(MustCompile(eq.Text)); err != nil {
			t.Fatalf("Q%d: %v", eq.ID, err)
		}
	}
	if n := c.store.TreesBuilt(); n != 0 {
		t.Fatalf("counting the 23 queries built %d trees", n)
	}
	for _, eq := range EvalQueries() {
		before := c.store.TreesBuilt()
		ms, err := c.SelectLimit(MustCompile(eq.Text), 10)
		if err != nil {
			t.Fatalf("Q%d: %v", eq.ID, err)
		}
		trees := make(map[int]bool)
		for _, m := range ms {
			if m.Node == nil {
				t.Fatalf("Q%d: match in tree %d without a node", eq.ID, m.TreeID)
			}
			trees[m.TreeID] = true
		}
		if built := c.store.TreesBuilt() - before; built > len(trees) {
			t.Errorf("Q%d: limit 10 built %d trees for matches in %d", eq.ID, built, len(trees))
		}
	}
}

// TestParallelOnSnapshotBuildsNoTrees: Parallel requests on a
// snapshot-backed corpus run over the one mapped store, so they are as lazy
// as serial ones — a parallel count builds no tree, and a parallel select
// builds only the trees its matches live in, no more than the serial select.
func TestParallelOnSnapshotBuildsNoTrees(t *testing.T) {
	_, c, path := openedPair(t, 0.01)
	c.Configure(WithWorkers(4))
	for _, eq := range EvalQueries() {
		if _, err := c.CountParallel(MustCompile(eq.Text)); err != nil {
			t.Fatalf("Q%d: %v", eq.ID, err)
		}
	}
	if n := c.store.TreesBuilt(); n != 0 {
		t.Fatalf("CountParallel over the 23 queries built %d trees", n)
	}
	serial, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for _, eq := range EvalQueries() {
		q := MustCompile(eq.Text)
		want, err := serial.Select(q)
		if err != nil {
			t.Fatalf("Q%d: %v", eq.ID, err)
		}
		res, err := c.Run(context.Background(), Request{Query: q, Parallel: true})
		if err != nil {
			t.Fatalf("Q%d parallel: %v", eq.ID, err)
		}
		if len(res.Matches) != len(want) {
			t.Fatalf("Q%d: parallel %d matches, serial %d", eq.ID, len(res.Matches), len(want))
		}
		if got, max := c.store.TreesBuilt(), serial.store.TreesBuilt(); got > max {
			t.Fatalf("Q%d: parallel selects built %d trees, serial %d", eq.ID, got, max)
		}
	}
}

// TestOpenStoreNodeIdentityAcrossGoroutines: concurrent first requests for
// the same trees race to materialize them, and every caller must still be
// handed the same *Node for the same (tree, node) — the identity the match
// comparisons of the differential suites rest on.
func TestOpenStoreNodeIdentityAcrossGoroutines(t *testing.T) {
	_, c, _ := openedPair(t, 0.01)
	var queries []*Query
	for _, eq := range EvalQueries() {
		queries = append(queries, MustCompile(eq.Text))
	}
	const workers = 8
	results := make([][][]Match, workers) // [worker][query]
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		results[w] = make([][]Match, len(queries))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queries {
				// Staggered starts, so different goroutines are first on
				// different trees.
				qi := (i + 3*w) % len(queries)
				ms, err := c.Select(queries[qi])
				if err != nil {
					t.Errorf("worker %d: %s: %v", w, queries[qi], err)
					return
				}
				results[w][qi] = ms
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := range queries {
		want := results[0][i]
		for w := 1; w < workers; w++ {
			got := results[w][i]
			if len(got) != len(want) {
				t.Fatalf("%s: worker %d has %d matches, worker 0 has %d", queries[i], w, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s: match %d is %p on worker %d and %p on worker 0", queries[i], j, got[j].Node, w, want[j].Node)
				}
			}
		}
	}
}

// TestOpenStoreTreesRoundTrip: the forest a snapshot-backed corpus
// materializes on demand is the source's, byte for byte in Penn text, and is
// the one its matches point into.
func TestOpenStoreTreesRoundTrip(t *testing.T) {
	src, c, _ := openedPair(t, 0.01)
	ms, err := c.SelectLimit(MustCompile(`//VP`), 1)
	if err != nil || len(ms) != 1 {
		t.Fatalf("SelectLimit = %v, %v", ms, err)
	}
	var want, got bytes.Buffer
	if err := src.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("Save on the opened store differs from the source's Penn text")
	}
	trees := c.Trees()
	if len(trees) != src.Len() || c.Len() != src.Len() || c.store.TreesBuilt() != src.Len() {
		t.Fatalf("%d trees, Len %d, %d built; source has %d", len(trees), c.Len(), c.store.TreesBuilt(), src.Len())
	}
	if root := trees[ms[0].TreeID-1].Root; ms[0].Node.Root() != root {
		t.Error("the match found before Trees() points into a different tree than Trees() returns")
	}
}

// TestOpenStoreStatsStreams: Stats on a snapshot-backed corpus equals the
// source's field for field and leaves no tree behind, and Counts, which a
// server reads at start-up, equals Stats' counts before any tree is built.
func TestOpenStoreStatsStreams(t *testing.T) {
	src, c, _ := openedPair(t, 0.01)
	want := src.Stats()
	for _, corpus := range []*Corpus{src, c} {
		trees, nodes, words, err := corpus.Counts()
		if err != nil || trees != want.Sentences || nodes != want.TreeNodes || words != want.Words {
			t.Errorf("Counts = %d trees, %d nodes, %d words (%v), want %+v", trees, nodes, words, err, want)
		}
	}
	if n := c.store.TreesBuilt(); n != 0 {
		t.Errorf("Counts built %d trees", n)
	}
	if got := c.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	if n := c.store.TreesBuilt(); n != 0 {
		t.Errorf("Stats left %d trees cached", n)
	}
}

// TestOpenStoreHeapBudget is the tier-1 guard on what opening a snapshot
// costs: the live heap OpenStore leaves behind stays within 1.2x the file.
// The columns stay in the mapping; the derived arrays (position arrays, the
// identity row sequence, the attribute value ids) and the dictionary maps
// come to 0.67x at scale 0.05 (0.56x at scale 1.0), so the budget leaves a
// margin of about 0.5x. A second copy of the relation on the heap — 2.2x
// while the store kept a row struct per row — a per-node hash map or an
// eager tree arena fails here and not in the next benchmark run.
func TestOpenStoreHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("heap budget needs a non-trivial corpus")
	}
	_, warm, path := openedPair(t, 0.05)
	warm.Close() // the measured open must not also pay the first mapping's page faults
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	c, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	after := heap()
	runtime.KeepAlive(c)
	grew := int64(after) - int64(before)
	t.Logf("snapshot %d bytes, live heap after OpenStore +%d bytes (%.2fx)", info.Size(), grew, float64(grew)/float64(info.Size()))
	if grew > info.Size()*6/5 {
		t.Errorf("OpenStore keeps %d bytes of heap live for a %d-byte snapshot (%.2fx, budget 1.2x)",
			grew, info.Size(), float64(grew)/float64(info.Size()))
	}
}
