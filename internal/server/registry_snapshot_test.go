package server

import (
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lpath"
)

// TestRegistryLoadFileSnapshot registers the same corpus twice — once from
// Penn text, once from a binary store snapshot — and cross-checks that the
// serving path returns identical counts from both, for every paper query.
func TestRegistryLoadFileSnapshot(t *testing.T) {
	built, err := lpath.GenerateCorpus("wsj", 0.003, 17)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "wsj.lpx")
	if err := built.SaveStoreFile(snapPath); err != nil {
		t.Fatal(err)
	}
	textPath := filepath.Join(dir, "wsj.mrg")
	f, err := os.Create(textPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	snapEntry, format, err := reg.LoadFile("snap", snapPath, lpath.WithPlanCache(32))
	if err != nil {
		t.Fatal(err)
	}
	if format != "snapshot" {
		t.Fatalf("snapshot file detected as %q", format)
	}
	textEntry, format, err := reg.LoadFile("text", textPath, lpath.WithPlanCache(32))
	if err != nil {
		t.Fatal(err)
	}
	if format != "text" {
		t.Fatalf("text file detected as %q", format)
	}
	st := built.Stats()
	for _, e := range []*Entry{snapEntry, textEntry} {
		trees, nodes, words, err := e.Corpus.Counts()
		if err != nil || trees != st.Sentences || nodes != st.TreeNodes || words != st.Words {
			t.Fatalf("%s: counts %d trees, %d nodes, %d words (%v), want %+v", e.Name, trees, nodes, words, err, st)
		}
	}

	h := New(reg, Config{}).Handler()
	for _, eq := range lpath.EvalQueries() {
		var counts [2]int
		for i, corpus := range []string{"snap", "text"} {
			w := postJSON(t, h, "/v1/count", queryRequest{Corpus: corpus, Query: eq.Text})
			if w.Code != http.StatusOK {
				t.Fatalf("Q%d on %s: status %d: %s", eq.ID, corpus, w.Code, w.Body.String())
			}
			counts[i] = decodeResponse(t, w).Count
		}
		if counts[0] != counts[1] {
			t.Errorf("Q%d: snapshot corpus counts %d, text corpus %d", eq.ID, counts[0], counts[1])
		}
	}

	// /v1/query returns real matches from the snapshot-backed corpus.
	w := postJSON(t, h, "/v1/query", queryRequest{Corpus: "snap", Query: `//NP`, Limit: 3})
	if w.Code != http.StatusOK {
		t.Fatalf("query: status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeResponse(t, w)
	if resp.Count == 0 || len(resp.Matches) == 0 {
		t.Fatalf("snapshot query returned %d matches of %d", len(resp.Matches), resp.Count)
	}
}

// TestRegistrySetRendersNothing pins that registering a snapshot-backed
// corpus reads its counts from the store: Set allocates under a tenth of
// what Corpus.Stats, which builds and renders every tree, allocates on the
// same corpus.
func TestRegistrySetRendersNothing(t *testing.T) {
	built, err := lpath.GenerateCorpus("wsj", 0.01, 17)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wsj.lpx")
	if err := built.SaveStoreFile(path); err != nil {
		t.Fatal(err)
	}
	c, err := lpath.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	set := allocated(func() {
		if _, err := NewRegistry().Set("wsj", c); err != nil {
			t.Error(err)
		}
	})
	stats := allocated(func() { c.Stats() })
	if set*10 >= stats {
		t.Fatalf("Set allocated %d bytes, Stats %d: want under a tenth", set, stats)
	}
}

func TestRegistryLoadFileErrors(t *testing.T) {
	reg := NewRegistry()
	if _, _, err := reg.LoadFile("x", filepath.Join(t.TempDir(), "missing.lpx")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.lpx")
	if err := os.WriteFile(bad, []byte("LPXSNAP\x00 not a real snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.LoadFile("x", bad); err == nil {
		t.Error("corrupt snapshot accepted")
	}
	if reg.Len() != 0 {
		t.Errorf("failed loads left %d registry entries", reg.Len())
	}
}
